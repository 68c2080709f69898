// Tests for the measurement shortcuts (§3.4): exact expectation values
// against hand-computed states, Pauli-string rotation correctness, and
// the 1/sqrt(shots) convergence of the sampling estimator the emulator
// makes unnecessary.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/builders.hpp"
#include "emu/observables.hpp"
#include "sim/simulator.hpp"

namespace qc::emu {
namespace {

using sim::StateVector;

TEST(Observables, ZExpectationOnBasisStates) {
  StateVector sv(3);
  sv.set_basis(0b000);
  EXPECT_NEAR(expectation_z_string(sv, 0b001), 1.0, 1e-14);
  sv.set_basis(0b001);
  EXPECT_NEAR(expectation_z_string(sv, 0b001), -1.0, 1e-14);
  // <Z0 Z1> on |01>: (-1)^(parity) = -1.
  EXPECT_NEAR(expectation_z_string(sv, 0b011), -1.0, 1e-14);
  EXPECT_NEAR(expectation_z_string(sv, 0b010), 1.0, 1e-14);
}

TEST(Observables, ZExpectationOnPlusState) {
  // |+> on every qubit: <Z...> = 0 for any nonempty mask.
  const qubit_t n = 4;
  StateVector sv(n);
  circuit::Circuit c(n);
  for (qubit_t q = 0; q < n; ++q) c.h(q);
  sim::apply_circuit_hpc(sv.amplitudes(), c);
  EXPECT_NEAR(expectation_z_string(sv, 0b0001), 0.0, 1e-13);
  EXPECT_NEAR(expectation_z_string(sv, 0b1111), 0.0, 1e-13);
  EXPECT_NEAR(expectation_z_string(sv, 0), 1.0, 1e-13);  // identity
}

TEST(Observables, GhzCorrelations) {
  // GHZ: <Z_i Z_j> = 1, <Z_i> = 0, <X^n> = 1.
  const qubit_t n = 5;
  StateVector sv(n);
  sim::apply_circuit_hpc(sv.amplitudes(), circuit::entangle(n));
  EXPECT_NEAR(expectation_z_string(sv, 0b00011), 1.0, 1e-13);
  EXPECT_NEAR(expectation_z_string(sv, 0b10100), 1.0, 1e-13);
  EXPECT_NEAR(expectation_z_string(sv, 0b00001), 0.0, 1e-13);
  EXPECT_NEAR(expectation_pauli(sv, "XXXXX"), 1.0, 1e-12);
  // <X> on a single GHZ qubit vanishes.
  EXPECT_NEAR(expectation_pauli(sv, "XIIII"), 0.0, 1e-12);
}

TEST(Observables, PauliMatchesZRotationIdentity) {
  // On |0>: <X> = 0, <Y> = 0, <Z> = 1; on |+>: <X> = 1.
  StateVector sv(1);
  EXPECT_NEAR(expectation_pauli(sv, "X"), 0.0, 1e-13);
  EXPECT_NEAR(expectation_pauli(sv, "Y"), 0.0, 1e-13);
  EXPECT_NEAR(expectation_pauli(sv, "Z"), 1.0, 1e-13);
  circuit::Circuit c(1);
  c.h(0);
  sim::apply_circuit_hpc(sv.amplitudes(), c);
  EXPECT_NEAR(expectation_pauli(sv, "X"), 1.0, 1e-13);
  EXPECT_NEAR(expectation_pauli(sv, "Z"), 0.0, 1e-13);
}

TEST(Observables, YEigenstateExpectation) {
  // (|0> + i|1>)/sqrt(2) is the +1 eigenstate of Y.
  StateVector sv(1);
  sv[0] = 1.0 / std::sqrt(2.0);
  sv[1] = kI / std::sqrt(2.0);
  EXPECT_NEAR(expectation_pauli(sv, "Y"), 1.0, 1e-13);
}

TEST(Observables, PauliRejectsBadAxis) {
  StateVector sv(2);
  EXPECT_THROW(expectation_pauli(sv, "XQ"), std::invalid_argument);
  EXPECT_THROW(expectation_pauli(sv, "XYZ"), std::invalid_argument);  // too long
}

TEST(Observables, RegisterExpectation) {
  // Equal superposition of values 0..7 in a 3-bit register: mean 3.5.
  const qubit_t n = 5;
  StateVector sv(n);
  circuit::Circuit c(n);
  for (qubit_t q = 1; q < 4; ++q) c.h(q);
  sim::apply_circuit_hpc(sv.amplitudes(), c);
  EXPECT_NEAR(expectation_register(sv, 1, 3), 3.5, 1e-12);
  EXPECT_NEAR(expectation_register(sv, 0, 1), 0.0, 1e-12);
}

TEST(Observables, SampledZConvergesWithShots) {
  // The sampling estimator's error must shrink roughly as 1/sqrt(shots),
  // quantifying the repetitions the emulator saves (§3.4).
  const qubit_t n = 6;
  StateVector sv(n);
  Rng rng(9);
  sv.randomize(rng);
  const index_t mask = 0b10110;
  const double exact = expectation_z_string(sv, mask);
  Rng sampler(10);
  const double err_small = std::abs(sampled_z_string(sv, mask, 100, sampler) - exact);
  double err_large = 0;
  const int reps = 5;
  for (int r = 0; r < reps; ++r)
    err_large += std::abs(sampled_z_string(sv, mask, 40000, sampler) - exact);
  err_large /= reps;
  EXPECT_LT(err_large, 0.02);
  EXPECT_LT(err_large, err_small + 0.05);  // larger shots no worse
}

TEST(Observables, SampleRegisterCountsMatchDistribution) {
  const qubit_t n = 4;
  StateVector sv(n);
  circuit::Circuit c(n);
  c.h(0).cnot(0, 1);  // Bell pair in register [0,2): only 00 and 11
  sim::apply_circuit_hpc(sv.amplitudes(), c);
  Rng rng(11);
  const auto counts = sample_register_counts(sv, 0, 2, 10000, rng);
  EXPECT_EQ(counts.count(1), 0u);
  EXPECT_EQ(counts.count(2), 0u);
  const double f0 = static_cast<double>(counts.at(0)) / 10000.0;
  EXPECT_NEAR(f0, 0.5, 0.03);
  EXPECT_EQ(counts.at(0) + counts.at(3), 10000u);
}

TEST(Observables, TfimEnergyIsRealAndBounded) {
  // Energy of the TFIM Hamiltonian via Pauli strings on a Trotter-evolved
  // state: |<H>| <= (n-1)*|J| + n*|h|.
  const qubit_t n = 5;
  StateVector sv(n);
  sim::apply_circuit_hpc(sv.amplitudes(), circuit::tfim_trotter_step(n, 0.3));
  double energy = 0;
  for (qubit_t q = 0; q + 1 < n; ++q) {
    std::string axes(n, 'I');
    axes[q] = 'Z';
    axes[q + 1] = 'Z';
    energy -= expectation_pauli(sv, axes);
  }
  for (qubit_t q = 0; q < n; ++q) {
    std::string axes(n, 'I');
    axes[q] = 'X';
    energy -= expectation_pauli(sv, axes);
  }
  EXPECT_LE(std::abs(energy), static_cast<double>(n - 1) + n + 1e-9);
}

}  // namespace
}  // namespace qc::emu
