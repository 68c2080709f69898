// Tests for the Beauregard modular-arithmetic circuits: every level of
// the construction (Draper phi-adder, modular adder, CMULT, in-place
// controlled modular multiplication, modular exponentiation) is checked
// against the emulator's direct evaluation on state vectors — these
// circuits contain QFTs and are not BitVm-executable.
#include <gtest/gtest.h>

#include <numeric>

#include "circuit/builders.hpp"
#include "emu/emulator.hpp"
#include "revcirc/modular.hpp"
#include "sim/simulator.hpp"

namespace qc::revcirc {
namespace {

using circuit::Circuit;
using emu::Emulator;
using sim::StateVector;

TEST(ModInverse, KnownValuesAndErrors) {
  EXPECT_EQ(mod_inverse(7, 15), 13u);   // 7*13 = 91 = 6*15+1
  EXPECT_EQ(mod_inverse(3, 7), 5u);     // 3*5 = 15 = 2*7+1
  EXPECT_EQ(mod_inverse(1, 9), 1u);
  for (index_t a = 1; a < 21; ++a) {
    if (std::gcd(a, index_t{21}) != 1) {
      EXPECT_THROW(mod_inverse(a, 21), std::invalid_argument) << a;
    } else {
      EXPECT_EQ(a * mod_inverse(a, 21) % 21, 1u) << a;
    }
  }
}

class DraperAdder : public ::testing::TestWithParam<qubit_t> {};

TEST_P(DraperAdder, AddConstantMatchesEmulatorOnRandomState) {
  const qubit_t w = GetParam();
  const index_t k = (index_t{0x5b} ^ w) & bits::low_mask(w);
  StateVector circuit_sv(w);
  Rng rng(w);
  circuit_sv.randomize(rng);
  StateVector emu_sv(w);
  std::copy(circuit_sv.amplitudes().begin(), circuit_sv.amplitudes().end(),
            emu_sv.amplitudes().begin());

  Circuit c(w);
  add_const_via_qft(c, make_reg(0, w), k);
  sim::apply_circuit_hpc(circuit_sv.amplitudes(), c);

  Emulator(emu_sv).add_constant({0, w}, k);
  EXPECT_LT(circuit_sv.max_abs_diff(emu_sv), 1e-11);
}

TEST_P(DraperAdder, SubtractionInverts) {
  const qubit_t w = GetParam();
  const index_t k = 3;
  StateVector sv(w);
  Rng rng(w + 9);
  sv.randomize(rng);
  StateVector ref(w);
  std::copy(sv.amplitudes().begin(), sv.amplitudes().end(), ref.amplitudes().begin());
  Circuit c(w);
  const Reg reg = make_reg(0, w);
  qft_on_reg(c, reg);
  phi_add_const(c, reg, k);
  phi_sub_const(c, reg, k);
  inverse_qft_on_reg(c, reg);
  sim::apply_circuit_hpc(sv.amplitudes(), c);
  EXPECT_LT(sv.max_abs_diff(ref), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Widths, DraperAdder, ::testing::Values(1, 2, 3, 5, 7));

TEST(DraperAdder, ControlledRespectsControl) {
  const qubit_t w = 3;
  // Register + control qubit on top.
  for (const int ctl : {0, 1}) {
    StateVector sv(w + 1);
    sv.set_basis(5 | (static_cast<index_t>(ctl) << w));
    Circuit c(w + 1);
    add_const_via_qft(c, make_reg(0, w), 6, {w});
    sim::apply_circuit_hpc(sv.amplitudes(), c);
    const index_t expect = (ctl ? (5 + 6) & 7 : 5) | (static_cast<index_t>(ctl) << w);
    EXPECT_NEAR(std::abs(sv[expect]), 1.0, 1e-11) << "ctl=" << ctl;
  }
}

class ModularAdder : public ::testing::TestWithParam<index_t> {};

TEST_P(ModularAdder, AllInputsAllConstants) {
  // Exhaustive over b < N and a < N for the given modulus.
  const index_t modulus = GetParam();
  qubit_t w = 1;
  while (dim(w) < modulus) ++w;
  const qubit_t total = w + 2;  // b (w+1) + ancilla
  const Reg b_reg = make_reg(0, w + 1);
  for (index_t a = 0; a < modulus; ++a) {
    Circuit c(total);
    qft_on_reg(c, b_reg);
    phi_add_const_mod(c, b_reg, a, modulus, w + 1);
    inverse_qft_on_reg(c, b_reg);
    for (index_t b = 0; b < modulus; ++b) {
      StateVector sv(total);
      sv.set_basis(b);
      sim::apply_circuit_hpc(sv.amplitudes(), c);
      const index_t expect = (a + b) % modulus;
      EXPECT_NEAR(std::abs(sv[expect]), 1.0, 1e-9)
          << "N=" << modulus << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Moduli, ModularAdder, ::testing::Values(2, 3, 5, 7, 8, 13));

TEST(ModularAdder, WorksOnSuperpositions) {
  const index_t modulus = 13;
  const qubit_t w = 4;
  const qubit_t total = w + 2;
  const Reg b_reg = make_reg(0, w + 1);
  Circuit c(total);
  qft_on_reg(c, b_reg);
  phi_add_const_mod(c, b_reg, 9, modulus, w + 1);
  inverse_qft_on_reg(c, b_reg);

  // Superpose all valid b < N with distinct phases, then compare with
  // the emulator's partial map.
  StateVector circuit_sv(total);
  auto amps = circuit_sv.amplitudes();
  std::fill(amps.begin(), amps.end(), complex_t{});
  for (index_t b = 0; b < modulus; ++b)
    amps[b] = std::polar(1.0 / std::sqrt(static_cast<double>(modulus)), 0.2 * b);
  StateVector emu_sv(total);
  std::copy(amps.begin(), amps.end(), emu_sv.amplitudes().begin());

  sim::apply_circuit_hpc(circuit_sv.amplitudes(), c);
  Emulator(emu_sv).apply_partial_map(
      [&](index_t i) { return bits::with_field(i, 0, w + 1, (bits::field(i, 0, w + 1) + 9) % modulus); });
  EXPECT_LT(circuit_sv.max_abs_diff(emu_sv), 1e-10);
}

TEST(ModularAdder, ControlledVariantRespectsControl) {
  const index_t modulus = 11;
  const qubit_t w = 4;
  const qubit_t total = w + 3;  // b (w+1) + anc + control
  const Reg b_reg = make_reg(0, w + 1);
  const qubit_t anc = w + 1, ctl = w + 2;
  Circuit c(total);
  qft_on_reg(c, b_reg);
  phi_add_const_mod(c, b_reg, 7, modulus, anc, {ctl});
  inverse_qft_on_reg(c, b_reg);
  for (index_t b = 0; b < modulus; ++b) {
    for (const index_t on : {index_t{0}, index_t{1}}) {
      StateVector sv(total);
      sv.set_basis(b | (on << ctl));
      sim::apply_circuit_hpc(sv.amplitudes(), c);
      const index_t expect = (on ? (b + 7) % modulus : b) | (on << ctl);
      EXPECT_NEAR(std::abs(sv[expect]), 1.0, 1e-9) << "b=" << b << " on=" << on;
    }
  }
}

TEST(OrderFinding, ExponentDistributionPeaksAtOrderMultiples) {
  // Gate-level mini-Shor: after the modexp cascade and an inverse QFT
  // on the exponent register, probability concentrates on multiples of
  // 2^t / r (r = 4 for a = 7 mod 15).
  const index_t modulus = 15, a = 7;
  const ShorLayout layout = ShorLayout::make(/*t_bits=*/4, modulus);
  Circuit c = order_finding_circuit(layout, a, modulus);
  Circuit iqft(layout.total_qubits());
  iqft.compose_mapped(circuit::inverse_qft(layout.t), layout.exponent);
  c.compose(iqft);

  StateVector sv(layout.total_qubits());
  sim::apply_circuit_hpc(sv.amplitudes(), c);
  const auto dist = sv.register_distribution(0, layout.t);
  // Peaks at 0, 4, 8, 12 (2^4 / 4 spacing), each with probability 1/4.
  for (index_t x = 0; x < dist.size(); ++x) {
    if (x % 4 == 0) {
      EXPECT_NEAR(dist[x], 0.25, 1e-6) << "x=" << x;
    } else {
      EXPECT_NEAR(dist[x], 0.0, 1e-6) << "x=" << x;
    }
  }
}

TEST(CmultMod, AccumulatesProductOnBasisStates) {
  const index_t modulus = 15, a = 7;
  const qubit_t w = 4;
  // Layout: x = [0,w), b = [w, 2w+1), anc = 2w+1, control = 2w+2.
  const qubit_t total = 2 * w + 3;
  const Reg x_reg = make_reg(0, w);
  const Reg b_reg = make_reg(w, w + 1);
  Circuit c(total);
  cmult_mod(c, 2 * w + 2, x_reg, b_reg, a, modulus, 2 * w + 1);
  for (const index_t x : {index_t{0}, index_t{1}, index_t{6}, index_t{14}}) {
    for (const index_t b0 : {index_t{0}, index_t{4}}) {
      // Control on.
      StateVector sv(total);
      sv.set_basis(x | (b0 << w) | (index_t{1} << (2 * w + 2)));
      sim::apply_circuit_hpc(sv.amplitudes(), c);
      const index_t expect =
          x | (((b0 + a * x) % modulus) << w) | (index_t{1} << (2 * w + 2));
      EXPECT_NEAR(std::abs(sv[expect]), 1.0, 1e-9) << "x=" << x << " b0=" << b0;
      // Control off: identity.
      StateVector off(total);
      off.set_basis(x | (b0 << w));
      sim::apply_circuit_hpc(off.amplitudes(), c);
      EXPECT_NEAR(std::abs(off[x | (b0 << w)]), 1.0, 1e-9);
    }
  }
}

TEST(ControlledModmul, InPlaceMultiplicationAndCleanAncillas) {
  const index_t modulus = 15, a = 7;
  const qubit_t w = 4;
  const qubit_t total = 2 * w + 3;
  const Reg x_reg = make_reg(0, w);
  const Reg b_reg = make_reg(w, w + 1);
  Circuit c(total);
  controlled_modmul(c, 2 * w + 2, x_reg, b_reg, a, modulus, 2 * w + 1);
  for (index_t x = 0; x < modulus; ++x) {
    StateVector sv(total);
    sv.set_basis(x | (index_t{1} << (2 * w + 2)));
    sim::apply_circuit_hpc(sv.amplitudes(), c);
    const index_t expect = (a * x % modulus) | (index_t{1} << (2 * w + 2));
    EXPECT_NEAR(std::abs(sv[expect]), 1.0, 1e-8) << "x=" << x;
  }
  EXPECT_THROW(controlled_modmul(c, 2 * w + 2, x_reg, b_reg, 6, modulus, 2 * w + 1),
               std::invalid_argument);  // gcd(6,15) != 1
}

TEST(Modexp, MatchesEmulatedModularExponentiation) {
  // The headline equivalence: the full gate-level order-finding state
  // (Hadamards + modexp cascade) equals the emulator's one-permutation
  // construction, amplitude for amplitude.
  const index_t modulus = 15, a = 7;
  const qubit_t t = 4;
  const ShorLayout layout = ShorLayout::make(t, modulus);
  const Circuit c = order_finding_circuit(layout, a, modulus);

  StateVector circuit_sv(layout.total_qubits());
  sim::apply_circuit_hpc(circuit_sv.amplitudes(), c);

  // Emulated reference: Hadamards on the exponent register, |1> in x,
  // then the modexp permutation.
  StateVector emu_sv(layout.total_qubits());
  {
    Circuit prep(layout.total_qubits());
    for (const qubit_t q : layout.exponent) prep.h(q);
    prep.x(layout.x[0]);
    sim::apply_circuit_hpc(emu_sv.amplitudes(), prep);
  }
  Emulator emu(emu_sv);
  emu.apply_permutation([&](index_t i) {
    const index_t e = bits::field(i, 0, t);
    index_t y = bits::field(i, t, layout.w);
    if (y >= modulus) return i;
    index_t factor = a, ee = e;
    while (ee > 0) {
      if (ee & 1) y = y * factor % modulus;
      factor = factor * factor % modulus;
      ee >>= 1;
    }
    return bits::with_field(i, t, layout.w, y);
  });
  EXPECT_LT(circuit_sv.max_abs_diff(emu_sv), 1e-8);
}

TEST(Modexp, GateCountIsPolynomial) {
  const ShorLayout l4 = ShorLayout::make(8, 15);
  const ShorLayout l5 = ShorLayout::make(10, 31);
  const std::size_t g4 = order_finding_circuit(l4, 7, 15).size();
  const std::size_t g5 = order_finding_circuit(l5, 3, 31).size();
  // O(t * w^3)-ish gate counts: going from (t=8, w=4) to (t=10, w=5)
  // should grow by roughly (10/8)*(5/4)^3 ~ 2.4x, nowhere near 2^w.
  EXPECT_GT(g5, g4);
  EXPECT_LT(g5, 4 * g4);
}

}  // namespace
}  // namespace qc::revcirc
