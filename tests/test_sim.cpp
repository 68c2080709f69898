// Tests for the state vector and the three per-gate runners ("hpc",
// "qhipster-like", "liquid-like"): every kernel is checked against the
// dense Kronecker operator oracle, the runners are checked against each
// other, and state-level operations (measurement, collapse,
// distributions) against direct computation.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>

#include "circuit/builders.hpp"
#include "sim/simulator.hpp"
#include "sim/state_vector.hpp"

namespace qc::sim {
namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

StateVector random_state(qubit_t n, std::uint64_t seed) {
  StateVector sv(n);
  Rng rng(seed);
  sv.randomize(rng);
  return sv;
}

/// Applies `g` through the per-gate runner behind backend `name`.
void apply_runner(const std::string& name, StateVector& sv, const Gate& g) {
  if (name == "hpc") {
    apply_gate_hpc<double>(sv.amplitudes(), sv.qubits(), g);
  } else {
    apply_gate_generic<double>(sv.amplitudes(), sv.qubits(), g, name == "qhipster-like");
  }
}

void run_runner(const std::string& name, StateVector& sv, const Circuit& c) {
  for (const Gate& g : c.gates()) apply_runner(name, sv, g);
}

/// Oracle: applies the dense 2^n x 2^n operator of g by matvec.
StateVector apply_dense(const StateVector& in, const Gate& g) {
  const linalg::Matrix op = circuit::gate_operator(g, in.qubits());
  StateVector out(in.qubits());
  op.matvec(in.amplitudes(), out.amplitudes());
  return out;
}

TEST(StateVector, InitializesToZeroState) {
  const StateVector sv(4);
  EXPECT_EQ(sv[0], complex_t{1.0});
  for (index_t i = 1; i < sv.size(); ++i) EXPECT_EQ(sv[i], complex_t{});
  EXPECT_NEAR(sv.norm_sq(), 1.0, 1e-15);
}

TEST(StateVector, SetBasisAndBounds) {
  StateVector sv(3);
  sv.set_basis(5);
  EXPECT_EQ(sv[5], complex_t{1.0});
  EXPECT_EQ(sv[0], complex_t{});
  EXPECT_THROW(sv.set_basis(8), std::invalid_argument);
}

TEST(StateVector, RandomizeIsNormalizedAndDeterministic) {
  StateVector a = random_state(10, 42);
  StateVector b = random_state(10, 42);
  StateVector c = random_state(10, 43);
  EXPECT_NEAR(a.norm_sq(), 1.0, 1e-12);
  EXPECT_EQ(a.max_abs_diff(b), 0.0);
  EXPECT_GT(a.max_abs_diff(c), 1e-3);
}

TEST(StateVector, OverlapProperties) {
  const StateVector a = random_state(8, 1);
  EXPECT_NEAR(a.overlap_abs(a), 1.0, 1e-12);
  StateVector basis(8);
  basis.set_basis(3);
  EXPECT_NEAR(a.overlap_abs(basis), std::abs(a[3]), 1e-12);
}

TEST(StateVector, ProbabilityOfOne) {
  StateVector sv(2);
  // (|00> + |01> + |10> + |11>)/2: every qubit is 1 with probability 1/2.
  for (index_t i = 0; i < 4; ++i) sv[i] = 0.5;
  EXPECT_NEAR(sv.probability_of_one(0), 0.5, 1e-14);
  EXPECT_NEAR(sv.probability_of_one(1), 0.5, 1e-14);
  sv.set_basis(2);  // |10>
  EXPECT_NEAR(sv.probability_of_one(0), 0.0, 1e-14);
  EXPECT_NEAR(sv.probability_of_one(1), 1.0, 1e-14);
}

TEST(StateVector, RegisterDistributionMarginalizes) {
  const StateVector sv = random_state(6, 7);
  const auto dist = sv.register_distribution(1, 3);
  EXPECT_EQ(dist.size(), 8u);
  double total = 0;
  for (double p : dist) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Cross-check one bucket by direct summation.
  double direct = 0;
  for (index_t i = 0; i < sv.size(); ++i)
    if (bits::field(i, 1, 3) == 5) direct += std::norm(sv[i]);
  EXPECT_NEAR(dist[5], direct, 1e-13);
}

TEST(StateVector, SampleFollowsDistribution) {
  StateVector sv(2);
  sv[0] = std::sqrt(0.7);
  sv[3] = std::sqrt(0.3);
  Rng rng(9);
  int count3 = 0;
  const int shots = 20000;
  for (int s = 0; s < shots; ++s) count3 += sv.sample(rng) == 3;
  EXPECT_NEAR(static_cast<double>(count3) / shots, 0.3, 0.02);
}

TEST(StateVector, CollapseRenormalizes) {
  StateVector sv = random_state(5, 11);
  const double p1 = sv.probability_of_one(2);
  ASSERT_GT(p1, 0.01);
  sv.collapse(2, 1);
  EXPECT_NEAR(sv.norm_sq(), 1.0, 1e-12);
  EXPECT_NEAR(sv.probability_of_one(2), 1.0, 1e-12);
}

TEST(StateVector, CollapseZeroProbabilityThrows) {
  StateVector sv(3);  // |000>
  EXPECT_THROW(sv.collapse(0, 1), std::runtime_error);
}

TEST(StateVector, MeasureAndCollapseIsConsistent) {
  Rng rng(13);
  StateVector sv = random_state(4, 13);
  const int outcome = sv.measure_and_collapse(1, rng);
  EXPECT_NEAR(sv.probability_of_one(1), static_cast<double>(outcome), 1e-12);
}

// --- kernel correctness against the dense oracle -----------------------

struct GateCase {
  const char* name;
  Gate gate;
};

class KernelVsOracle : public ::testing::TestWithParam<GateCase> {};

TEST_P(KernelVsOracle, AllThreeSimulatorsMatchDenseOperator) {
  const Gate& g = GetParam().gate;
  const qubit_t n = 5;
  const StateVector in = random_state(n, 1000);
  const StateVector expected = apply_dense(in, g);
  for (const char* name : {"hpc", "qhipster-like", "liquid-like"}) {
    StateVector sv(n);
    std::copy(in.amplitudes().begin(), in.amplitudes().end(), sv.amplitudes().begin());
    apply_runner(name, sv, g);
    EXPECT_LT(sv.max_abs_diff(expected), 1e-13)
        << GetParam().name << " via " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Gates, KernelVsOracle,
    ::testing::Values(
        GateCase{"X0", circuit::make_gate(GateKind::X, 0)},
        GateCase{"X4", circuit::make_gate(GateKind::X, 4)},
        GateCase{"Y2", circuit::make_gate(GateKind::Y, 2)},
        GateCase{"Z3", circuit::make_gate(GateKind::Z, 3)},
        GateCase{"H1", circuit::make_gate(GateKind::H, 1)},
        GateCase{"S0", circuit::make_gate(GateKind::S, 0)},
        GateCase{"Sdg2", circuit::make_gate(GateKind::Sdg, 2)},
        GateCase{"T4", circuit::make_gate(GateKind::T, 4)},
        GateCase{"Tdg1", circuit::make_gate(GateKind::Tdg, 1)},
        GateCase{"Rx", circuit::make_gate(GateKind::Rx, 2, 0.77)},
        GateCase{"Ry", circuit::make_gate(GateKind::Ry, 3, 1.23)},
        GateCase{"Rz", circuit::make_gate(GateKind::Rz, 1, 2.31)},
        GateCase{"Phase", circuit::make_gate(GateKind::Phase, 0, 0.5)},
        GateCase{"CNOT01", circuit::make_controlled(GateKind::X, 0, 1)},
        GateCase{"CNOT40", circuit::make_controlled(GateKind::X, 4, 0)},
        GateCase{"CR", circuit::make_controlled(GateKind::Phase, 2, 4, 1.1)},
        GateCase{"CRz", circuit::make_controlled(GateKind::Rz, 3, 0, 0.9)},
        GateCase{"CH", circuit::make_controlled(GateKind::H, 1, 3)},
        GateCase{"Toffoli", circuit::make_toffoli(0, 2, 4)},
        GateCase{"Swap03", circuit::make_swap(0, 3)},
        GateCase{"Swap41", circuit::make_swap(4, 1)}),
    [](const ::testing::TestParamInfo<GateCase>& info) { return info.param.name; });

TEST(Kernels, ControlledSwapMatchesOracle) {
  Gate g = circuit::make_swap(1, 3);
  g.controls = {0};
  const StateVector in = random_state(5, 2000);
  const StateVector expected = apply_dense(in, g);
  for (const char* name : {"hpc", "qhipster-like", "liquid-like"}) {
    StateVector sv(5);
    std::copy(in.amplitudes().begin(), in.amplitudes().end(), sv.amplitudes().begin());
    apply_runner(name, sv, g);
    EXPECT_LT(sv.max_abs_diff(expected), 1e-13) << name;
  }
}

TEST(Kernels, MultiControlledGateMatchesOracle) {
  Gate g = circuit::make_gate(GateKind::H, 2);
  g.controls = {0, 1, 4};
  const StateVector in = random_state(5, 3000);
  const StateVector expected = apply_dense(in, g);
  StateVector sv(5);
  std::copy(in.amplitudes().begin(), in.amplitudes().end(), sv.amplitudes().begin());
  apply_runner("hpc", sv, g);
  EXPECT_LT(sv.max_abs_diff(expected), 1e-13);
}

// --- whole-circuit equivalence -----------------------------------------

class SimulatorEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorEquivalence, RandomCircuitsAgreeAcrossSimulators) {
  Rng rng(GetParam());
  const qubit_t n = 7;
  const Circuit c = circuit::random_circuit(n, 60, rng);
  StateVector a = random_state(n, GetParam() + 1);
  StateVector b(n), d(n);
  std::copy(a.amplitudes().begin(), a.amplitudes().end(), b.amplitudes().begin());
  std::copy(a.amplitudes().begin(), a.amplitudes().end(), d.amplitudes().begin());
  run_runner("hpc", a, c);
  run_runner("qhipster-like", b, c);
  run_runner("liquid-like", d, c);
  EXPECT_LT(a.max_abs_diff(b), 1e-12);
  EXPECT_LT(a.max_abs_diff(d), 1e-12);
  EXPECT_NEAR(a.norm_sq(), 1.0, 1e-11);  // unitarity preserved
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorEquivalence, ::testing::Range<std::uint64_t>(1, 9));

class CircuitVsDense : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CircuitVsDense, SimulatorMatchesDenseUnitaryProduct) {
  // Whole-circuit oracle: the simulator's state equals the product of
  // the gates' dense operators applied by matvec (paper Eq. 3 chained).
  Rng rng(GetParam() * 11);
  const qubit_t n = 5;
  const Circuit c = circuit::random_circuit(n, 30, rng);
  const linalg::Matrix u = c.to_matrix_reference();
  const StateVector in = random_state(n, GetParam() * 13);
  StateVector expected(n);
  u.matvec(in.amplitudes(), expected.amplitudes());
  StateVector sv(n);
  std::copy(in.amplitudes().begin(), in.amplitudes().end(), sv.amplitudes().begin());
  run_runner("hpc", sv, c);
  EXPECT_LT(sv.max_abs_diff(expected), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CircuitVsDense, ::testing::Range<std::uint64_t>(1, 7));

TEST(Simulators, EntangleProducesGhz) {
  const qubit_t n = 6;
  StateVector sv(n);
  run_runner("hpc", sv, circuit::entangle(n));
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(sv[0]), inv_sqrt2, 1e-13);
  EXPECT_NEAR(std::abs(sv[dim(n) - 1]), inv_sqrt2, 1e-13);
  for (index_t i = 1; i + 1 < dim(n); ++i) EXPECT_EQ(sv[i], complex_t{});
}

TEST(Simulators, BellStateViaHAndCnot) {
  StateVector sv(2);
  Circuit c(2);
  c.h(0).cnot(0, 1);
  run_runner("hpc", sv, c);
  EXPECT_NEAR(std::abs(sv[0]), 1.0 / std::sqrt(2.0), 1e-14);
  EXPECT_NEAR(std::abs(sv[3]), 1.0 / std::sqrt(2.0), 1e-14);
  EXPECT_EQ(sv[1], complex_t{});
  EXPECT_EQ(sv[2], complex_t{});
}

TEST(Simulators, RunRejectsMismatchedQubits) {
  StateVector sv(3);
  const Circuit c = circuit::entangle(4);
  EXPECT_THROW(sim::apply_circuit_hpc(sv.amplitudes(), c), std::invalid_argument);
}

TEST(FillRandomSlabs, PartitionIndependent) {
  // Generating [0, 2^12) in one window must equal generating it in four.
  const index_t size = index_t{1} << 12;
  aligned_vector<complex_t> whole(size);
  fill_random_slabs<double>(whole, 0, 123);
  aligned_vector<complex_t> parts(size);
  const index_t quarter = size / 4;
  for (int q = 0; q < 4; ++q)
    fill_random_slabs<double>({parts.data() + q * quarter, quarter}, q * quarter, 123);
  for (index_t i = 0; i < size; ++i) EXPECT_EQ(whole[i], parts[i]);
}

}  // namespace
}  // namespace qc::sim
