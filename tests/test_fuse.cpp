// Tests for the gate-fusion subsystem: the subset-embedding helpers, the
// k-qubit apply kernels against dense oracles, the fusion pass against
// the gate-product matrix, and the "fused" backend against "hpc" on the
// paper's workloads (QFT, Grover, random circuits).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "circuit/builders.hpp"
#include "engine/backend.hpp"
#include "fuse/fusion.hpp"
#include "sched/cached_simulator.hpp"
#include "sim/kernels.hpp"
#include "sim/simulator.hpp"

namespace qc::fuse {
namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

sim::StateVector random_state(qubit_t n, std::uint64_t seed) {
  sim::StateVector sv(n);
  Rng rng(seed);
  sv.randomize(rng);
  return sv;
}

sim::StateVector copy_state(const sim::StateVector& in) {
  sim::StateVector out(in.qubits());
  std::copy(in.amplitudes().begin(), in.amplitudes().end(), out.amplitudes().begin());
  return out;
}

/// Fully gate-level Grover search (no emulated oracle): the phase oracle
/// is X-conjugation of an (n-1)-controlled Z, the diffusion operator the
/// standard H/X sandwich. The multi-controlled Z has full-register
/// support, so it exercises the fusion pass's passthrough fallback.
Circuit grover_circuit(qubit_t n, index_t marked, int iterations) {
  Circuit c(n);
  for (qubit_t q = 0; q < n; ++q) c.h(q);
  Gate mcz = circuit::make_gate(GateKind::Z, n - 1);
  for (qubit_t q = 0; q + 1 < n; ++q) mcz.controls.push_back(q);
  for (int it = 0; it < iterations; ++it) {
    for (qubit_t q = 0; q < n; ++q)
      if (!bits::test(marked, q)) c.x(q);
    c.append(mcz);
    for (qubit_t q = 0; q < n; ++q)
      if (!bits::test(marked, q)) c.x(q);
    for (qubit_t q = 0; q < n; ++q) c.h(q);
    for (qubit_t q = 0; q < n; ++q) c.x(q);
    c.append(mcz);
    for (qubit_t q = 0; q < n; ++q) c.x(q);
    for (qubit_t q = 0; q < n; ++q) c.h(q);
  }
  return c;
}

/// Runs `c` on `sv` the way the "fused" backend does: the blocked
/// executor on an all-Global plan.
void run_fused(sim::StateVector& sv, const Circuit& c, const FusionOptions& fusion = {}) {
  sched::execute_blocked<double>(sv.amplitudes(), sched::global_plan(fuse_circuit(c, fusion)));
}

/// max_abs_diff between the "fused" and "hpc" executors on `c`.
double backend_divergence(const Circuit& c, const FusionOptions& fusion, std::uint64_t seed) {
  sim::StateVector a = random_state(c.qubits(), seed);
  sim::StateVector b = copy_state(a);
  sim::apply_circuit_hpc(a.amplitudes(), c);
  run_fused(b, c, fusion);
  return a.max_abs_diff(b);
}

// --- embedding helpers -------------------------------------------------

TEST(EmbedOperator, MatchesKroneckerOnLowAndHighQubit) {
  Rng rng(5);
  const linalg::Matrix u = linalg::Matrix::random_unitary(2, rng);
  const linalg::Matrix eye = linalg::Matrix::identity(2);
  const std::vector<qubit_t> both{0, 1};
  const std::vector<qubit_t> low{0}, high{1};
  // Qubit 0 is the least-significant bit, so an operator on qubit 1 is
  // u ⊗ I and on qubit 0 is I ⊗ u in kron's high-bits-first convention.
  EXPECT_LT(linalg::embed_operator(u, high, both).max_abs_diff(u.kron(eye)), 1e-15);
  EXPECT_LT(linalg::embed_operator(u, low, both).max_abs_diff(eye.kron(u)), 1e-15);
}

TEST(EmbedOperator, SubsetIntoThreeQubitsMatchesGateOracle) {
  // Embedding a CNOT block over {0, 2} into {0, 1, 2} must equal the
  // dense gate operator of CNOT(control=2, target=0) on 3 qubits.
  const Gate cnot = circuit::make_controlled(GateKind::X, 2, 0);
  const std::vector<qubit_t> sub{0, 2};
  const std::vector<qubit_t> all{0, 1, 2};
  const linalg::Matrix small = circuit::gate_operator_on(cnot, sub);
  EXPECT_LT(linalg::embed_operator(small, sub, all).max_abs_diff(circuit::gate_operator(cnot, 3)),
            1e-15);
}

TEST(EmbedOperator, RejectsNonSubsetAndBadDimension) {
  const linalg::Matrix u = linalg::Matrix::identity(2);
  const std::vector<qubit_t> sub{3};
  const std::vector<qubit_t> all{0, 1};
  EXPECT_THROW(linalg::embed_operator(u, sub, all), std::invalid_argument);
  const std::vector<qubit_t> two{0, 1};
  EXPECT_THROW(linalg::embed_operator(u, two, two), std::invalid_argument);
}

TEST(GateOperatorOn, RelabelsToLocalQubits) {
  const Gate cr = circuit::make_controlled(GateKind::Phase, 4, 1, 0.77);
  const std::vector<qubit_t> sub{1, 4};
  const Gate local_cr = circuit::make_controlled(GateKind::Phase, 1, 0, 0.77);
  EXPECT_LT(circuit::gate_operator_on(cr, sub).max_abs_diff(circuit::gate_operator(local_cr, 2)),
            1e-15);
  EXPECT_THROW(circuit::gate_operator_on(cr, std::vector<qubit_t>{1, 2}), std::invalid_argument);
}

// --- k-qubit kernels vs dense oracle -----------------------------------

TEST(ApplyMulti, MatchesDenseOperatorOnStridedQubits) {
  const qubit_t n = 6;
  Rng rng(17);
  const linalg::Matrix u = linalg::Matrix::random_unitary(8, rng);
  const std::vector<qubit_t> targets{0, 2, 4};
  std::vector<qubit_t> all(n);
  for (qubit_t q = 0; q < n; ++q) all[q] = q;
  const linalg::Matrix full = linalg::embed_operator(u, targets, all);

  const sim::StateVector in = random_state(n, 18);
  sim::StateVector expected(n);
  full.matvec(in.amplitudes(), expected.amplitudes());

  sim::StateVector got = copy_state(in);
  sim::kernels::apply_multi<double>(got.amplitudes(), n, targets, {u.data(), u.rows() * u.cols()});
  EXPECT_LT(got.max_abs_diff(expected), 1e-13);
}

TEST(ApplyMultiDiagonal, MatchesDenseDiagonal) {
  const qubit_t n = 5;
  const std::vector<qubit_t> targets{1, 3};
  std::vector<complex_t> d{1.0, std::polar(1.0, 0.3), std::polar(1.0, 1.1),
                           std::polar(1.0, -0.6)};
  linalg::Matrix u = linalg::Matrix::diagonal(d);
  std::vector<qubit_t> all(n);
  for (qubit_t q = 0; q < n; ++q) all[q] = q;
  const linalg::Matrix full = linalg::embed_operator(u, targets, all);

  const sim::StateVector in = random_state(n, 19);
  sim::StateVector expected(n);
  full.matvec(in.amplitudes(), expected.amplitudes());

  sim::StateVector got = copy_state(in);
  sim::kernels::apply_multi_diagonal<double>(got.amplitudes(), n, targets, d);
  EXPECT_LT(got.max_abs_diff(expected), 1e-13);
}

// --- fusion pass correctness -------------------------------------------

class PassVsGateProduct : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PassVsGateProduct, FusedMatrixEqualsGateProductMatrix) {
  // Pass correctness oracle: for random small circuits and every fusion
  // width, the fused plan's dense matrix equals the circuit's.
  Rng rng(GetParam());
  const qubit_t n = 3 + static_cast<qubit_t>(GetParam() % 4);  // 3..6 qubits
  const Circuit c = circuit::random_circuit(n, 40, rng);
  const linalg::Matrix expected = c.to_matrix_reference();
  for (qubit_t k = 1; k <= 5; ++k) {
    FusionOptions opts;
    opts.max_width = k;
    const FusedCircuit plan = fuse_circuit(c, opts);
    EXPECT_LT(plan.to_matrix_reference().max_abs_diff(expected), 1e-12)
        << "n=" << n << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassVsGateProduct, ::testing::Range<std::uint64_t>(1, 9));

TEST(FusionPass, EightQubitDenseCircuitMatrixMatches) {
  Rng rng(99);
  const Circuit c = circuit::random_dense_circuit(8, 60, rng);
  const FusedCircuit plan = fuse_circuit(c);
  EXPECT_LT(plan.to_matrix_reference().max_abs_diff(c.to_matrix_reference()), 1e-12);
  EXPECT_GT(plan.fused_gates(), 0u);
}

TEST(FusionPass, PlanBookkeepingIsConsistent) {
  Rng rng(7);
  const qubit_t n = 10;
  const Circuit c = circuit::random_circuit(n, 200, rng);
  FusionOptions opts;
  opts.max_width = 4;
  const FusedCircuit plan = fuse_circuit(c, opts);
  EXPECT_EQ(plan.n, n);
  EXPECT_EQ(plan.source_gates, c.size());
  std::size_t total = 0;
  for (const FusedItem& item : plan.items) {
    if (item.kind == FusedItem::Kind::Block) {
      EXPECT_GE(item.block.gate_count, 2u);  // singletons downgraded
      EXPECT_LE(item.block.width(), opts.max_width);
      EXPECT_TRUE(std::is_sorted(item.block.qubits.begin(), item.block.qubits.end()));
      EXPECT_EQ(item.block.unitary.rows(), dim(item.block.width()));
      EXPECT_LT(item.block.unitary.unitarity_error(), 1e-12);
      total += item.block.gate_count;
    } else {
      total += 1;
    }
  }
  EXPECT_EQ(total, c.size());  // every source gate lands exactly once
  EXPECT_EQ(plan.fused_gates() + (plan.items.size() - plan.blocks()), c.size());
}

TEST(FusionPass, CommutationAwareDiagonalHop) {
  // z0 z1 open a diagonal block on {0,1}; cr(1,2) cannot fit at width 2
  // but commutes (diagonal-diagonal); the final z0 must hop back over it
  // into the first block.
  Circuit c(3);
  c.z(0).z(1).cr(1, 2, 0.5).z(0);
  FusionOptions opts;
  opts.max_width = 2;
  const FusedCircuit plan = fuse_circuit(c, opts);
  EXPECT_EQ(plan.blocks(), 1u);       // {0,1} block; lone CR downgraded
  EXPECT_EQ(plan.fused_gates(), 3u);  // z0, z1, hopped z0
  EXPECT_LT(plan.to_matrix_reference().max_abs_diff(c.to_matrix_reference()), 1e-13);
}

TEST(FusionPass, DisjointSupportHop) {
  // h0 h1 fill a block on {0,1}; h2 h3 fill a second on {2,3} that
  // ry(0) cannot widen at width 2 — but it commutes by disjoint support
  // and must hop back into the first block.
  Circuit c(4);
  c.h(0).h(1).h(2).h(3).ry(0, 0.3);
  FusionOptions opts;
  opts.max_width = 2;
  const FusedCircuit plan = fuse_circuit(c, opts);
  ASSERT_EQ(plan.items.size(), 2u);
  EXPECT_EQ(plan.blocks(), 2u);
  EXPECT_EQ(plan.fused_gates(), 5u);
  ASSERT_EQ(plan.items[0].kind, FusedItem::Kind::Block);
  EXPECT_EQ(plan.items[0].block.gate_count, 3u);  // h0, h1 + hopped ry(0)
  EXPECT_LT(plan.to_matrix_reference().max_abs_diff(c.to_matrix_reference()), 1e-13);
}

TEST(FusionPass, WideGateStaysPassthrough) {
  Circuit c(6);
  Gate mcz = circuit::make_gate(GateKind::Z, 5);
  for (qubit_t q = 0; q < 5; ++q) mcz.controls.push_back(q);
  c.h(0).append(mcz);
  c.h(0);
  const FusedCircuit plan = fuse_circuit(c);  // default width 5 < 6
  std::size_t passthrough_wide = 0;
  for (const FusedItem& item : plan.items)
    if (item.kind == FusedItem::Kind::Passthrough && item.gate.arity() == 6) ++passthrough_wide;
  EXPECT_EQ(passthrough_wide, 1u);
  EXPECT_LT(plan.to_matrix_reference().max_abs_diff(c.to_matrix_reference()), 1e-13);
}

// --- edge cases ---------------------------------------------------------

TEST(FusionPass, EmptyCircuit) {
  const Circuit c(4);
  const FusedCircuit plan = fuse_circuit(c);
  EXPECT_TRUE(plan.items.empty());
  sim::StateVector sv(4);
  run_fused(sv, c);
  EXPECT_EQ(sv[0], complex_t{1.0});
}

TEST(FusionPass, SingleSwapStaysSpecialized) {
  Circuit c(4);
  c.swap(0, 3);
  const FusedCircuit plan = fuse_circuit(c);
  ASSERT_EQ(plan.items.size(), 1u);
  EXPECT_EQ(plan.items[0].kind, FusedItem::Kind::Passthrough);  // singleton downgrade
  EXPECT_LT(backend_divergence(c, {}, 41), 1e-13);
}

TEST(FusionPass, WidthOneFusesOnlyUncontrolledRuns) {
  Rng rng(23);
  const Circuit c = circuit::random_circuit(6, 80, rng);
  FusionOptions opts;
  opts.max_width = 1;
  const FusedCircuit plan = fuse_circuit(c, opts);
  for (const FusedItem& item : plan.items)
    if (item.kind == FusedItem::Kind::Block) EXPECT_EQ(item.block.width(), 1u);
  EXPECT_LT(backend_divergence(c, opts, 24), 1e-12);
}

TEST(FusionPass, DisabledKeepsEveryGate) {
  Rng rng(31);
  const Circuit c = circuit::random_circuit(6, 50, rng);
  FusionOptions opts;
  opts.max_width = 0;
  const FusedCircuit plan = fuse_circuit(c, opts);
  EXPECT_EQ(plan.items.size(), c.size());
  EXPECT_EQ(plan.blocks(), 0u);
  EXPECT_LT(backend_divergence(c, opts, 32), 1e-12);
}

TEST(FusionPass, RejectsWidthBeyondKernelLimit) {
  FusionOptions opts;
  opts.max_width = sim::kernels::kMaxFusedWidth + 1;
  EXPECT_THROW(fuse_circuit(Circuit(2), opts), std::invalid_argument);
}

// --- backend equivalence (the ISSUE's acceptance workloads) -------------

TEST(FusedBackend, MatchesHpcOnQft12) {
  EXPECT_LT(backend_divergence(circuit::qft(12), {}, 101), 1e-12);
}

TEST(FusedBackend, MatchesHpcOnGrover10) {
  const qubit_t n = 10;
  const int iterations = static_cast<int>(
      std::round(std::numbers::pi / 4.0 * std::sqrt(static_cast<double>(dim(n)))));
  const Circuit c = grover_circuit(n, /*marked=*/421, iterations);
  // Start from |0...0> (the algorithm's actual input), not a random state.
  sim::StateVector a(n), b(n);
  sim::apply_circuit_hpc(a.amplitudes(), c);
  run_fused(b, c);
  EXPECT_LT(a.max_abs_diff(b), 1e-12);
  // And the search must actually succeed.
  const auto dist = b.register_distribution(0, n);
  EXPECT_GT(dist[421], 0.9);
}

TEST(FusedBackend, MatchesHpcOnRandom500GateCircuit) {
  Rng rng(55);
  const Circuit c = circuit::random_circuit(12, 500, rng);
  EXPECT_LT(backend_divergence(c, {}, 56), 1e-12);
}

TEST(FusedBackend, MatchesHpcOnDenseCircuitAcrossWidths) {
  // cost_gate off so wide blocks really form and execute — k = 7, 8 pin
  // the heap-scratch generic kernel behind apply_multi's switch.
  Rng rng(60);
  const Circuit c = circuit::random_dense_circuit(10, 200, rng);
  for (qubit_t k = 1; k <= sim::kernels::kMaxFusedWidth; ++k) {
    FusionOptions opts;
    opts.max_width = k;
    opts.cost_gate = false;
    EXPECT_LT(backend_divergence(c, opts, 61 + k), 1e-12) << "k=" << k;
  }
}

TEST(ApplyMulti, GenericWidePathMatchesDenseOracle) {
  // k = 7 exceeds the stack-templated widths and takes apply_multi's
  // generic fallback.
  const qubit_t n = 8;
  Rng rng(87);
  const linalg::Matrix u = linalg::Matrix::random_unitary(128, rng);
  const std::vector<qubit_t> targets{0, 1, 2, 4, 5, 6, 7};
  std::vector<qubit_t> all(n);
  for (qubit_t q = 0; q < n; ++q) all[q] = q;
  const linalg::Matrix full = linalg::embed_operator(u, targets, all);

  const sim::StateVector in = random_state(n, 88);
  sim::StateVector expected(n);
  full.matvec(in.amplitudes(), expected.amplitudes());

  sim::StateVector got = copy_state(in);
  sim::kernels::apply_multi<double>(got.amplitudes(), n, targets, {u.data(), u.rows() * u.cols()});
  EXPECT_LT(got.max_abs_diff(expected), 1e-12);
}

TEST(FusedBackend, FactoryAndPlanReuse) {
  const auto backend = engine::make_backend("fused");
  EXPECT_EQ(backend->name(), "fused");
  const Circuit c = circuit::qft(9);
  backend->begin(9, 71);
  sim::StateVector b(9, 71);
  backend->run_gates(c);
  // One prebuilt all-Global plan executed twice must equal two runs.
  const FusedCircuit fused = fuse_circuit(c);
  EXPECT_GT(fused.fused_gates(), 0u);
  const sched::BlockedPlan plan = sched::global_plan(fused);
  EXPECT_EQ(plan.globals(), fused.items.size());
  sched::execute_blocked<double>(b.amplitudes(), plan);
  backend->run_gates(c);
  sched::execute_blocked<double>(b.amplitudes(), plan);
  EXPECT_LT(backend->take_state().max_abs_diff(b), 1e-12);
}

}  // namespace
}  // namespace qc::fuse
