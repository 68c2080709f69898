// Tests for the cache-blocked execution layer (src/sched): the sweep
// scheduler's partitioning/coverage invariants, the qubit-remap
// machinery (swap kernel, unitary re-permutation, restore-to-identity),
// the serial chunk-local kernels, and randomized agreement between the
// "cached" and "hpc" backends across qubit counts, chunk widths,
// and remap-triggering workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <numbers>
#include <set>

#include "circuit/builders.hpp"
#include "engine/backend.hpp"
#include "models/perf_model.hpp"
#include "sched/cached_simulator.hpp"
#include "sched/dist_schedule.hpp"
#include "sim/kernels.hpp"
#include "sim/simulator.hpp"

namespace qc::sched {
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

/// max_abs_diff between the "cached" backend's executor (the blocked
/// plan under `opts`) and "hpc" on `c`, from a random state.
double backend_divergence(const Circuit& c, const engine::RunOptions& opts,
                          std::uint64_t seed) {
  sim::StateVector a = random_state(c.qubits(), seed);
  sim::StateVector b = copy_state(a);
  sim::apply_circuit_hpc(a.amplitudes(), c);
  sched::execute_blocked<double>(b.amplitudes(), sched::plan(c, opts.fusion, opts.sched));
  return a.max_abs_diff(b);
}

/// A QFT acting only on the TOP `k` qubits of an n-qubit register: every
/// gate has all-high support, so no op is chunk-local until the
/// scheduler remaps the high qubits into the low block.
Circuit high_qubit_qft(qubit_t n, qubit_t k) {
  std::vector<qubit_t> mapping(k);
  for (qubit_t i = 0; i < k; ++i) mapping[i] = n - k + i;
  Circuit c(n);
  c.compose_mapped(circuit::qft(k), mapping);
  return c;
}

// --- chunk width selection ---------------------------------------------

TEST(ChooseChunkWidth, ExplicitWidthClampedToState) {
  ScheduleOptions opts;
  opts.chunk_width = 14;
  EXPECT_EQ(choose_chunk_width(20, opts), 14u);
  EXPECT_EQ(choose_chunk_width(8, opts), 8u);  // chunk >= state: one chunk
}

TEST(ChooseChunkWidth, AutoFitsCacheBudget) {
  ScheduleOptions opts;  // 1 MiB default = 2^16 amplitudes
  const qubit_t w = choose_chunk_width(26, opts);
  EXPECT_LE(dim(w) * sizeof(complex_t), opts.cache_bytes);
  EXPECT_GE(w, 10u);
  EXPECT_EQ(choose_chunk_width(6, opts), 6u);  // never wider than the state
}

// --- scheduler invariants ----------------------------------------------

TEST(Schedule, CoversEveryFusedOpExactlyOnceInOrder) {
  Rng rng(7);
  const Circuit c = circuit::random_circuit(10, 120, rng);
  const fuse::FusedCircuit fc = fuse::fuse_circuit(c, {});
  ScheduleOptions opts;
  opts.chunk_width = 5;
  const BlockedPlan plan = schedule(fc, opts);
  std::vector<std::size_t> seen;
  for (const PlanItem& item : plan.items) {
    if (item.kind == PlanItem::Kind::Sweep)
      for (const ChunkOp& op : item.ops) seen.push_back(op.source_index);
    if (item.kind == PlanItem::Kind::Global) seen.push_back(item.global.source_index);
  }
  ASSERT_EQ(seen.size(), fc.items.size());
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], i) << "fused op executed out of order or more than once";
  EXPECT_EQ(plan.source_ops, fc.items.size());
}

TEST(Schedule, AllLowCircuitIsOneSweepNoRemaps) {
  Rng rng(3);
  // Gates confined to qubits [0, 6) of a 12-qubit register, chunk 2^8.
  const Circuit c = circuit::random_dense_circuit(6, 60, rng).widened(12);
  ScheduleOptions opts;
  opts.chunk_width = 8;
  const BlockedPlan plan = schedule(fuse::fuse_circuit(c, {}), opts);
  EXPECT_EQ(plan.remaps(), 0u);
  EXPECT_EQ(plan.globals(), 0u);
  EXPECT_EQ(plan.sweeps(), 1u);
  EXPECT_EQ(plan.passes(), 1u) << plan.to_string();
}

TEST(Schedule, ChunkAtLeastStateIsOneSweep) {
  Rng rng(4);
  const Circuit c = circuit::random_circuit(9, 80, rng);
  ScheduleOptions opts;
  opts.chunk_width = 20;  // wider than the 9-qubit state
  const BlockedPlan plan = schedule(fuse::fuse_circuit(c, {}), opts);
  EXPECT_EQ(plan.chunk_width, 9u);
  EXPECT_EQ(plan.sweeps(), 1u);
  EXPECT_EQ(plan.remaps(), 0u);
}

TEST(Schedule, HighQubitRunTriggersRemapAndRestores) {
  const Circuit c = high_qubit_qft(12, 6);
  ScheduleOptions opts;
  opts.chunk_width = 6;
  const BlockedPlan plan = schedule(fuse::fuse_circuit(c, {}), opts);
  EXPECT_GE(plan.remaps(), 2u) << plan.to_string();  // remap in + restore
  // Far fewer passes than one per op: the remapped ops share sweeps.
  EXPECT_LT(plan.passes(), plan.source_ops + 2);
}

TEST(Schedule, LoneHighOpStaysGlobalInsteadOfRemapping) {
  // One high-qubit gate amid a long already-low run: a remap would add
  // passes (remap + restore) without making anything new chunk-local,
  // so the scheduler must emit the high op as a single global pass.
  Rng rng(13);
  Circuit c(12);
  c.h(11);
  c.compose(circuit::random_dense_circuit(3, 90, rng).widened(12));
  ScheduleOptions opts;
  opts.chunk_width = 6;
  const BlockedPlan plan = schedule(fuse::fuse_circuit(c, {}), opts);
  EXPECT_EQ(plan.remaps(), 0u) << plan.to_string();
  EXPECT_EQ(plan.globals(), 1u);
}

TEST(Schedule, WideGateStaysGlobal) {
  Circuit c(12);
  for (qubit_t q = 0; q < 6; ++q) c.h(q);
  Gate mcz = circuit::make_gate(GateKind::Z, 11);
  for (qubit_t q = 0; q < 11; ++q) mcz.controls.push_back(q);
  c.append(mcz);  // 12-qubit support: wider than any chunk
  ScheduleOptions opts;
  opts.chunk_width = 6;
  const BlockedPlan plan = schedule(fuse::fuse_circuit(c, {}), opts);
  EXPECT_GE(plan.globals(), 1u) << plan.to_string();
}

TEST(Schedule, DiagonalOnlyCircuitSweepsDiagonalOps) {
  Circuit c(10);
  for (qubit_t q = 0; q < 10; ++q) c.t(q);
  for (qubit_t q = 0; q + 1 < 10; ++q) c.cr(q, q + 1, std::numbers::pi / (2 + q));
  for (qubit_t q = 0; q < 10; ++q) c.rz(q, 0.3 * (q + 1));
  ScheduleOptions opts;
  opts.chunk_width = 10;
  const BlockedPlan plan = schedule(fuse::fuse_circuit(c, {}), opts);
  bool saw_diagonal = false;
  for (const PlanItem& item : plan.items)
    if (item.kind == PlanItem::Kind::Sweep)
      for (const ChunkOp& op : item.ops) saw_diagonal |= op.kind == ChunkOp::Kind::Diagonal;
  EXPECT_TRUE(saw_diagonal) << plan.to_string();
}

// --- kernels -----------------------------------------------------------

TEST(QubitSwapKernel, MatchesSwapGates) {
  const qubit_t n = 10;
  sim::StateVector a = random_state(n, 11);
  sim::StateVector b = copy_state(a);
  const std::vector<std::array<qubit_t, 2>> pairs{{0, 7}, {2, 9}, {3, 5}};
  sim::kernels::apply_qubit_swaps(a.amplitudes(), n, pairs);
  for (const auto& p : pairs)
    sim::apply_gate_hpc<double>(b.amplitudes(), n, circuit::make_swap(p[0], p[1]));
  EXPECT_LT(a.max_abs_diff(b), 1e-14);
}

TEST(QubitSwapKernel, InvolutionRoundTrips) {
  const qubit_t n = 9;
  sim::StateVector a = random_state(n, 12);
  const sim::StateVector orig = copy_state(a);
  const std::vector<std::array<qubit_t, 2>> pairs{{1, 8}, {0, 4}};
  sim::kernels::apply_qubit_swaps(a.amplitudes(), n, pairs);
  EXPECT_GT(a.max_abs_diff(orig), 1e-6);  // actually moved something
  sim::kernels::apply_qubit_swaps(a.amplitudes(), n, pairs);
  EXPECT_LT(a.max_abs_diff(orig), 1e-15);
}

TEST(SerialKernels, MatchParallelOnRandomGates) {
  const qubit_t n = 8;
  Rng rng(21);
  const Circuit c = circuit::random_circuit(n, 60, rng);
  sim::StateVector a = random_state(n, 22);
  sim::StateVector b = copy_state(a);
  for (const Gate& g : c.gates()) {
    sim::apply_gate_hpc<double>(a.amplitudes(), n, g);
    // Serial chunk-local dispatch with the whole state as one chunk.
    const auto span = b.amplitudes();
    const index_t cmask = sim::control_mask(g);
    if (g.kind == GateKind::Swap) {
      sim::kernels::apply_swap_serial(span, n, g.targets[0], g.targets[1], cmask);
    } else if (g.kind == GateKind::X) {
      sim::kernels::apply_x_serial(span, n, g.targets[0], cmask);
    } else if (g.diagonal()) {
      const auto [d0, d1] = sim::diagonal_entries(g);
      sim::kernels::apply_diagonal_serial(span, n, g.targets[0], d0, d1, cmask);
    } else {
      sim::kernels::apply_folded_serial(span, n, g.targets[0], cmask, sim::target_block(g));
    }
  }
  EXPECT_LT(a.max_abs_diff(b), 1e-12);
}

TEST(SerialKernels, MultiSerialMatchesParallel) {
  const qubit_t n = 9;
  Rng rng(31);
  for (qubit_t k = 1; k <= 7; ++k) {
    const linalg::Matrix u = linalg::Matrix::random_unitary(dim(k), rng);
    std::vector<qubit_t> targets;
    for (qubit_t q = 0; q < k; ++q) targets.push_back(q + (k % 2));
    sim::StateVector a = random_state(n, 40 + k);
    sim::StateVector b = copy_state(a);
    const std::span<const complex_t> us{u.data(), u.rows() * u.cols()};
    sim::kernels::apply_multi(a.amplitudes(), n, targets, us);
    sim::kernels::apply_multi_serial(b.amplitudes(), n, targets, us);
    EXPECT_LT(a.max_abs_diff(b), 1e-13) << "k=" << k;
  }
}

// --- fused-plan diagonal hoist (satellite: no alloc in execute) --------

TEST(FusedPlan, DiagonalExtractedAtPlanTime) {
  Circuit c(6);
  for (qubit_t q = 0; q < 4; ++q) c.t(q);
  c.cr(0, 3, 0.5).cz(1, 2);
  const fuse::FusedCircuit fc = fuse::fuse_circuit(c, {});
  bool saw_diag_block = false;
  for (const auto& item : fc.items) {
    if (item.kind != fuse::FusedItem::Kind::Block || !item.block.diagonal) continue;
    saw_diag_block = true;
    ASSERT_EQ(item.block.diag.size(), dim(item.block.width()));
    for (index_t d = 0; d < item.block.diag.size(); ++d)
      EXPECT_EQ(item.block.diag[d], item.block.unitary(d, d));
  }
  EXPECT_TRUE(saw_diag_block);
}

// --- cost model --------------------------------------------------------

TEST(PerfModel, RemapProfitableAtBothLevels) {
  // One rule: a remap (~2 units: itself plus its share of the restore)
  // pays when the units it saves strictly exceed that.
  EXPECT_FALSE(models::remap_profitable(0));
  EXPECT_FALSE(models::remap_profitable(2));
  EXPECT_TRUE(models::remap_profitable(3));
  EXPECT_TRUE(models::remap_profitable(100));
  EXPECT_FALSE(models::remap_profitable(3, 4.0));
  // The thresholds it sets, through both planners: k unfused gates on
  // the top qubit of a 9-qubit state, all non-local at the start.
  const auto top_run = [](std::size_t k) {
    Circuit c(9);
    for (std::size_t r = 0; r < k; ++r) c.rx(8, 0.1 * static_cast<double>(r + 1));
    return c;
  };
  fuse::FusionOptions unfused;
  unfused.max_width = 0;
  ScheduleOptions chunk4;
  chunk4.chunk_width = 4;
  // Cache level: the made-local ops share one sweep pass, so the saving
  // is (made-local - 1) passes and 4 ops is the first count that pays.
  EXPECT_EQ(plan(top_run(3), unfused, chunk4).remaps(), 0u);
  EXPECT_EQ(plan(top_run(4), unfused, chunk4).remaps(), 2u);  // in + restore
  // Rank level: each gate moved local avoids one chunk exchange, so 3
  // avoided exchanges is the first count that pays.
  EXPECT_EQ(dist_schedule(top_run(2), 8, {}).exchanges(), 0u);
  EXPECT_EQ(dist_schedule(top_run(3), 8, {}).exchanges(), 2u);
}

TEST(BlockingModel, PassSecondsScaleWithSizeAndBandwidth) {
  const auto m = models::MachineParams::stampede();
  EXPECT_DOUBLE_EQ(models::t_state_pass_seconds(21, m),
                   2.0 * models::t_state_pass_seconds(20, m));
  EXPECT_DOUBLE_EQ(models::t_blocked_execution_seconds(20, 10, m),
                   10.0 * models::t_state_pass_seconds(20, m));
}

// --- end-to-end agreement ----------------------------------------------

TEST(CachedBackend, AgreesWithHpcAcrossSizesAndChunkWidths) {
  for (qubit_t n = 4; n <= 16; n += 3) {
    Rng rng(100 + n);
    const Circuit c = circuit::random_circuit(n, 20 * n, rng);
    for (qubit_t chunk : {qubit_t{5}, qubit_t{8}, static_cast<qubit_t>(n + 4)}) {
      engine::RunOptions opts;
      opts.sched.chunk_width = chunk;
      EXPECT_LT(backend_divergence(c, opts, 200 + n), 1e-12)
          << "n=" << n << " chunk=" << chunk;
    }
  }
}

TEST(CachedBackend, AgreesAtChunkEqualToOpWidth) {
  // Chunk width exactly the fused-block width: every block fills a whole
  // chunk (the degenerate one-op-per-chunk schedule).
  Rng rng(9);
  const Circuit c = circuit::random_dense_circuit(12, 150, rng);
  engine::RunOptions opts;
  opts.fusion.max_width = 5;
  opts.sched.max_block_width = 5;
  opts.sched.chunk_width = 5;
  EXPECT_LT(backend_divergence(c, opts, 10), 1e-12);
}

TEST(CachedBackend, AgreesOnHighQubitQftWithRemaps) {
  const Circuit c = high_qubit_qft(13, 6);
  engine::RunOptions opts;
  opts.sched.chunk_width = 6;
  const BlockedPlan plan = sched::plan(c, opts.fusion, opts.sched);
  ASSERT_GE(plan.remaps(), 2u) << plan.to_string();
  EXPECT_LT(backend_divergence(c, opts, 77), 1e-12);
}

TEST(CachedBackend, AgreesOnFullQftBothOrders) {
  for (qubit_t n : {qubit_t{10}, qubit_t{13}}) {
    engine::RunOptions opts;
    opts.sched.chunk_width = 7;
    EXPECT_LT(backend_divergence(circuit::qft(n), opts, n), 1e-12);
    EXPECT_LT(backend_divergence(circuit::inverse_qft(n), opts, n + 1), 1e-12);
  }
}

TEST(CachedBackend, AgreesOnDiagonalOnlyCircuit) {
  Circuit c(11);
  for (qubit_t q = 0; q < 11; ++q) c.t(q);
  for (qubit_t q = 0; q + 1 < 11; ++q) c.cr(q, q + 1, 0.2 * (q + 1));
  for (qubit_t q = 0; q < 11; ++q) c.rz(q, 0.15 * (q + 3));
  engine::RunOptions opts;
  opts.sched.chunk_width = 6;
  EXPECT_LT(backend_divergence(c, opts, 42), 1e-12);
}

TEST(CachedBackend, AgreesWithFusionDisabled) {
  Rng rng(19);
  const Circuit c = circuit::random_circuit(10, 80, rng);
  engine::RunOptions opts;
  opts.fusion.max_width = 0;  // every op is a passthrough gate
  opts.sched.chunk_width = 6;
  EXPECT_LT(backend_divergence(c, opts, 20), 1e-12);
}

TEST(CachedBackend, RegisteredInEngineRegistry) {
  const auto names = engine::backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "cached"), names.end());
  EXPECT_EQ(engine::make_backend("cached")->name(), "cached");
}

// --- state vector first-touch init (satellite sanity) ------------------

TEST(StateVectorInit, StartsInZeroBasisState) {
  sim::StateVector sv(13);
  EXPECT_EQ(sv[0], complex_t{1.0});
  EXPECT_NEAR(sv.norm_sq(), 1.0, 1e-15);
  sv.set_basis(5);
  EXPECT_EQ(sv[5], complex_t{1.0});
  EXPECT_EQ(sv[0], complex_t{});
  EXPECT_NEAR(sv.norm_sq(), 1.0, 1e-15);
}

}  // namespace
}  // namespace qc::sched
