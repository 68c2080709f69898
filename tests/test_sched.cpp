// Tests for the cache-blocked execution layer (src/sched): the sweep
// scheduler's partitioning/coverage invariants, the qubit-swap kernel,
// the serial chunk-local kernels, and randomized agreement between the
// "cached" and "hpc" backends across qubit counts, chunk widths, and
// high-qubit workloads that plan as Global items.
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

/// `sub` (on k qubits) placed on the TOP k qubits of an n-qubit register.
Circuit on_top_qubits(const Circuit& sub, qubit_t n) {
  const qubit_t k = sub.qubits();
  std::vector<qubit_t> mapping(k);
  for (qubit_t i = 0; i < k; ++i) mapping[i] = n - k + i;
  Circuit c(n);
  c.compose_mapped(sub, mapping);
  return c;
}

/// A QFT acting only on the TOP `k` qubits of an n-qubit register: with
/// a chunk of at most n - k qubits every op is global.
Circuit high_qubit_qft(qubit_t n, qubit_t k) { return on_top_qubits(circuit::qft(k), n); }

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

TEST(Schedule, AllLowCircuitIsOneSweep) {
  Rng rng(3);
  // Gates confined to qubits [0, 6) of a 12-qubit register, chunk 2^8.
  const Circuit c = circuit::random_dense_circuit(6, 60, rng).widened(12);
  ScheduleOptions opts;
  opts.chunk_width = 8;
  const BlockedPlan plan = schedule(fuse::fuse_circuit(c, {}), opts);
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
  EXPECT_EQ(plan.globals(), 0u);
}

TEST(Schedule, HighQubitRunBecomesGlobalsAtItsQubits) {
  // Every op of a run on the top 6 of 12 qubits lies above a 6-qubit
  // chunk: each becomes one Global item, at the qubits it names.
  const fuse::FusedCircuit fc = fuse::fuse_circuit(high_qubit_qft(12, 6), {});
  ScheduleOptions opts;
  opts.chunk_width = 6;
  const BlockedPlan plan = schedule(fc, opts);
  EXPECT_EQ(plan.sweeps(), 0u) << plan.to_string();
  ASSERT_EQ(plan.globals(), fc.items.size());
  for (std::size_t i = 0; i < fc.items.size(); ++i) {
    const ChunkOp& op = plan.items[i].global;
    EXPECT_EQ(op.source_index, i);
    if (fc.items[i].kind == fuse::FusedItem::Kind::Block) {
      EXPECT_EQ(op.qubits, fc.items[i].block.qubits) << "op " << i;
    } else {
      EXPECT_EQ(op.gate.targets, fc.items[i].gate.targets) << "op " << i;
      EXPECT_EQ(op.gate.controls, fc.items[i].gate.controls) << "op " << i;
    }
  }
}

TEST(Schedule, LoneHighOpStaysGlobalInsteadOfRemapping) {
  // One high-qubit gate amid a long already-low run: the scheduler must
  // emit the high op as a single global pass and sweep the rest.
  Rng rng(13);
  Circuit c(12);
  c.h(11);
  c.compose(circuit::random_dense_circuit(3, 90, rng).widened(12));
  ScheduleOptions opts;
  opts.chunk_width = 6;
  const BlockedPlan plan = schedule(fuse::fuse_circuit(c, {}), opts);
  EXPECT_EQ(plan.globals(), 1u) << plan.to_string();
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

/// Runs a random program through apply_gate_hpc in both modes, with an
/// extra control folded into about half the gates so the controlled
/// dense, SWAP and doubly-controlled paths run too. The two modes must
/// agree, and both must match the unspecialized tier. (Agree to
/// rounding, not bit for bit: the compiler may fuse a complex product's
/// multiply-add differently in the OpenMP loop and the plain one.)
template <typename T>
void expect_gate_modes_agree(qubit_t n, std::uint64_t seed, double tol) {
  Rng rng(seed);
  const Circuit c = circuit::random_circuit(n, 80, rng);
  sim::BasicStateVector<T> par(n);
  par.randomize_deterministic(seed);
  sim::BasicStateVector<T> ser = par, ref = par;
  for (Gate g : c.gates()) {
    if (rng.uniform_u64(2) == 0) {
      const auto q = static_cast<qubit_t>(rng.uniform_u64(n));
      if (std::find(g.targets.begin(), g.targets.end(), q) == g.targets.end() &&
          std::find(g.controls.begin(), g.controls.end(), q) == g.controls.end())
        g.controls.push_back(q);
    }
    sim::apply_gate_hpc<T>(par.amplitudes(), n, g, /*parallel=*/true);
    sim::apply_gate_hpc<T>(ser.amplitudes(), n, g, /*parallel=*/false);
    sim::apply_gate_generic<T>(ref.amplitudes(), n, g, /*parallel=*/false);
  }
  EXPECT_LT(par.max_abs_diff(ser), tol) << "n=" << n << " fp" << 8 * sizeof(T);
  EXPECT_LT(par.max_abs_diff(ref), tol) << "n=" << n << " fp" << 8 * sizeof(T);
}

TEST(SerialKernels, MatchParallelOnRandomGates) {
  // n = 16 forks every kernel's parallel loop and puts targets above the
  // 2^12-amplitude run segments.
  for (const qubit_t n : {8u, 16u}) {
    expect_gate_modes_agree<double>(n, 21 + n, 1e-12);
    expect_gate_modes_agree<float>(n, 21 + n, 1e-5);
  }
}

/// apply_multi and apply_multi_diagonal in both modes, k = 1..7, on
/// n = 12 + k qubits so the parallel mode really forks.
template <typename T>
void expect_multi_modes_agree(double tol) {
  using C = basic_complex_t<T>;
  Rng rng(31);
  for (qubit_t k = 1; k <= 7; ++k) {
    const qubit_t n = 12 + k;
    const linalg::Matrix um = linalg::Matrix::random_unitary(dim(k), rng);
    std::vector<C> u(um.rows() * um.cols()), d(dim(k));
    for (std::size_t i = 0; i < u.size(); ++i) u[i] = static_cast<C>(um.data()[i]);
    for (std::size_t i = 0; i < d.size(); ++i)
      d[i] = static_cast<C>(std::polar(1.0, 0.7 * static_cast<double>(i)));
    std::vector<qubit_t> targets;
    for (qubit_t q = 0; q < k; ++q) targets.push_back(2 * q + (k % 2));
    sim::BasicStateVector<T> a(n);
    a.randomize_deterministic(40 + k);
    sim::BasicStateVector<T> b = a;
    for (const bool parallel : {true, false}) {
      auto& sv = parallel ? a : b;
      sim::kernels::apply_multi<T>(sv.amplitudes(), n, targets, u, parallel);
      sim::kernels::apply_multi_diagonal<T>(sv.amplitudes(), n, targets, d, parallel);
    }
    EXPECT_LT(a.max_abs_diff(b), tol) << "k=" << k << " fp" << 8 * sizeof(T);
  }
}

TEST(SerialKernels, MultiSerialMatchesParallel) {
  expect_multi_modes_agree<double>(1e-13);
  expect_multi_modes_agree<float>(1e-5);
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

TEST(PerfModel, RemapProfitableAtRankLevel) {
  // An exchange pass (~2 chunk exchanges: itself plus its share of the
  // restore) pays when the exchanges it saves strictly exceed that.
  EXPECT_FALSE(models::remap_profitable(0));
  EXPECT_FALSE(models::remap_profitable(2));
  EXPECT_TRUE(models::remap_profitable(3));
  EXPECT_TRUE(models::remap_profitable(100));
  // The threshold it sets through the planner: k gates on the top qubit
  // of a 9-qubit state, all non-local at the start. Each gate moved
  // local avoids one chunk exchange, so 3 is the first count that pays.
  const auto top_run = [](std::size_t k) {
    Circuit c(9);
    for (std::size_t r = 0; r < k; ++r) c.rx(8, 0.1 * static_cast<double>(r + 1));
    return c;
  };
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
    // A random circuit, a random run on the top 4 qubits and the full
    // QFT cascade: sweep-heavy and Global-heavy plans at each width.
    const Circuit circuits[] = {circuit::random_circuit(n, 20 * n, rng),
                                on_top_qubits(circuit::random_circuit(4, 40, rng), n),
                                circuit::qft(n)};
    for (const Circuit& c : circuits) {
      for (qubit_t chunk : {qubit_t{5}, qubit_t{8}, static_cast<qubit_t>(n + 4)}) {
        engine::RunOptions opts;
        opts.sched.chunk_width = chunk;
        EXPECT_LT(backend_divergence(c, opts, 200 + n), 1e-12)
            << "n=" << n << " chunk=" << chunk << " circuit " << (&c - circuits);
      }
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

TEST(CachedBackend, AgreesOnHighQubitQft) {
  const Circuit c = high_qubit_qft(13, 6);
  engine::RunOptions opts;
  opts.sched.chunk_width = 6;
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
