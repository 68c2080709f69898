#include "sched/cached_simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "common/parallel.hpp"
#include "models/perf_model.hpp"
#include "obs/trace.hpp"
#include "sched/verify_plan.hpp"
#include "sim/kernels.hpp"
#include "sim/simulator.hpp"

namespace qc::sched {

namespace {

namespace kernels = sim::kernels;

/// Serial single-gate dispatch on one cache-resident chunk — the same
/// fast-path selection as sim::apply_gate_hpc, minus the OpenMP
/// (the caller parallelizes across chunks).
template <typename T>
void apply_gate_serial(std::span<basic_complex_t<T>> chunk, qubit_t width,
                       const circuit::Gate& g) {
  using C = basic_complex_t<T>;
  const index_t cmask = sim::control_mask(g);
  if (g.kind == circuit::GateKind::Swap) {
    kernels::apply_swap_serial<T>(chunk, width, g.targets[0], g.targets[1], cmask);
    return;
  }
  const qubit_t t = g.targets[0];
  if (g.kind == circuit::GateKind::X) {
    kernels::apply_x_serial<T>(chunk, width, t, cmask);
    return;
  }
  if (g.diagonal()) {
    const auto [d0, d1] = sim::diagonal_entries(g);
    kernels::apply_diagonal_serial<T>(chunk, width, t, static_cast<C>(d0), static_cast<C>(d1),
                                      cmask);
    return;
  }
  kernels::apply_folded_serial<T>(chunk, width, t, cmask,
                                  kernels::u2_cast<T>(sim::target_block(g)));
}

/// A plan op with its dense/diagonal payload narrowed to the execution
/// scalar ONCE, outside the chunk loop (the plan itself stays double
/// precision). For T = double the views alias the plan storage.
template <typename T>
struct TypedOp {
  const ChunkOp* op;
  std::vector<basic_complex_t<T>> unitary, diag;  // storage only when T != double

  explicit TypedOp(const ChunkOp& o) : op(&o) {
    if constexpr (!std::is_same_v<T, double>) {
      if (o.kind == ChunkOp::Kind::Dense) {
        const std::size_t count = o.unitary.rows() * o.unitary.cols();
        unitary.resize(count);
        for (std::size_t i = 0; i < count; ++i)
          unitary[i] = static_cast<basic_complex_t<T>>(o.unitary.data()[i]);
      } else if (o.kind == ChunkOp::Kind::Diagonal) {
        diag.resize(o.diag.size());
        for (std::size_t i = 0; i < o.diag.size(); ++i)
          diag[i] = static_cast<basic_complex_t<T>>(o.diag[i]);
      }
    }
  }

  [[nodiscard]] std::span<const basic_complex_t<T>> unitary_view() const {
    if constexpr (std::is_same_v<T, double>) {
      return {op->unitary.data(), op->unitary.rows() * op->unitary.cols()};
    } else {
      return {unitary.data(), unitary.size()};
    }
  }
  [[nodiscard]] std::span<const basic_complex_t<T>> diag_view() const {
    if constexpr (std::is_same_v<T, double>) {
      return {op->diag.data(), op->diag.size()};
    } else {
      return {diag.data(), diag.size()};
    }
  }
};

template <typename T>
void apply_chunk_op(std::span<basic_complex_t<T>> chunk, qubit_t width, const TypedOp<T>& top) {
  switch (top.op->kind) {
    case ChunkOp::Kind::Dense:
      kernels::apply_multi_serial<T>(chunk, width, top.op->qubits, top.unitary_view());
      return;
    case ChunkOp::Kind::Diagonal:
      kernels::apply_multi_diagonal_serial<T>(chunk, width, top.op->qubits, top.diag_view());
      return;
    case ChunkOp::Kind::Gate:
      apply_gate_serial<T>(chunk, width, top.op->gate);
      return;
  }
}

/// One DRAM pass for the whole sweep: every op applies to a chunk while
/// it is cache resident; parallelism is across chunks.
template <typename T>
void run_sweep(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t chunk_width,
               std::span<const TypedOp<T>> ops) {
  const qubit_t width = std::min(chunk_width, n);
  const index_t chunk_size = dim(width);
  const auto chunks = static_cast<std::int64_t>(dim(n) >> width);
#pragma omp parallel for schedule(static) if (worth_parallelizing(dim(n)) && chunks > 1)
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::span<basic_complex_t<T>> chunk =
        a.subspan(static_cast<index_t>(c) * chunk_size, chunk_size);
    for (const TypedOp<T>& op : ops) apply_chunk_op<T>(chunk, width, op);
  }
}

}  // namespace

BlockedPlan plan(const circuit::Circuit& c, const fuse::FusionOptions& fusion,
                 const ScheduleOptions& opts) {
  fuse::FusionOptions capped = fusion;
  capped.max_width = std::min(capped.max_width, opts.max_block_width);
  return schedule(fuse::fuse_circuit(c, capped), opts);
}

template <typename T>
void execute_blocked(std::span<basic_complex_t<T>> a, const BlockedPlan& plan) {
  if (a.size() != dim(plan.n))
    throw std::invalid_argument("execute_blocked: amplitude count mismatch");
#if QC_ENABLE_CHECKS
  // Debug/sanitizer builds re-verify every plan at the execution
  // boundary: anything that reaches the kernels has proven coverage,
  // bijective remaps and in-budget chunks (see sched/verify_plan.hpp).
  verify_plan(plan);
#endif
  // Each plan item is priced at (multiples of) one full memory pass —
  // t_state_pass_seconds is the prediction every span carries, so the
  // model report can show how far this machine is from the Eq. 6
  // bandwidth term the scheduler traded in. The pass cost follows the
  // execution scalar: an fp32 pass moves half the bytes.
  const double pass_pred =
      obs::enabled() ? models::t_state_pass_seconds(plan.n, {}, sizeof(basic_complex_t<T>)) : 0;
  for (const PlanItem& item : plan.items) {
    switch (item.kind) {
      case PlanItem::Kind::Sweep: {
        obs::Span span("sched.sweep");
        if (obs::enabled()) {
          span.arg("ops", static_cast<double>(item.ops.size()));
          span.arg("pred_s", pass_pred);
        }
        std::vector<TypedOp<T>> typed;
        typed.reserve(item.ops.size());
        for (const ChunkOp& op : item.ops) typed.emplace_back(op);
        run_sweep<T>(a, plan.n, plan.chunk_width, {typed.data(), typed.size()});
        break;
      }
      case PlanItem::Kind::Remap: {
        obs::Span span("sched.remap");
        if (obs::enabled()) {
          span.arg("swaps", static_cast<double>(item.swaps.size()));
          span.arg("pred_s", pass_pred);
        }
        sim::kernels::apply_qubit_swaps<T>(a, plan.n, item.swaps);
        break;
      }
      case PlanItem::Kind::Global: {
        obs::Span span("sched.global");
        if (obs::enabled()) span.arg("pred_s", pass_pred);
        const TypedOp<T> top(item.global);
        if (top.op->kind == ChunkOp::Kind::Dense) {
          sim::kernels::apply_multi<T>(a, plan.n, top.op->qubits, top.unitary_view());
        } else if (top.op->kind == ChunkOp::Kind::Diagonal) {
          sim::kernels::apply_multi_diagonal<T>(a, plan.n, top.op->qubits, top.diag_view());
        } else {
          sim::apply_gate_hpc<T>(a, plan.n, top.op->gate);
        }
        break;
      }
    }
  }
}

template void execute_blocked<float>(std::span<basic_complex_t<float>>, const BlockedPlan&);
template void execute_blocked<double>(std::span<basic_complex_t<double>>, const BlockedPlan&);

}  // namespace qc::sched
