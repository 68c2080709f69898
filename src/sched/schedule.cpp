#include "sched/schedule.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "obs/trace.hpp"
#include "sched/locality.hpp"

namespace qc::sched {

namespace {

using fuse::FusedCircuit;
using fuse::FusedItem;

index_t item_support(const FusedItem& it) {
  if (it.kind == FusedItem::Kind::Block) {
    index_t m = 0;
    for (qubit_t q : it.block.qubits) m = bits::set(m, q);
    return m;
  }
  return gate_support(it.gate);
}

/// The plan op of fused item `idx`: its qubits and payload, copied.
ChunkOp chunk_op(const FusedItem& it, std::size_t idx) {
  ChunkOp out;
  out.source_index = idx;
  if (it.kind != FusedItem::Kind::Block) {
    out.kind = ChunkOp::Kind::Gate;
    out.gate = it.gate;
    return out;
  }
  const fuse::FusedOp& op = it.block;
  out.qubits = op.qubits;
  out.gate_count = op.gate_count;
  if (op.diagonal) {
    out.kind = ChunkOp::Kind::Diagonal;
    out.diag = op.diag;
  } else {
    out.kind = ChunkOp::Kind::Dense;
    out.unitary = op.unitary;
  }
  return out;
}

}  // namespace

std::size_t BlockedPlan::sweeps() const {
  std::size_t total = 0;
  for (const PlanItem& it : items) total += it.kind == PlanItem::Kind::Sweep;
  return total;
}

std::size_t BlockedPlan::globals() const {
  std::size_t total = 0;
  for (const PlanItem& it : items) total += it.kind == PlanItem::Kind::Global;
  return total;
}

std::size_t BlockedPlan::chunk_ops() const {
  std::size_t total = 0;
  for (const PlanItem& it : items)
    if (it.kind == PlanItem::Kind::Sweep) total += it.ops.size();
  return total;
}

std::string BlockedPlan::to_string() const {
  std::ostringstream out;
  out << "blocked plan on " << n << " qubits, chunk 2^" << chunk_width << " amplitudes: "
      << passes() << " passes for " << source_ops << " fused ops (" << sweeps()
      << " sweeps holding " << chunk_ops() << " ops, " << globals() << " globals)\n";
  for (const PlanItem& it : items) {
    switch (it.kind) {
      case PlanItem::Kind::Sweep:
        out << "  sweep x" << it.ops.size() << " [";
        for (std::size_t i = 0; i < it.ops.size(); ++i) {
          const ChunkOp& op = it.ops[i];
          out << (i ? " " : "")
              << (op.kind == ChunkOp::Kind::Dense
                      ? "dense"
                      : op.kind == ChunkOp::Kind::Diagonal ? "diag" : "gate");
        }
        out << "]\n";
        break;
      case PlanItem::Kind::Global:
        out << "  global "
            << (it.global.kind == ChunkOp::Kind::Gate ? it.global.gate.to_string()
                                                      : "block x" +
                                                            std::to_string(it.global.gate_count))
            << "\n";
        break;
    }
  }
  return out.str();
}

qubit_t choose_chunk_width(qubit_t n, const ScheduleOptions& opts) {
  if (opts.chunk_width != 0) return std::min<qubit_t>(opts.chunk_width, n);
  const auto amps = static_cast<index_t>(
      std::max<std::size_t>(opts.cache_bytes / sizeof(complex_t), 2));
  qubit_t chunk = bits::log2_floor(amps);
  const int threads = max_threads();
  if (threads > 1) {
    // Shrink (down to a floor) until the cross-chunk loop has at least
    // 4 x threads chunks to balance — including when the whole state
    // fits one cache-sized chunk (n <= chunk), where a single chunk
    // would serialize work the per-op kernels used to parallelize.
    qubit_t want = 0;
    while ((index_t{1} << want) < static_cast<index_t>(4 * threads)) ++want;
    constexpr qubit_t kFloor = 10;  // 2^10 amplitudes: below this the
                                    // per-chunk dispatch overhead wins
    if (n > want && n - want < chunk)
      chunk = std::max<qubit_t>(std::min<qubit_t>(chunk, n - want), kFloor);
  }
  return std::min<qubit_t>(chunk, n);
}

BlockedPlan global_plan(const FusedCircuit& fc) {
  BlockedPlan plan;
  plan.n = fc.n;
  plan.chunk_width = choose_chunk_width(fc.n, {});
  plan.source_ops = fc.items.size();
  plan.items.resize(fc.items.size());
  for (std::size_t i = 0; i < fc.items.size(); ++i) {
    plan.items[i].kind = PlanItem::Kind::Global;
    plan.items[i].global = chunk_op(fc.items[i], i);
  }
  return plan;
}

BlockedPlan schedule(const FusedCircuit& fc, const ScheduleOptions& opts) {
  obs::Span plan_span("sched.plan");
  BlockedPlan plan;
  plan.n = fc.n;
  plan.chunk_width = choose_chunk_width(fc.n, opts);
  plan.source_ops = fc.items.size();
  const index_t global_qubits = ~bits::low_mask(plan.chunk_width);

  std::vector<ChunkOp> sweep;
  const auto flush = [&] {
    if (sweep.empty()) return;
    PlanItem& item = plan.items.emplace_back();
    item.kind = PlanItem::Kind::Sweep;
    item.ops = std::exchange(sweep, {});
  };
  for (std::size_t i = 0; i < fc.items.size(); ++i) {
    if ((item_support(fc.items[i]) & global_qubits) == 0) {
      sweep.push_back(chunk_op(fc.items[i], i));
      continue;
    }
    flush();
    PlanItem& item = plan.items.emplace_back();
    item.kind = PlanItem::Kind::Global;
    item.global = chunk_op(fc.items[i], i);
  }
  flush();
  if (obs::enabled()) {
    plan_span.arg("source_ops", static_cast<double>(plan.source_ops));
    plan_span.arg("items", static_cast<double>(plan.items.size()));
    plan_span.arg("chunk_width", static_cast<double>(plan.chunk_width));
  }
  return plan;
}

}  // namespace qc::sched
