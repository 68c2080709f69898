#include "sched/schedule.hpp"

#include <algorithm>
#include <numeric>
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
using fuse::FusedOp;

index_t item_support(const FusedItem& it) {
  if (it.kind == FusedItem::Kind::Block) {
    index_t m = 0;
    for (qubit_t q : it.block.qubits) m = bits::set(m, q);
    return m;
  }
  return gate_support(it.gate);
}

/// Builds a ChunkOp from a fused block under the current permutation.
/// A remap can change the *relative* order of the block's qubits, in
/// which case the unitary/diagonal is re-permuted at plan time so kernel
/// local bit m still matches the m-th ascending physical target.
ChunkOp remap_block(const FusedOp& op, const std::vector<qubit_t>& perm,
                    std::size_t source_index) {
  const auto k = static_cast<qubit_t>(op.qubits.size());
  ChunkOp out;
  out.kind = op.diagonal ? ChunkOp::Kind::Diagonal : ChunkOp::Kind::Dense;
  out.gate_count = op.gate_count;
  out.source_index = source_index;
  std::vector<qubit_t> phys(k);
  for (qubit_t l = 0; l < k; ++l) phys[l] = perm[op.qubits[l]];
  std::vector<qubit_t> order(k);
  std::iota(order.begin(), order.end(), qubit_t{0});
  std::sort(order.begin(), order.end(), [&](qubit_t x, qubit_t y) { return phys[x] < phys[y]; });
  out.qubits.resize(k);
  bool identity = true;
  for (qubit_t m = 0; m < k; ++m) {
    out.qubits[m] = phys[order[m]];
    identity = identity && order[m] == m;
  }
  if (identity) {
    if (op.diagonal) {
      out.diag = op.diag;
    } else {
      out.unitary = op.unitary;
    }
    return out;
  }
  // Basis map: kernel index b (bit m <-> physical out.qubits[m]) selects
  // the original local index whose bit order[m] equals bit m of b.
  const index_t block = dim(k);
  std::vector<index_t> map(block);
  for (index_t b = 0; b < block; ++b) {
    index_t orig = 0;
    for (qubit_t m = 0; m < k; ++m)
      if (bits::test(b, m)) orig = bits::set(orig, order[m]);
    map[b] = orig;
  }
  if (op.diagonal) {
    out.diag.resize(block);
    for (index_t b = 0; b < block; ++b) out.diag[b] = op.diag[map[b]];
  } else {
    out.unitary = linalg::Matrix(block, block);
    for (index_t r = 0; r < block; ++r)
      for (index_t c = 0; c < block; ++c) out.unitary(r, c) = op.unitary(map[r], map[c]);
  }
  return out;
}

ChunkOp remap_item(const FusedItem& it, const std::vector<qubit_t>& perm, std::size_t idx) {
  if (it.kind == FusedItem::Kind::Block) return remap_block(it.block, perm, idx);
  ChunkOp out;
  out.kind = ChunkOp::Kind::Gate;
  out.gate = relabel(it.gate, perm);
  out.gate_count = 1;
  out.source_index = idx;
  return out;
}

}  // namespace

std::size_t BlockedPlan::sweeps() const {
  std::size_t total = 0;
  for (const PlanItem& it : items) total += it.kind == PlanItem::Kind::Sweep;
  return total;
}

std::size_t BlockedPlan::remaps() const {
  std::size_t total = 0;
  for (const PlanItem& it : items) total += it.kind == PlanItem::Kind::Remap;
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
      << " sweeps holding " << chunk_ops() << " ops, " << remaps() << " remaps, " << globals()
      << " globals)\n";
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
      case PlanItem::Kind::Remap:
        out << "  remap";
        for (const auto& s : it.swaps) out << " " << s[0] << "<->" << s[1];
        out << "\n";
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
  const std::vector<qubit_t> identity = identity_perm(fc.n);
  plan.items.resize(fc.items.size());
  for (std::size_t i = 0; i < fc.items.size(); ++i) {
    plan.items[i].kind = PlanItem::Kind::Global;
    plan.items[i].global = remap_item(fc.items[i], identity, i);
  }
  return plan;
}

BlockedPlan schedule(const FusedCircuit& fc, const ScheduleOptions& opts) {
  obs::Span plan_span("sched.plan");
  BlockedPlan plan;
  plan.n = fc.n;
  plan.chunk_width = choose_chunk_width(fc.n, opts);
  plan.source_ops = fc.items.size();
  const qubit_t chunk_w = plan.chunk_width;

  std::vector<index_t> masks(fc.items.size());
  std::vector<qubit_t> widths(fc.items.size());
  for (std::size_t i = 0; i < fc.items.size(); ++i) {
    masks[i] = item_support(fc.items[i]);
    widths[i] = static_cast<qubit_t>(bits::popcount(masks[i]));
  }
  LocalityPlanner planner(chunk_w, std::move(masks), identity_perm(fc.n), "sched.remap_decision");

  std::vector<ChunkOp> sweep;
  const auto flush = [&] {
    if (sweep.empty()) return;
    PlanItem& item = plan.items.emplace_back();
    item.kind = PlanItem::Kind::Sweep;
    item.ops = std::exchange(sweep, {});
  };
  // Closes the open sweep, then appends an item of `kind`.
  const auto push = [&](PlanItem::Kind kind) -> PlanItem& {
    flush();
    PlanItem& item = plan.items.emplace_back();
    item.kind = kind;
    return item;
  };

  for (std::size_t i = 0; i < fc.items.size(); ++i) {
    if (planner.local(i)) {
      sweep.push_back(remap_item(fc.items[i], planner.perm(), i));
      continue;
    }
    // One full pass for an op that fits a chunk but lies outside the low
    // block. The op being decided pays one either way — its own global
    // pass, or the sweep a remap opens for it — so a remap's saving
    // counts the ops it makes chunk-local, minus one.
    const auto passes = [&](std::size_t j, const std::vector<qubit_t>& p) -> std::size_t {
      return widths[j] <= chunk_w && (j == i || !planner.local(j, p));
    };
    if (Swaps swaps = planner.remap(i, passes); !swaps.empty()) {
      push(PlanItem::Kind::Remap).swaps = std::move(swaps);
      sweep.push_back(remap_item(fc.items[i], planner.perm(), i));
    } else {
      push(PlanItem::Kind::Global).global = remap_item(fc.items[i], planner.perm(), i);
    }
  }
  flush();
  // Undo all remaps so the state leaves in logical qubit order.
  for (Swaps& swaps : restore_rounds(planner.perm()))
    push(PlanItem::Kind::Remap).swaps = std::move(swaps);
  if (obs::enabled()) {
    plan_span.arg("source_ops", static_cast<double>(plan.source_ops));
    plan_span.arg("items", static_cast<double>(plan.items.size()));
    plan_span.arg("chunk_width", static_cast<double>(plan.chunk_width));
  }
  return plan;
}

}  // namespace qc::sched
