#include "sched/verify_plan.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>

#include "common/bits.hpp"

namespace qc::sched {

namespace {

[[noreturn]] void fail(const std::string& what) { throw PlanError("verify_plan: " + what); }

std::string at_item(std::size_t idx) { return " (plan item " + std::to_string(idx) + ")"; }

/// Checks `qs` are strictly ascending, distinct qubits below `n`.
void check_ascending_below(std::span<const qubit_t> qs, qubit_t n, const std::string& ctx) {
  for (std::size_t i = 0; i < qs.size(); ++i) {
    if (qs[i] >= n) fail(ctx + ": qubit " + std::to_string(qs[i]) + " out of range");
    if (i > 0 && qs[i] <= qs[i - 1]) fail(ctx + ": qubits not strictly ascending");
  }
}

void check_gate(const circuit::Gate& g, qubit_t n, const std::string& ctx) {
  std::vector<qubit_t> support(g.targets.begin(), g.targets.end());
  support.insert(support.end(), g.controls.begin(), g.controls.end());
  if (support.empty()) fail(ctx + ": gate with no qubits");
  if (!bits::all_distinct_below(support, n))
    fail(ctx + ": gate qubits not distinct below " + std::to_string(n));
}

void check_chunk_op(const ChunkOp& op, qubit_t width, const std::string& ctx) {
  switch (op.kind) {
    case ChunkOp::Kind::Dense: {
      check_ascending_below(op.qubits, width, ctx + " dense op");
      const index_t block = dim(static_cast<qubit_t>(op.qubits.size()));
      if (op.unitary.rows() != block || op.unitary.cols() != block)
        fail(ctx + ": dense payload is not 2^k x 2^k for its k targets");
      break;
    }
    case ChunkOp::Kind::Diagonal: {
      check_ascending_below(op.qubits, width, ctx + " diagonal op");
      if (op.diag.size() != dim(static_cast<qubit_t>(op.qubits.size())))
        fail(ctx + ": diagonal payload is not 2^k entries for its k targets");
      break;
    }
    case ChunkOp::Kind::Gate:
      check_gate(op.gate, width, ctx);
      break;
  }
  if (op.gate_count == 0) fail(ctx + ": chunk op folds zero source gates");
}

/// Validates a disjoint-transposition set below `n` and applies it to
/// the physical->logical tracking permutation `phys2log`. Disjointness
/// makes the induced amplitude-index map an involution — a bijection —
/// which is what lets the executor apply it race-free in place.
void apply_checked_swaps(std::span<const std::array<qubit_t, 2>> swaps,
                         std::vector<qubit_t>& phys2log, qubit_t n,
                         const std::string& ctx) {
  index_t seen = 0;
  for (const auto& s : swaps) {
    if (s[0] >= n || s[1] >= n) fail(ctx + ": swap position out of range");
    if (s[0] == s[1]) fail(ctx + ": swap pairs a position with itself");
    if (bits::test(seen, s[0]) || bits::test(seen, s[1]))
      fail(ctx + ": swap positions not disjoint (not a bijection)");
    seen = bits::set(bits::set(seen, s[0]), s[1]);
    std::swap(phys2log[s[0]], phys2log[s[1]]);
  }
}

/// Mirrors DistStateVector::apply_qubit_swaps' send/recv schedules and
/// checks byte conservation: for every ordered rank pair, the bytes the
/// sender's schedule posts must equal the bytes the receiver's schedule
/// expects, and each side's totals must balance. Enumerated only for
/// realistic rank counts (the cluster layer is threads-in-one-process).
void check_exchange_bytes(std::span<const std::array<qubit_t, 2>> pairs, qubit_t n,
                          qubit_t nl, const std::string& ctx) {
  std::vector<std::array<qubit_t, 2>> cross;   // {global, local}
  std::vector<std::array<qubit_t, 2>> global_pairs;
  for (const auto& p : pairs) {
    const qubit_t hi = std::max(p[0], p[1]);
    const qubit_t lo = std::min(p[0], p[1]);
    if (hi < nl) continue;  // local-local: no communication
    if (lo < nl) {
      cross.push_back({hi, lo});
    } else {
      global_pairs.push_back({lo, hi});
    }
  }
  if (cross.empty() && global_pairs.empty()) return;
  const auto k = static_cast<qubit_t>(cross.size());
  if (k > 16) fail(ctx + ": more than 16 crossing pairs (executor limit)");
  if (k > nl) fail(ctx + ": more crossing pairs than local qubits (empty sub-blocks)");
  const qubit_t ng = n - nl;
  if (ng > 10) return;  // > 1024 ranks: out of this runtime's regime
  std::sort(cross.begin(), cross.end(),
            [](const auto& a, const auto& b) { return a[1] < b[1]; });

  const int ranks = static_cast<int>(dim(ng));
  const index_t sub_bytes = (dim(nl) >> k) * sizeof(complex_t);
  const index_t blocks = dim(k);
  const auto partner = [&](int rank, index_t key) {
    auto r = static_cast<index_t>(rank);
    for (const auto& p : global_pairs) {
      const qubit_t ba = p[0] - nl, bb = p[1] - nl;
      if (bits::get(r, ba) != bits::get(r, bb)) r ^= bits::bit(ba) | bits::bit(bb);
    }
    for (qubit_t j = 0; j < k; ++j) {
      const qubit_t gbit = cross[j][0] - nl;
      r = bits::test(key, j) ? bits::set(r, gbit) : bits::clear(r, gbit);
    }
    return static_cast<int>(r);
  };

  // sent[{src, dst}] from src's send loop; expected[{dst, src}] from
  // dst's receive loop — independent walks of the same schedule.
  std::map<std::pair<int, int>, index_t> sent, expected;
  for (int r = 0; r < ranks; ++r) {
    for (index_t key = 0; key < blocks; ++key) {
      const int peer = partner(r, key);
      if (peer < 0 || peer >= ranks) fail(ctx + ": exchange partner outside rank space");
      if (peer == r) continue;
      sent[{r, peer}] += sub_bytes;
      expected[{r, peer}] += sub_bytes;  // dst r expects from src peer
    }
  }
  for (const auto& [edge, bytes] : sent) {
    const auto it = expected.find({edge.second, edge.first});
    if (it == expected.end() || it->second != bytes) {
      std::ostringstream msg;
      msg << ctx << ": exchange does not conserve bytes (rank " << edge.first << " sends "
          << bytes << " B to rank " << edge.second << ", which expects "
          << (it == expected.end() ? 0 : it->second) << " B)";
      fail(msg.str());
    }
  }
}

}  // namespace

void verify_plan(const BlockedPlan& plan, std::size_t cache_bytes) {
  if (plan.n == 0) fail("blocked plan on zero qubits");
  if (plan.chunk_width == 0 || plan.chunk_width > plan.n)
    fail("chunk width " + std::to_string(plan.chunk_width) + " outside [1, n]");
  if (cache_bytes != 0 && dim(plan.chunk_width) * sizeof(complex_t) > cache_bytes)
    fail("chunk of 2^" + std::to_string(plan.chunk_width) +
         " amplitudes exceeds the cache budget of " + std::to_string(cache_bytes) + " B");

  // Source coverage: chunk ops in plan order must consume source ops
  // 0, 1, ..., source_ops-1 exactly once each, in order. Together with
  // sweep locality below, this is the executor's correctness argument:
  // chunks partition the index space, every sweep op's support lies
  // inside one chunk, so each op touches every amplitude exactly once.
  std::size_t next_source = 0;
  const auto consume = [&](const ChunkOp& op, const std::string& ctx) {
    if (op.source_index != next_source)
      fail(ctx + ": source op " + std::to_string(op.source_index) +
           " out of order (expected " + std::to_string(next_source) + ")");
    ++next_source;
  };

  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    const PlanItem& item = plan.items[i];
    switch (item.kind) {
      case PlanItem::Kind::Sweep: {
        if (item.ops.empty()) fail("empty sweep" + at_item(i));
        for (const ChunkOp& op : item.ops) {
          // Sweep ops must be chunk-local: support below chunk_width.
          check_chunk_op(op, plan.chunk_width, "sweep" + at_item(i));
          consume(op, "sweep" + at_item(i));
        }
        break;
      }
      case PlanItem::Kind::Global:
        check_chunk_op(item.global, plan.n, "global" + at_item(i));
        consume(item.global, "global" + at_item(i));
        break;
    }
  }
  if (next_source != plan.source_ops)
    fail("plan covers " + std::to_string(next_source) + " of " +
         std::to_string(plan.source_ops) + " source ops");
}

void verify_plan(const DistPlan& plan, std::span<const qubit_t> initial_perm,
                 std::vector<qubit_t>* final_perm) {
  if (plan.n == 0) fail("dist plan on zero qubits");
  if (plan.local_qubits == 0 || plan.local_qubits > plan.n)
    fail("local qubit count outside [1, n]");
  const qubit_t n = plan.n;
  const qubit_t nl = plan.local_qubits;

  // log2phys[q] = physical position of logical qubit q (dist_schedule's
  // `perm`). Track its inverse too so the end state is reportable.
  std::vector<qubit_t> log2phys(n);
  if (initial_perm.empty()) {
    std::iota(log2phys.begin(), log2phys.end(), qubit_t{0});
  } else {
    if (initial_perm.size() != n) fail("initial_perm size does not match qubit count");
    index_t seen = 0;
    for (qubit_t q = 0; q < n; ++q) {
      if (initial_perm[q] >= n || bits::test(seen, initial_perm[q]))
        fail("initial_perm is not a permutation");
      seen = bits::set(seen, initial_perm[q]);
      log2phys[q] = initial_perm[q];
    }
  }
  std::vector<qubit_t> phys2log(n);
  for (qubit_t q = 0; q < n; ++q) phys2log[log2phys[q]] = q;

  std::size_t gates_covered = 0;
  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    const DistPlanItem& item = plan.items[i];
    switch (item.kind) {
      case DistPlanItem::Kind::Local: {
        if (item.local.n != nl)
          fail("local segment not planned on the " + std::to_string(nl) +
               "-qubit local block" + at_item(i));
        verify_plan(item.local);  // recursively: coverage, widths
        for (const PlanItem& it : item.local.items) {
          if (it.kind == PlanItem::Kind::Sweep)
            for (const ChunkOp& op : it.ops) gates_covered += op.gate_count;
          else if (it.kind == PlanItem::Kind::Global)
            gates_covered += it.global.gate_count;
        }
        break;
      }
      case DistPlanItem::Kind::Exchange:
        if (item.swaps.empty()) fail("empty exchange" + at_item(i));
        apply_checked_swaps(item.swaps, phys2log, n, "exchange" + at_item(i));
        check_exchange_bytes(item.swaps, n, nl, "exchange" + at_item(i));
        break;
      case DistPlanItem::Kind::Gate:
        check_gate(item.gate, n, "per-gate item" + at_item(i));
        gates_covered += 1;
        break;
    }
  }
  if (gates_covered != plan.source_gates)
    fail("plan covers " + std::to_string(gates_covered) + " of " +
         std::to_string(plan.source_gates) + " source gates");

  for (qubit_t q = 0; q < n; ++q) log2phys[phys2log[q]] = q;  // rebuild inverse
  if (final_perm != nullptr) {
    *final_perm = log2phys;
    return;
  }
  for (qubit_t q = 0; q < n; ++q)
    if (log2phys[q] != q)
      fail("plan ends with qubits permuted (logical " + std::to_string(q) + " at physical " +
           std::to_string(log2phys[q]) + "); a self-contained plan must restore logical order");
}

}  // namespace qc::sched
