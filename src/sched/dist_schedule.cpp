#include "sched/dist_schedule.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/bits.hpp"
#include "obs/trace.hpp"
#include "sched/cached_simulator.hpp"
#include "sched/verify_plan.hpp"

namespace qc::sched {

namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

/// Chunk exchanges this gate pays when executed per-gate under
/// CommPolicy::Specialized with the given logical->physical permutation
/// — the Eq. 6 unit the exchange pass is traded against. SWAP lowers to
/// three CNOTs inside DistStateVector::apply_gate, each charged by its
/// own (X) target.
std::size_t exchanges_for(const Gate& g, const std::vector<qubit_t>& perm, qubit_t nl) {
  if (g.kind == GateKind::Swap) {
    const bool ga = perm[g.targets[0]] >= nl;
    const bool gb = perm[g.targets[1]] >= nl;
    return 2 * static_cast<std::size_t>(gb) + static_cast<std::size_t>(ga);
  }
  return perm[g.targets[0]] >= nl && !g.diagonal();
}

/// Ops scored per remap decision.
constexpr std::size_t kWindow = 64;
constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

/// The rank-level locality planner: the paper's rule for keeping the
/// qubits the next run of gates touches inside each rank's chunk.
///
/// qHiPSTER's local/global split charges every gate on a global qubit
/// one chunk exchange (Eq. 6's 16N/B_net term). The answer is one
/// permutation of disjoint qubit transpositions that brings an upcoming
/// run's qubits below the nl rank-local qubits, decided as follows:
///
///  * a 64-op next-use window from the gate being decided;
///  * imports: that gate's global qubits (mandatory), then the window's
///    other global qubits, soonest used first;
///  * victims: the local qubits the gate does not touch, farthest next
///    use first; an optional import only displaces a qubit used later;
///  * the trial permutation is scored in chunk exchanges (exchanges_for
///    summed over the window, before minus after) and taken when
///    models::remap_profitable says the saving pays for the remap.
///    Each scored decision is the "sched.exchange_decision" trace
///    instant.
class LocalityPlanner {
 public:
  /// Planning starts from `perm` (logical -> physical), a permutation.
  LocalityPlanner(const std::vector<Gate>& gates, qubit_t nl, std::vector<qubit_t> perm)
      : gates_(gates), nl_(nl), perm_(std::move(perm)) {
    masks_.reserve(gates.size());
    for (const Gate& g : gates) masks_.push_back(gate_support(g));
  }

  /// The current logical->physical permutation.
  [[nodiscard]] const std::vector<qubit_t>& perm() const { return perm_; }

  /// True when all of op j's qubits are rank-local.
  [[nodiscard]] bool local(std::size_t j) const {
    const index_t mask = masks_[j];
    for (qubit_t q = 0; mask >> q; ++q)
      if (bits::test(mask, q) && perm_[q] >= nl_) return false;
    return true;
  }

  /// The remap decision for op i, which is not local: the swaps that
  /// make it local, already committed to perm(), or none when it stays
  /// where it is (too wide for the chunk, or the remap does not pay).
  [[nodiscard]] Swaps remap(std::size_t i);

 private:
  const std::vector<Gate>& gates_;
  qubit_t nl_;
  std::vector<index_t> masks_;  ///< Logical support of each op.
  std::vector<qubit_t> perm_;   ///< Logical -> physical.
};

Swaps LocalityPlanner::remap(std::size_t i) {
  const index_t mask = masks_[i];
  const auto n = static_cast<qubit_t>(perm_.size());
  std::vector<qubit_t> inv(n);  // physical -> logical
  for (qubit_t q = 0; q < n; ++q) inv[perm_[q]] = q;
  const std::size_t window_end = std::min(masks_.size(), i + kWindow);
  std::vector<std::size_t> next_use(n, kNever);
  for (std::size_t j = i; j < window_end; ++j)
    for (qubit_t q = 0; masks_[j] >> q; ++q)
      if (bits::test(masks_[j], q) && next_use[q] == kNever) next_use[q] = j;

  // Imports: the op's own global qubits (mandatory — the op must become
  // local), then the window's remaining global working set, soonest
  // used first, as far as the local slots allow.
  std::vector<qubit_t> imports;
  for (qubit_t q = 0; mask >> q; ++q)
    if (bits::test(mask, q) && perm_[q] >= nl_) imports.push_back(q);
  const std::size_t mandatory = imports.size();
  for (qubit_t q = 0; q < n; ++q)
    if (perm_[q] >= nl_ && next_use[q] != kNever && !bits::test(mask, q))
      imports.push_back(q);
  std::stable_sort(imports.begin() + static_cast<std::ptrdiff_t>(mandatory), imports.end(),
                   [&](qubit_t x, qubit_t y) { return next_use[x] < next_use[y]; });
  // Farthest-next-use victims: evict the local qubits the window touches
  // last (or never).
  std::vector<qubit_t> victims;
  for (qubit_t p = 0; p < nl_; ++p)
    if (!bits::test(mask, inv[p])) victims.push_back(p);
  std::stable_sort(victims.begin(), victims.end(), [&](qubit_t x, qubit_t y) {
    return next_use[inv[x]] > next_use[inv[y]];
  });
  Swaps swaps;
  for (std::size_t s = 0; s < imports.size() && swaps.size() < victims.size(); ++s) {
    const qubit_t victim = victims[swaps.size()];
    // Optional imports only displace a qubit needed later than they are
    // (never trade a sooner-used local qubit for a later global one).
    if (s >= mandatory && next_use[imports[s]] >= next_use[inv[victim]]) break;
    swaps.push_back({perm_[imports[s]], victim});
  }
  // Fewer victims than op qubits to take in: the op is wider than the
  // chunk and stays where it is.
  if (swaps.empty() || swaps.size() < mandatory) return {};

  // The swaps are disjoint, so they commute.
  std::vector<qubit_t> trial = perm_;
  for (const auto& s : swaps) std::swap(trial[inv[s[0]]], trial[inv[s[1]]]);
  // Score only what the remap changes: ops local either way cost the
  // same, and ops the evictions push out count against it.
  std::ptrdiff_t saved = 0;
  for (std::size_t j = i; j < window_end; ++j)
    saved += static_cast<std::ptrdiff_t>(exchanges_for(gates_[j], perm_, nl_)) -
             static_cast<std::ptrdiff_t>(exchanges_for(gates_[j], trial, nl_));
  const bool taken = saved > 0 && models::remap_profitable(static_cast<std::size_t>(saved));
  // The cost-model decision with its inputs, as a trace marker: "why
  // did/didn't it remap here?" is answerable from a trace alone.
  obs::instant("sched.exchange_decision", {{"op", static_cast<double>(i)},
                                           {"saved", static_cast<double>(saved)},
                                           {"taken", taken ? 1.0 : 0.0}});
  if (!taken) return {};
  perm_ = std::move(trial);
  return swaps;
}

}  // namespace

std::size_t DistPlan::locals() const {
  std::size_t total = 0;
  for (const DistPlanItem& it : items) total += it.kind == DistPlanItem::Kind::Local;
  return total;
}

std::size_t DistPlan::exchanges() const {
  std::size_t total = 0;
  for (const DistPlanItem& it : items) total += it.kind == DistPlanItem::Kind::Exchange;
  return total;
}

std::size_t DistPlan::globals() const {
  std::size_t total = 0;
  for (const DistPlanItem& it : items) total += it.kind == DistPlanItem::Kind::Gate;
  return total;
}

std::size_t DistPlan::local_gates() const {
  std::size_t total = 0;
  for (const DistPlanItem& it : items)
    if (it.kind == DistPlanItem::Kind::Local) total += it.local.source_ops;
  return total;
}

std::string DistPlan::to_string() const {
  std::ostringstream out;
  out << "dist plan on " << n << " qubits (" << local_qubits << " local): " << source_gates
      << " gates -> " << locals() << " local segments, " << exchanges() << " exchanges, "
      << globals() << " per-gate globals\n";
  for (const DistPlanItem& it : items) {
    switch (it.kind) {
      case DistPlanItem::Kind::Local:
        out << "  local x" << it.local.source_ops << " fused ops (" << it.local.passes()
            << " chunk passes)\n";
        break;
      case DistPlanItem::Kind::Exchange:
        out << "  exchange";
        for (const auto& s : it.swaps) out << " " << s[0] << "<->" << s[1];
        out << "\n";
        break;
      case DistPlanItem::Kind::Gate:
        out << "  gate " << it.gate.to_string() << "\n";
        break;
    }
  }
  return out.str();
}

DistPlan dist_schedule(const Circuit& c, qubit_t local_qubits,
                       const DistScheduleOptions& opts, std::vector<qubit_t>* perm_io) {
  const qubit_t n = c.qubits();
  const qubit_t nl = local_qubits;
  if (nl == 0 || nl > n)
    throw std::invalid_argument("dist_schedule: local qubits must be in [1, n]");
  obs::Span plan_span("sched.dist_plan");
  DistPlan plan;
  plan.n = n;
  plan.local_qubits = nl;
  plan.source_gates = c.size();
  const auto& gates = c.gates();

  // A caller-carried permutation seeds the plan mid-stream.
  std::vector<qubit_t> perm = identity_perm(n);
  if (perm_io != nullptr) {
    if (!std::is_permutation(perm_io->begin(), perm_io->end(), perm.begin(), perm.end()))
      throw std::invalid_argument("dist_schedule: perm_io must be a permutation of the qubits");
    perm = *perm_io;
  }
#if QC_ENABLE_CHECKS
  const std::vector<qubit_t> initial_perm = perm;
#endif
  LocalityPlanner planner(gates, nl, std::move(perm));

  // Rank-local gate run, accumulated until a global gate interrupts it,
  // then pushed through the regular fusion + cache-blocking pipeline.
  Circuit segment(nl);
  const auto flush = [&] {
    if (segment.empty()) return;
    DistPlanItem& item = plan.items.emplace_back();
    item.kind = DistPlanItem::Kind::Local;
    item.local = sched::plan(std::exchange(segment, Circuit(nl)), opts.fusion, opts.sched);
  };
  // Closes the open local run, then appends an item of `kind`.
  const auto push = [&](DistPlanItem::Kind kind) -> DistPlanItem& {
    flush();
    DistPlanItem& item = plan.items.emplace_back();
    item.kind = kind;
    return item;
  };

  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (planner.local(i)) {
      segment.append(relabel(gates[i], planner.perm()));
    } else if (Swaps swaps = planner.remap(i); !swaps.empty()) {
      push(DistPlanItem::Kind::Exchange).swaps = std::move(swaps);
      segment.append(relabel(gates[i], planner.perm()));
    } else {
      // Per-gate fallback: apply_gate handles global targets/controls
      // (diagonal targets and unsatisfied controls stay comm-free).
      push(DistPlanItem::Kind::Gate).gate = relabel(gates[i], planner.perm());
    }
  }
  flush();

  if (perm_io == nullptr) {
    // Undo all exchanges so the state leaves in logical qubit order;
    // each round is one chunk permutation. A resident caller (perm_io)
    // instead carries the reached order forward — the single restore
    // happens at gather time.
    for (Swaps& swaps : restore_rounds(planner.perm()))
      push(DistPlanItem::Kind::Exchange).swaps = std::move(swaps);
  } else {
    *perm_io = planner.perm();
  }
  if (obs::enabled()) {
    plan_span.arg("gates", static_cast<double>(plan.source_gates));
    plan_span.arg("locals", static_cast<double>(plan.locals()));
    plan_span.arg("exchanges", static_cast<double>(plan.exchanges()));
    plan_span.arg("per_gate", static_cast<double>(plan.globals()));
  }
#if QC_ENABLE_CHECKS
  // Debug/sanitizer builds verify every plan before handing it out, and
  // cross-check the verifier's replayed permutation against the
  // scheduler's own bookkeeping (see sched/verify_plan.hpp).
  if (perm_io == nullptr) {
    verify_plan(plan);
  } else {
    std::vector<qubit_t> replayed;
    verify_plan(plan, initial_perm, &replayed);
    QC_CHECK_MSG(replayed == planner.perm(),
                 "dist_schedule: plan replay disagrees with perm_io");
  }
#endif
  return plan;
}

template <typename T>
void run_dist_plan(sim::BasicDistStateVector<T>& dsv, const DistPlan& plan) {
  if (dsv.qubits() != plan.n || dsv.local_qubits() != plan.local_qubits)
    throw std::invalid_argument("run_dist_plan: qubit split mismatch");
  obs::Span plan_run_span("dist.plan");
  for (const DistPlanItem& item : plan.items) {
    switch (item.kind) {
      case DistPlanItem::Kind::Local: {
        // Rank-local cache-blocked execution: the sched.sweep spans this
        // emits nest inside it, giving the trace its fourth level.
        obs::Span span("dist.local");
        if (obs::enabled())
          span.arg("ops", static_cast<double>(item.local.source_ops));
        execute_blocked<T>(dsv.local(), item.local);
        break;
      }
      case DistPlanItem::Kind::Exchange:
        // dsv emits its own "dist.exchange_pass" span (with bytes).
        dsv.apply_qubit_swaps(item.swaps);
        break;
      case DistPlanItem::Kind::Gate: {
        obs::Span span("dist.gate");
        dsv.apply_gate(item.gate, sim::CommPolicy::Specialized);
        break;
      }
    }
  }
}

template void run_dist_plan<float>(sim::BasicDistStateVector<float>&, const DistPlan&);
template void run_dist_plan<double>(sim::BasicDistStateVector<double>&, const DistPlan&);

double predicted_seconds(const DistPlan& plan, const models::MachineParams& m) {
  const qubit_t nl = plan.local_qubits;
  double total = 0;
  for (const DistPlanItem& item : plan.items) {
    switch (item.kind) {
      case DistPlanItem::Kind::Local:
        total += models::t_blocked_execution_seconds(nl, item.local.passes(), m);
        break;
      case DistPlanItem::Kind::Exchange:
        total += models::t_chunk_exchange_seconds(nl, m);
        break;
      case DistPlanItem::Kind::Gate:
        // Physical labels: a rank-bit target pays one pairwise exchange
        // unless diagonal (comm-free under the Specialized policy).
        if (item.gate.targets[0] >= nl && !item.gate.diagonal())
          total += models::t_chunk_exchange_seconds(nl, m);
        else
          total += models::t_state_pass_seconds(nl, m);
        break;
    }
  }
  return total;
}

}  // namespace qc::sched
