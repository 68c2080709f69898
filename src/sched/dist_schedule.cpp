#include "sched/dist_schedule.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

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

  std::vector<index_t> masks(gates.size());
  for (std::size_t i = 0; i < gates.size(); ++i) masks[i] = gate_support(gates[i]);
  // A caller-carried permutation seeds the plan mid-stream.
  if (perm_io != nullptr && perm_io->size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("dist_schedule: perm_io size must equal qubit count");
  LocalityPlanner planner(nl, std::move(masks), perm_io != nullptr ? *perm_io : identity_perm(n));
#if QC_ENABLE_CHECKS
  const std::vector<qubit_t> initial_perm = planner.perm();
#endif
  const auto exchanges = [&](std::size_t j, const std::vector<qubit_t>& p) {
    return exchanges_for(gates[j], p, nl);
  };

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
    } else if (Swaps swaps = planner.remap(i, exchanges); !swaps.empty()) {
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
