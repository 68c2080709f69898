// Distributed execution planning — the cache scheduler's sweep
// machinery lifted to the cluster level (paper Eq. 6, qHiPSTER's
// local/global qubit split).
//
// A DistStateVector splits n qubits into nl local qubits (each rank's
// 2^nl-amplitude chunk) and n - nl global qubits (the rank bits). Gates
// on local qubits never communicate; a gate targeting a global qubit
// normally pays one pairwise exchange of the whole chunk — the
// 16N/B_net term of Eq. 6, per gate. dist_schedule() plans around that
// cost with the same LocalityPlanner (sched/locality.hpp) the cache
// scheduler uses around DRAM passes, here with the nl local qubits as
// boundary and chunk exchanges as unit:
//
//  * maximal runs of gates whose (remapped) support lies below nl
//    become Local items — an nl-qubit sub-circuit pushed through the
//    regular fusion + cache-blocked sweep pipeline (sched::plan), so
//    every rank executes fused blocks and cache-resident sweeps on its
//    own chunk with zero communication;
//  * when a run of global-qubit gates is coming up, a cost-gated
//    Exchange item (DistStateVector::apply_qubit_swaps — ONE chunk
//    permutation) relocates those qubits into the local block,
//    amortizing a single exchange across the whole run instead of
//    paying one exchange per gate (models::remap_profitable);
//  * gates that stay global run as Gate items through
//    DistStateVector::apply_gate under CommPolicy::Specialized, which
//    skips communication entirely for diagonal targets and unsatisfied
//    global controls.
//
// Every exchange is undone by plan end (restore_rounds): the state
// leaves in logical qubit order, exactly like the cache scheduler's
// restore pass.
#pragma once

#include <string>
#include <vector>

#include "models/perf_model.hpp"
#include "sched/schedule.hpp"
#include "sim/dist_sv.hpp"

namespace qc::sched {

struct DistScheduleOptions {
  /// Fusion options for the rank-local segments.
  fuse::FusionOptions fusion;
  /// Cache-blocking options for the rank-local segments (chunk width is
  /// chosen against the nl-qubit local space; a small chunk's floor
  /// means tiny ranks run their whole chunk as one sweep chunk).
  ScheduleOptions sched;
};

/// One element of the distributed plan, in execution order. Qubit labels
/// in `local` plans and `gate` are *physical* positions under the
/// exchanges committed so far.
struct DistPlanItem {
  enum class Kind {
    Local,     ///< Rank-local fused + cache-blocked plan on the chunk.
    Exchange,  ///< Global<->local qubit exchange (one chunk permutation).
    Gate,      ///< Per-gate fallback (DistStateVector::apply_gate).
  };
  Kind kind = Kind::Local;
  BlockedPlan local;                          ///< Local payload (n = nl).
  Swaps swaps;                                ///< Exchange payload.
  circuit::Gate gate;                         ///< Gate payload.
};

/// The distributed program plus bookkeeping for benches and tests.
struct DistPlan {
  qubit_t n = 0;            ///< Total qubits.
  qubit_t local_qubits = 0; ///< nl: qubits below the rank boundary.
  std::vector<DistPlanItem> items;
  std::size_t source_gates = 0;

  [[nodiscard]] std::size_t locals() const;
  [[nodiscard]] std::size_t exchanges() const;
  [[nodiscard]] std::size_t globals() const;
  /// Source gates captured into Local items (rank-local, comm-free).
  [[nodiscard]] std::size_t local_gates() const;

  /// Human-readable plan summary.
  [[nodiscard]] std::string to_string() const;
};

/// Builds the distributed plan for `c` over an nl-qubit local block.
/// The plan applies the exact same unitary (to rounding).
///
/// Permutation carry (`perm_io`): with the default nullptr the plan is
/// self-contained — it starts from logical qubit order and appends
/// exchange items restoring logical order by plan end. A non-null
/// `perm_io` must hold the current logical->physical qubit permutation
/// (size n); planning starts from it, the final restore is *skipped*,
/// and the permutation the state is left in is written back. This is
/// how the resident dist backend chains gate segments across one
/// Engine::run: each segment picks up where the previous one left the
/// qubits, and the single restore happens at gather time
/// (restore_rounds) instead of once per segment.
[[nodiscard]] DistPlan dist_schedule(const circuit::Circuit& c, qubit_t local_qubits,
                                     const DistScheduleOptions& opts = {},
                                     std::vector<qubit_t>* perm_io = nullptr);

/// Collective: executes a plan on a distributed state (dsv's qubit
/// split must match the plan's). Local items run execute_blocked on the
/// rank's chunk; Exchange items run the one-pass chunk permutation;
/// Gate items run DistStateVector::apply_gate under
/// CommPolicy::Specialized, the policy the plan was costed for. The
/// plan is precision-agnostic — the same DistPlan runs on an fp32 or
/// fp64 state. Instantiated for float/double.
template <typename T>
void run_dist_plan(sim::BasicDistStateVector<T>& dsv, const DistPlan& plan);

/// Predicted execution cost of a plan in model seconds: Local items
/// charge their blocked memory passes over the chunk, Exchange items
/// one chunk permutation, Gate items one pairwise exchange when the
/// (physical) target is a rank bit and the gate is not diagonal —
/// i.e. the same units the plan was scheduled in. The checkpoint
/// policy (models::checkpoint_due) accumulates this over the segments
/// since the last checkpoint to price a replay.
[[nodiscard]] double predicted_seconds(const DistPlan& plan, const models::MachineParams& m);

}  // namespace qc::sched
