// Static plan verification — the invariant layer under the schedulers.
//
// Both schedulers emit *plans* (BlockedPlan, DistPlan) that a separate
// executor later applies to live amplitudes; a malformed plan corrupts
// the state silently, because every kernel trusts its index arithmetic.
// verify_plan() re-derives the schedulers' correctness argument from the
// plan alone, with no access to the circuit that produced it:
//
//  * coverage: each source op appears as exactly one chunk op, in source
//    order — combined with sweep locality (every sweep op's support
//    below the chunk width) this is the proof that the chunk-partition
//    execution applies every op to every amplitude exactly once, in
//    order;
//  * a dist plan's exchanges are sets of disjoint transpositions (hence
//    bijections on the index space), and the composed permutation
//    returns to the expected order by plan end;
//  * chunk widths stay within the cache budget they were chosen for;
//  * distributed exchange schedules conserve bytes: for every rank pair
//    the bytes one side's send schedule posts equal the bytes the other
//    side's receive schedule expects (re-derived independently from the
//    swap set, mirroring DistStateVector::apply_qubit_swaps).
//
// verify_plan always runs its checks when called (the standalone
// tools/verify_plan entry point works in any build); the *automatic*
// wiring into execute_blocked / dist_schedule is compiled in only under
// QC_ENABLE_CHECKS (Debug and sanitizer builds — see common/check.hpp).
// Violations throw PlanError.
#pragma once

#include <span>
#include <vector>

#include "common/check.hpp"
#include "sched/dist_schedule.hpp"

namespace qc::sched {

/// Thrown by verify_plan on a malformed plan.
struct PlanError : CheckError {
  explicit PlanError(const std::string& what) : CheckError(what) {}
};

/// Verifies a cache-blocked plan. `cache_bytes` != 0 additionally checks
/// the chunk fits the budget it was scheduled against. Throws PlanError.
void verify_plan(const BlockedPlan& plan, std::size_t cache_bytes = 0);

/// Verifies a distributed plan. `initial_perm` is the logical->physical
/// qubit permutation the plan starts from (empty = identity, the
/// self-contained case). With `final_perm` == nullptr the plan must
/// restore `initial_perm`... i.e. end exactly where a self-contained
/// plan ends: logical order. A resident caller (dist_schedule's perm_io
/// chaining) passes `final_perm` to receive the permutation the state is
/// left in instead. Throws PlanError.
void verify_plan(const DistPlan& plan, std::span<const qubit_t> initial_perm = {},
                 std::vector<qubit_t>* final_perm = nullptr);

}  // namespace qc::sched
