// The locality planner both schedulers share: the paper's rule for
// keeping the qubits the next run of gates touches inside the fast
// block, stated once for any boundary.
//
// qHiPSTER's local/global split charges every gate on a global qubit
// one chunk exchange (Eq. 6's 16N/B_net term); the cache scheduler
// charges every op above the chunk width one full memory pass. Both
// answer with the same move — one permutation of disjoint qubit
// transpositions that brings an upcoming run's qubits below the
// boundary — and decide it the same way:
//
//  * a 64-op next-use window from the op being decided;
//  * imports: that op's qubits above the boundary (mandatory), then the
//    window's other non-local qubits, soonest used first;
//  * victims: the local qubits the op does not touch, farthest next use
//    first; an optional import only displaces a qubit used later;
//  * the trial permutation is scored in the level's own unit (its cost
//    summed over the window, before minus after) and taken when
//    models::remap_profitable says the saving pays for the remap.
//
// Each level passes in its per-op cost and the name of the trace
// instant recording the decision: schedule() (sched/schedule.hpp) with
// the chunk width as boundary, memory passes as unit and fused items as
// ops; dist_schedule() (sched/dist_schedule.hpp) with the nl rank-local
// qubits, chunk exchanges and gates.
#pragma once

#include <array>
#include <functional>
#include <string_view>
#include <vector>

#include "circuit/gate.hpp"

namespace qc::sched {

/// Disjoint transpositions of physical positions, applied in one pass.
using Swaps = std::vector<std::array<qubit_t, 2>>;

/// Bit mask of a gate's targets and controls.
[[nodiscard]] index_t gate_support(const circuit::Gate& g);

/// `g` with every qubit label q replaced by perm[q].
[[nodiscard]] circuit::Gate relabel(const circuit::Gate& g, const std::vector<qubit_t>& perm);

/// The identity permutation on n qubits.
[[nodiscard]] std::vector<qubit_t> identity_perm(qubit_t n);

/// Disjoint-transposition rounds returning a state to logical qubit
/// order from `perm` (logical->physical); each round is one pass (a
/// remap, or one chunk permutation via DistStateVector::apply_qubit_swaps).
/// Identity permutations yield zero rounds. Throws std::invalid_argument
/// when `perm` is not a permutation.
[[nodiscard]] std::vector<Swaps> restore_rounds(std::vector<qubit_t> perm);

class LocalityPlanner {
 public:
  /// Cost of op j under a logical->physical permutation, in the level's
  /// unit (memory passes, chunk exchanges).
  using OpCost = std::function<std::size_t(std::size_t j, const std::vector<qubit_t>& perm)>;

  /// `masks[j]` is op j's logical support; physical positions below
  /// `boundary` are local. Planning starts from `perm` (logical ->
  /// physical) and records every scored remap as the `decision` trace
  /// instant (a name that outlives the planner, e.g. a literal). Throws
  /// std::invalid_argument when `perm` is not a permutation.
  LocalityPlanner(qubit_t boundary, std::vector<index_t> masks, std::vector<qubit_t> perm,
                  std::string_view decision);

  /// The current logical->physical permutation.
  [[nodiscard]] const std::vector<qubit_t>& perm() const { return perm_; }
  /// True when all of op j's qubits sit below the boundary under `p`.
  [[nodiscard]] bool local(std::size_t j, const std::vector<qubit_t>& p) const;
  [[nodiscard]] bool local(std::size_t j) const { return local(j, perm_); }

  /// The remap decision for op i, which is not local: the swaps that
  /// make it local, already committed to perm(), or none when it stays
  /// where it is (too wide for the block, or the remap does not pay).
  [[nodiscard]] Swaps remap(std::size_t i, const OpCost& cost);

 private:
  qubit_t boundary_;
  std::vector<index_t> masks_;
  std::vector<qubit_t> perm_, inv_;  ///< Logical->physical and its inverse.
  std::string_view decision_;
};

}  // namespace qc::sched
