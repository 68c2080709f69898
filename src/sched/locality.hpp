// The rank-level locality planner behind dist_schedule()
// (sched/dist_schedule.hpp): the paper's rule for keeping the qubits
// the next run of gates touches inside each rank's chunk.
//
// qHiPSTER's local/global split charges every gate on a global qubit
// one chunk exchange (Eq. 6's 16N/B_net term). The answer is one
// permutation of disjoint qubit transpositions that brings an upcoming
// run's qubits below the boundary of nl rank-local qubits, decided as
// follows:
//
//  * a 64-op next-use window from the gate being decided;
//  * imports: that gate's qubits above the boundary (mandatory), then
//    the window's other non-local qubits, soonest used first;
//  * victims: the local qubits the gate does not touch, farthest next
//    use first; an optional import only displaces a qubit used later;
//  * the trial permutation is scored in chunk exchanges (the caller's
//    per-gate cost summed over the window, before minus after) and taken
//    when models::remap_profitable says the saving pays for the remap.
//    Each scored decision is the "sched.exchange_decision" trace
//    instant.
//
// The cache level has no counterpart: schedule() (sched/schedule.hpp)
// never moves a qubit.
#pragma once

#include <array>
#include <functional>
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
/// order from `perm` (logical->physical); each round is one chunk
/// permutation (DistStateVector::apply_qubit_swaps).
/// Identity permutations yield zero rounds. Throws std::invalid_argument
/// when `perm` is not a permutation.
[[nodiscard]] std::vector<Swaps> restore_rounds(std::vector<qubit_t> perm);

class LocalityPlanner {
 public:
  /// Chunk exchanges op j pays under a logical->physical permutation.
  using OpCost = std::function<std::size_t(std::size_t j, const std::vector<qubit_t>& perm)>;

  /// `masks[j]` is op j's logical support; physical positions below
  /// `boundary` are local. Planning starts from `perm` (logical ->
  /// physical). Throws std::invalid_argument when `perm` is not a
  /// permutation.
  LocalityPlanner(qubit_t boundary, std::vector<index_t> masks, std::vector<qubit_t> perm);

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
};

}  // namespace qc::sched
