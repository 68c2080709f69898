// Qubit-permutation helpers for the rank level: dist_schedule()'s
// locality planner (sched/dist_schedule.cpp), which moves the qubits
// the next run of gates touches into each rank's chunk, and the dist
// backend, which carries the reached permutation across segments and
// restores logical order at the end (restore_rounds).
//
// The cache level has no counterpart: schedule() (sched/schedule.hpp)
// never moves a qubit.
#pragma once

#include <array>
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
[[nodiscard]] std::vector<Swaps> restore_rounds(const std::vector<qubit_t>& perm);

}  // namespace qc::sched
