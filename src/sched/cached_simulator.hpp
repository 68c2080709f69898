// The cache-blocked executor behind the "cached" backend and the gate
// segments of "auto" (engine/backend.cpp wraps it in the precision
// adapter).
//
// plan() lowers a circuit through fuse::fuse_circuit (the "fused"
// backend's pass, at a narrower width cap), then through
// sched::schedule. execute_blocked() runs any BlockedPlan:
//
//  * Sweep items walk the state vector chunk by chunk (2^L amplitudes,
//    L = plan.chunk_width) and apply every op of the sweep to a chunk
//    while it is cache resident — one `omp parallel` region over chunks
//    per sweep, serial chunk-local kernels inside. This replaces the
//    one-full-DRAM-pass-per-block of an unblocked plan with one pass per
//    sweep (paper §4: the simulation is bandwidth bound, so fewer state
//    traversals is the whole game).
//  * Remap items relocate high qubits into the low block in one
//    transposition pass (kernels::apply_qubit_swaps).
//  * Global items (ops wider than a chunk, or not worth remapping) run
//    as ordinary full-vector kernels. A plan of Globals only
//    (sched::global_plan) is the "fused" backend.
//
// Iterative callers pay fusion + scheduling once: plan() then
// execute_blocked() as often as needed.
#pragma once

#include <span>

#include "circuit/circuit.hpp"
#include "fuse/fusion.hpp"
#include "sched/schedule.hpp"

namespace qc::sched {

/// The "cached" pipeline's plan for `c`: fusion at
/// min(fusion.max_width, opts.max_block_width) — the full-pass saving
/// that justifies wide blocks does not apply inside a chunk-resident
/// sweep — then schedule().
[[nodiscard]] BlockedPlan plan(const circuit::Circuit& c, const fuse::FusionOptions& fusion = {},
                               const ScheduleOptions& opts = {});

/// Executes a blocked plan on a raw amplitude array of 2^plan.n
/// amplitudes. This is the single-node executor of every fused backend
/// and the rank-local entry point of the distributed executor (each rank
/// runs its chunk's plan on dist_sv's local window). The plan itself
/// stays double precision; executing at T = float narrows each op's
/// payload once, outside the chunk loop. Instantiated for float/double.
template <typename T>
void execute_blocked(std::span<basic_complex_t<T>> a, const BlockedPlan& plan);

}  // namespace qc::sched
