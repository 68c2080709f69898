// The per-gate runners behind the three gate-level simulators benchmarked
// in the paper's §4.5 (registered as engine backends, see README's
// backend table):
//
//  * apply_gate_hpc — "our simulator" ("hpc"): control-folded
//    enumeration, diagonal and NOT fast paths, native SWAP kernel. This
//    is the baseline the emulator's speedups are measured against (so
//    those speedups are not artifacts of a slow simulator — the point of
//    the paper's Figs. 4-6).
//
//  * apply_gate_generic, parallel — stands in for qHiPSTER
//    ("qhipster-like"): a well-parallelized but unspecialized simulator.
//    Every gate runs through the generic masked 2x2 pair kernel (full
//    read+write of the state vector even for diagonal gates); SWAP is
//    lowered to three CNOTs.
//
//  * apply_gate_generic, serial — stands in for LIQUi|> ("liquid-like"):
//    the same generic kernel, single-threaded. LIQUi|> is closed-source
//    .NET, so this models "correct but unspecialized, non-parallel"
//    rather than reproducing it.
//
// All three produce identical states to 1e-12 on identical circuits;
// the test suite enforces it.
#pragma once

#include <span>
#include <utility>

#include "circuit/circuit.hpp"
#include "sim/kernels.hpp"
#include "sim/state_vector.hpp"

namespace qc::sim {

/// OR of the control bits of a gate.
[[nodiscard]] index_t control_mask(const circuit::Gate& g);

/// The 2x2 target block of a non-SWAP gate as a kernel U2.
[[nodiscard]] kernels::U2 target_block(const circuit::Gate& g);

/// Diagonal entries (d0, d1) of a diagonal gate's target block.
[[nodiscard]] std::pair<complex_t, complex_t> diagonal_entries(const circuit::Gate& g);

/// The "hpc" specialized single-gate dispatch on a raw amplitude array
/// (2^n amplitudes) — also how a blocked plan's Global gate items run,
/// on the full vector or a rank's local chunk. Templated on the amplitude scalar;
/// the (double-precision) gate block is narrowed once per gate, not per
/// amplitude. No width check: `g` must act within n qubits.
template <typename T>
void apply_gate_hpc(std::span<basic_complex_t<T>> a, qubit_t n, const circuit::Gate& g);

/// Applies every gate of `c`, in order, through apply_gate_hpc: "apply
/// this circuit to my state", and the executor behind the "hpc" backend.
/// Throws std::invalid_argument unless `a` holds 2^c.qubits() amplitudes.
template <typename T>
void apply_circuit_hpc(std::span<basic_complex_t<T>> a, const circuit::Circuit& c);

/// The unspecialized per-gate dispatch (the qhipster-/liquid-like tier)
/// on a raw amplitude array: every gate through the generic masked 2x2
/// kernel, SWAP lowered to three CNOTs. `parallel` selects OpenMP. No
/// width check: `g` must act within n qubits.
template <typename T>
void apply_gate_generic(std::span<basic_complex_t<T>> a, qubit_t n, const circuit::Gate& g,
                        bool parallel);

}  // namespace qc::sim
