// Gate-fusion pass: collapse runs of gates into k-qubit dense unitaries.
//
// The paper's central lesson (and qHiPSTER's, and HPQEA's unified
// GEMM-style apply unit) is that gate application is memory bound: a
// naive simulator pays a full state-vector pass per gate. This pass
// walks a circuit::Circuit and greedily merges consecutive gates whose
// combined target+control support stays within `max_width` qubits into
// one FusedOp — a dense 2^k x 2^k unitary composed via linalg GEMM on
// the small block — so the executor pays ONE memory pass for the whole
// run (sim::kernels::apply_multi).
//
// The merge is commutation-aware: a gate may slide left past earlier
// items it commutes with (disjoint support, or both operators diagonal
// in the computational basis) to join a block it fits into. This is what
// lets the long CR cascades of the QFT fuse across the interleaved
// Hadamards.
//
// Gates whose own support exceeds max_width (e.g. a 10-qubit
// multi-controlled Z) are kept as passthrough items and executed by the
// regular specialized fast paths.
#pragma once

#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "linalg/matrix.hpp"

namespace qc::fuse {

struct FusionOptions {
  /// Maximum qubits per fused block (k). Wider blocks amortize more
  /// memory passes but cost 2^k mat-vec work per amplitude
  /// (bench/ablation_fusion measures the sweep). Must not exceed
  /// sim::kernels::kMaxFusedWidth; 0 disables the pass (every gate
  /// becomes a passthrough item).
  qubit_t max_width = 5;
  /// Keep a block only when the cost model predicts the one-pass dense
  /// apply beats the per-gate fast paths of its sources; unprofitable
  /// blocks are re-fused at the next narrower width. Guards against
  /// shallow wide blocks (few gates over many qubits), whose 2^k
  /// per-amplitude mat-vec would lose to per-gate sweeps.
  bool cost_gate = true;
};

/// A group of source gates collapsed into one dense unitary over the
/// ascending global qubit labels `qubits` (local bit l = qubits[l]).
struct FusedOp {
  std::vector<qubit_t> qubits;
  linalg::Matrix unitary;       ///< 2^k x 2^k, row-major.
  std::size_t gate_count = 0;   ///< Source gates folded into this block.
  bool diagonal = false;        ///< True if every folded gate was diagonal.
  /// The 2^k diagonal of `unitary`, extracted at plan time when
  /// `diagonal` (empty otherwise) — executors apply it directly without
  /// per-block allocation in the hot loop.
  std::vector<complex_t> diag;

  [[nodiscard]] qubit_t width() const noexcept {
    return static_cast<qubit_t>(qubits.size());
  }
};

/// One element of the fused program, in execution order.
struct FusedItem {
  enum class Kind { Block, Passthrough };
  Kind kind = Kind::Passthrough;
  FusedOp block;       ///< Valid when kind == Block.
  circuit::Gate gate;  ///< Valid when kind == Passthrough.
};

/// The fused program plus bookkeeping for benches and tests.
struct FusedCircuit {
  qubit_t n = 0;
  std::vector<FusedItem> items;
  std::size_t source_gates = 0;

  /// Source gates that ended up inside multi-gate blocks — the number of
  /// state-vector passes saved is fused_gates() - blocks().
  [[nodiscard]] std::size_t fused_gates() const;
  /// Number of multi-gate FusedOp blocks.
  [[nodiscard]] std::size_t blocks() const;

  /// Dense 2^n x 2^n oracle (product of the items' embedded operators) —
  /// small-n test oracle mirroring Circuit::to_matrix_reference.
  [[nodiscard]] linalg::Matrix to_matrix_reference() const;

  /// Human-readable plan summary ("block [0 2 3] x12 | gate Swap ...").
  [[nodiscard]] std::string to_string() const;
};

/// Runs the fusion pass. The result applies the exact same unitary as
/// `c` (to rounding); blocks that would hold a single gate are kept as
/// passthrough items so the executor's specialized fast paths stay in
/// charge of lone gates.
[[nodiscard]] FusedCircuit fuse_circuit(const circuit::Circuit& c, const FusionOptions& opts = {});

}  // namespace qc::fuse
