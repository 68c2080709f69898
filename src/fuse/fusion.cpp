#include "fuse/fusion.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/bits.hpp"
#include "linalg/gemm.hpp"
#include "obs/trace.hpp"
#include "sim/kernels.hpp"

namespace qc::fuse {

namespace {

using circuit::Gate;

/// OR of the gate's target and control bits — the qubit set a fused
/// block must cover to absorb it.
index_t support_mask(const Gate& g) {
  index_t m = 0;
  for (qubit_t t : g.targets) m = bits::set(m, t);
  for (qubit_t c : g.controls) m = bits::set(m, c);
  return m;
}

/// In-construction item: a growing block or a frozen passthrough gate.
struct Builder {
  bool is_block = false;
  index_t support = 0;
  bool diagonal = false;  ///< Full operator diagonal (controls included).
  // Block state (is_block):
  std::vector<qubit_t> qubits;  ///< Ascending.
  linalg::Matrix unitary;
  std::vector<Gate> sources;
  // Passthrough state (!is_block):
  Gate gate;
};

Builder passthrough(const Gate& g) {
  Builder b;
  b.support = support_mask(g);
  b.diagonal = g.diagonal();
  b.gate = g;
  return b;
}

Builder open_block(const Gate& g) {
  Builder b;
  b.is_block = true;
  b.support = support_mask(g);
  b.diagonal = g.diagonal();
  b.qubits = sim::kernels::sorted_bit_positions(b.support);
  b.unitary = circuit::gate_operator_on(g, b.qubits);
  b.sources = {g};
  return b;
}

/// Conservative commutation test between a gate and an earlier item:
/// disjoint supports always commute; so do two operators that are both
/// diagonal in the computational basis (a controlled phase-type gate is
/// fully diagonal — controls only add identity rows).
bool commutes(const Builder& b, index_t gmask, bool gdiag) {
  if ((b.support & gmask) == 0) return true;
  return b.diagonal && gdiag;
}

/// Folds `g` into block `b` (g applied after the block's current
/// contents): widen the block unitary to the union support if needed,
/// then left-multiply the gate's embedded operator via GEMM.
void merge(Builder& b, const Gate& g, index_t gmask) {
  const index_t union_mask = b.support | gmask;
  if (union_mask != b.support) {
    std::vector<qubit_t> wider = sim::kernels::sorted_bit_positions(union_mask);
    b.unitary = linalg::embed_operator(b.unitary, b.qubits, wider);
    b.qubits = std::move(wider);
    b.support = union_mask;
  }
  b.unitary = linalg::gemm(circuit::gate_operator_on(g, b.qubits), b.unitary);
  b.diagonal = b.diagonal && g.diagonal();
  b.sources.push_back(g);
}

// --- cost model --------------------------------------------------------
// Relative time per full-state-vector amplitude, calibrated against
// bench/ablation_fusion on a single-core AVX2 box (dense uncontrolled
// 2x2 sweep == 3.0). Controls divide the touched fraction by 2^c.

/// Predicted cost of one source gate through the "hpc" fast paths
/// (sim::apply_gate_hpc).
double gate_cost(const Gate& g) {
  const auto ctrl = static_cast<double>(index_t{1} << g.controls.size());
  switch (g.kind) {
    case circuit::GateKind::X:
    case circuit::GateKind::Swap:
      return 2.0 / ctrl;  // pure amplitude swap, traffic only
    case circuit::GateKind::Z:
    case circuit::GateKind::S:
    case circuit::GateKind::Sdg:
    case circuit::GateKind::T:
    case circuit::GateKind::Tdg:
    case circuit::GateKind::Phase:
      return 1.2 / ctrl;  // d0 == 1: touches the target=1 half only
    case circuit::GateKind::Rz:
      return 2.4 / ctrl;  // diagonal, but touches both halves
    default:
      return 3.0 / ctrl;  // dense 2x2 pair sweep
  }
}

/// Predicted cost of one fused-block pass. The steep growth past k = 3
/// is the dense 2^k x 2^k mat-vec turning the sweep compute bound.
double block_cost(qubit_t width, bool diagonal) {
  if (diagonal) return 1.5;  // one multiply-only sweep
  constexpr double kDense[] = {0.0, 3.0, 3.5, 5.0, 10.0, 32.0, 64.0, 256.0, 512.0};
#if defined(__FMA__)
  constexpr double kVecPenalty = 1.0;  // calibration build (FMA codegen)
#else
  // Portable (non-FMA) codegen runs the mat-vec ~1.6x slower per flop
  // than the calibration build, so wide blocks must clear a higher bar.
  constexpr double kVecPenalty = 1.6;
#endif
  return width >= 2 ? kDense[width] * kVecPenalty : kDense[width];
}

bool profitable(const Builder& b) {
  double sources = 0.0;
  for (const Gate& g : b.sources) sources += gate_cost(g);
  return block_cost(static_cast<qubit_t>(b.qubits.size()), b.diagonal) <= sources;
}

}  // namespace

std::size_t FusedCircuit::fused_gates() const {
  std::size_t total = 0;
  for (const FusedItem& it : items)
    if (it.kind == FusedItem::Kind::Block) total += it.block.gate_count;
  return total;
}

std::size_t FusedCircuit::blocks() const {
  std::size_t total = 0;
  for (const FusedItem& it : items) total += it.kind == FusedItem::Kind::Block;
  return total;
}

linalg::Matrix FusedCircuit::to_matrix_reference() const {
  std::vector<qubit_t> all(n);
  std::iota(all.begin(), all.end(), qubit_t{0});
  linalg::Matrix u = linalg::Matrix::identity(dim(n));
  for (const FusedItem& it : items) {
    const linalg::Matrix op = it.kind == FusedItem::Kind::Block
                                  ? linalg::embed_operator(it.block.unitary, it.block.qubits, all)
                                  : circuit::gate_operator(it.gate, n);
    u = linalg::gemm(op, u);
  }
  return u;
}

std::string FusedCircuit::to_string() const {
  std::ostringstream out;
  out << "fused plan on " << n << " qubits: " << items.size() << " items from " << source_gates
      << " gates (" << blocks() << " blocks holding " << fused_gates() << " gates)\n";
  for (const FusedItem& it : items) {
    if (it.kind == FusedItem::Kind::Block) {
      out << "  block x" << it.block.gate_count << (it.block.diagonal ? " diag" : "") << " [q:";
      for (std::size_t i = 0; i < it.block.qubits.size(); ++i)
        out << (i ? "," : "") << it.block.qubits[i];
      out << "]\n";
    } else {
      out << "  gate  " << it.gate.to_string() << "\n";
    }
  }
  return out.str();
}

FusedCircuit fuse_circuit(const circuit::Circuit& c, const FusionOptions& opts) {
  if (opts.max_width > sim::kernels::kMaxFusedWidth)
    throw std::invalid_argument("fuse_circuit: max_width exceeds kernel limit");
  // Cost-gated re-fusion recurses through here, so nested fuse.pass
  // spans mark blocks that unwound to a narrower width.
  obs::Span pass_span("fuse.pass");
  FusedCircuit out;
  out.n = c.qubits();
  out.source_gates = c.size();

  std::vector<Builder> seq;
  for (const Gate& g : c.gates()) {
    const index_t gmask = support_mask(g);
    if (static_cast<qubit_t>(bits::popcount(gmask)) > opts.max_width) {
      seq.push_back(passthrough(g));
      continue;
    }
    // Scan backwards for the deepest block this gate can join, hopping
    // only over items it commutes with (so reordering is sound).
    bool merged = false;
    const bool gdiag = g.diagonal();
    for (std::size_t i = seq.size(); i-- > 0;) {
      Builder& b = seq[i];
      if (b.is_block &&
          static_cast<qubit_t>(bits::popcount(b.support | gmask)) <= opts.max_width) {
        merge(b, g, gmask);
        merged = true;
        break;
      }
      if (!commutes(b, gmask, gdiag)) break;
    }
    if (!merged) seq.push_back(open_block(g));
  }

  // Freeze. Single-gate blocks go back to passthrough so the executor's
  // specialized fast paths (diagonal / X / SWAP) keep handling them;
  // cost-gated blocks that would lose to their sources' fast paths are
  // re-fused at the next narrower width (their profitable sub-blocks
  // survive, the rest unwinds to passthrough gates).
  out.items.reserve(seq.size());
  for (Builder& b : seq) {
    if (!b.is_block || b.sources.size() == 1) {
      FusedItem item;
      item.kind = FusedItem::Kind::Passthrough;
      item.gate = b.is_block ? std::move(b.sources.front()) : std::move(b.gate);
      out.items.push_back(std::move(item));
      continue;
    }
    if (opts.cost_gate && !profitable(b)) {
      circuit::Circuit sub(c.qubits());
      for (Gate& g : b.sources) sub.append(std::move(g));
      FusionOptions narrower = opts;
      narrower.max_width = static_cast<qubit_t>(b.qubits.size() - 1);
      FusedCircuit subplan = fuse_circuit(sub, narrower);
      for (FusedItem& item : subplan.items) out.items.push_back(std::move(item));
      continue;
    }
    FusedItem item;
    item.kind = FusedItem::Kind::Block;
    item.block.qubits = std::move(b.qubits);
    item.block.unitary = std::move(b.unitary);
    item.block.gate_count = b.sources.size();
    item.block.diagonal = b.diagonal;
    if (b.diagonal) {
      const index_t block = dim(item.block.width());
      item.block.diag.resize(block);
      for (index_t d = 0; d < block; ++d) item.block.diag[d] = item.block.unitary(d, d);
    }
    out.items.push_back(std::move(item));
  }
  if (obs::enabled()) {
    pass_span.arg("gates_in", static_cast<double>(out.source_gates));
    pass_span.arg("items_out", static_cast<double>(out.items.size()));
  }
  return out;
}

}  // namespace qc::fuse
