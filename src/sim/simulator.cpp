#include "sim/simulator.hpp"

#include <stdexcept>

namespace qc::sim {

using circuit::Gate;
using circuit::GateKind;

index_t control_mask(const Gate& g) {
  index_t m = 0;
  for (qubit_t c : g.controls) m = bits::set(m, c);
  return m;
}

kernels::U2 target_block(const Gate& g) {
  if (g.kind == GateKind::Swap) throw std::invalid_argument("target_block: SWAP has no 2x2 block");
  const linalg::Matrix m = gate_block_matrix(g);
  return {m(0, 0), m(0, 1), m(1, 0), m(1, 1)};
}

std::pair<complex_t, complex_t> diagonal_entries(const Gate& g) {
  if (!g.diagonal()) throw std::invalid_argument("diagonal_entries: gate is not diagonal");
  const linalg::Matrix m = gate_block_matrix(g);
  return {m(0, 0), m(1, 1)};
}

template <typename T>
void apply_gate_generic(std::span<basic_complex_t<T>> a, qubit_t n, const Gate& g,
                        bool parallel) {
  using C = basic_complex_t<T>;
  if (g.kind == GateKind::Swap) {
    // Lower SWAP to three CNOTs through the generic kernel — what an
    // unspecialized simulator does.
    const qubit_t qa = g.targets[0], qb = g.targets[1];
    const index_t cmask = control_mask(g);
    const kernels::U2T<T> x{C{}, C{T{1}}, C{T{1}}, C{}};
    kernels::apply_generic_masked<T>(a, n, qb, cmask | (index_t{1} << qa), x, parallel);
    kernels::apply_generic_masked<T>(a, n, qa, cmask | (index_t{1} << qb), x, parallel);
    kernels::apply_generic_masked<T>(a, n, qb, cmask | (index_t{1} << qa), x, parallel);
    return;
  }
  kernels::apply_generic_masked<T>(a, n, g.targets[0], control_mask(g),
                                   kernels::u2_cast<T>(target_block(g)), parallel);
}

template void apply_gate_generic<float>(std::span<basic_complex_t<float>>, qubit_t,
                                        const Gate&, bool);
template void apply_gate_generic<double>(std::span<basic_complex_t<double>>, qubit_t,
                                         const Gate&, bool);

template <typename T>
void apply_gate_hpc(std::span<basic_complex_t<T>> a, qubit_t n, const Gate& g, bool parallel) {
  using C = basic_complex_t<T>;
  const index_t cmask = control_mask(g);
  if (g.kind == GateKind::Swap) {
    kernels::apply_swap<T>(a, n, g.targets[0], g.targets[1], cmask, parallel);
    return;
  }
  const qubit_t t = g.targets[0];
  if (g.kind == GateKind::X) {
    kernels::apply_x<T>(a, n, t, cmask, parallel);
    return;
  }
  if (g.diagonal()) {
    const auto [d0, d1] = diagonal_entries(g);
    kernels::apply_diagonal<T>(a, n, t, static_cast<C>(d0), static_cast<C>(d1), cmask, parallel);
    return;
  }
  kernels::apply_folded<T>(a, n, t, cmask, kernels::u2_cast<T>(target_block(g)), parallel);
}

template void apply_gate_hpc<float>(std::span<basic_complex_t<float>>, qubit_t, const Gate&,
                                    bool);
template void apply_gate_hpc<double>(std::span<basic_complex_t<double>>, qubit_t, const Gate&,
                                     bool);

template <typename T>
void apply_circuit_hpc(std::span<basic_complex_t<T>> a, const circuit::Circuit& c) {
  if (a.size() != dim(c.qubits()))
    throw std::invalid_argument("apply_circuit_hpc: circuit and state widths differ");
  for (const Gate& g : c.gates()) apply_gate_hpc<T>(a, c.qubits(), g);
}

template void apply_circuit_hpc<float>(std::span<basic_complex_t<float>>, const circuit::Circuit&);
template void apply_circuit_hpc<double>(std::span<basic_complex_t<double>>,
                                        const circuit::Circuit&);

}  // namespace qc::sim
