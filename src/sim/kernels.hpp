// Gate-application kernels on raw amplitude arrays.
//
// Three tiers:
//
//  * generic_masked — the unspecialized kernel: traverses every
//    (target=0, target=1) amplitude pair, checks the control mask per
//    pair, and performs the full 2x2 complex multiply even for diagonal
//    or permutation gates. "liquid-like" uses it single-threaded,
//    "qhipster-like" with OpenMP (the paper's §4.5 baselines).
//
//  * folded / diagonal / x / swap fast paths — "our simulator":
//    enumerate only the amplitudes a gate actually changes. A controlled
//    phase shift touches a quarter of the state vector (the paper's §3.2
//    counts exactly this), a NOT is a pure swap with zero flops, and
//    controls fold into the index enumeration instead of a per-pair
//    branch.
//
//  * k-qubit dense / diagonal blocks — the executors of fuse/'s fused
//    blocks: one memory sweep for a whole run of gates.
//
// Every kernel has one body and takes its mode as `bool parallel`:
// true opens an OpenMP region (full-vector callers: the per-gate
// backends, a plan's Global items, a rank's local gates); false runs
// serially, for the cache-blocked sweep (qc::sched), which parallelizes
// across chunks and calls the kernels on one cache-resident chunk
// (a, n = chunk width) from inside that region.
//
// Every kernel is templated on the real amplitude scalar T in
// {float, double}: fp64 is the reference, fp32 halves the bytes each
// sweep moves (the paper's figure of merit is bandwidth, §4.2). The
// dense k-qubit blocks for k = 1..5 (the uncontrolled 2x2 gate among
// them), the diagonal k-qubit blocks and the 1-qubit diagonal's run
// scale are further routed through runtime-dispatched SIMD
// microkernels (kernels_dispatch.hpp), so one portable binary still
// saturates AVX2 / AVX-512 hosts; at the scalar tier they run the plain
// loops in kernels.cpp, which are also the reference.
//
// All kernels are race-free under OpenMP: iteration index j maps to a
// unique amplitude (pair), so static scheduling partitions memory
// disjointly.
#pragma once

#include <array>
#include <cassert>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "common/types.hpp"

namespace qc::sim::kernels {

/// Dense 2x2 unitary block, row-major, over real scalar T.
template <typename T>
struct U2T {
  basic_complex_t<T> m00, m01, m10, m11;
};

/// Double-precision alias — the default across the non-templated API.
using U2 = U2T<double>;

/// Converts a 2x2 block between amplitude precisions (planning stays
/// fp64; executors narrow the block once per gate, not per amplitude).
template <typename T>
constexpr U2T<T> u2_cast(const U2& u) noexcept {
  if constexpr (std::is_same_v<T, double>) {
    return u;
  } else {
    return U2T<T>{static_cast<basic_complex_t<T>>(u.m00), static_cast<basic_complex_t<T>>(u.m01),
                  static_cast<basic_complex_t<T>>(u.m10), static_cast<basic_complex_t<T>>(u.m11)};
  }
}

/// The sanctioned way to view a run of complex amplitudes as interleaved
/// {re, im} scalar pairs (amplitude j at planes[2j], planes[2j + 1]).
/// [complex.numbers.general]/4 guarantees this array compatibility: for
/// an array a of std::complex<T>, reinterpret_cast<T*>(a)[2j]
/// and [2j + 1] designate the real and imaginary parts of a[j]. The
/// vectorized kernels use it to operate on contiguous runs; every
/// complex->scalar reinterpretation in the codebase must go through this
/// accessor so the (single, standard-blessed) aliasing assumption is
/// written down exactly once.
template <typename T>
inline T* real_imag_planes(basic_complex_t<T>* c) noexcept {
  return reinterpret_cast<T*>(c);
}

template <typename T>
inline const T* real_imag_planes(const basic_complex_t<T>* c) noexcept {
  return reinterpret_cast<const T*>(c);
}

/// Expands a compressed index to a full basis index by re-inserting 0
/// bits at the given (ascending) positions. Enumerating j in
/// [0, 2^{n-k}) and expanding visits every index whose k special bits
/// are 0 exactly once.
class BitExpander {
 public:
  BitExpander() = default;

  /// `positions` must be strictly ascending qubit labels; more than
  /// index_t has bits throws std::length_error in every build.
  explicit BitExpander(std::span<const qubit_t> positions) : count_(positions.size()) {
    if (positions.size() > pos_.size())
      throw std::length_error("BitExpander: more positions than index bits");
    for (std::size_t i = 0; i < positions.size(); ++i) pos_[i] = positions[i];
  }

  [[nodiscard]] index_t operator()(index_t j) const noexcept {
    index_t r = j;
    for (std::size_t i = 0; i < count_; ++i) r = bits::insert_bit(r, pos_[i]);
    return r;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }

 private:
  std::array<qubit_t, std::numeric_limits<index_t>::digits> pos_{};
  std::size_t count_ = 0;
};

/// Sorted list of the set bits of `mask` plus optionally extra bits.
std::vector<qubit_t> sorted_bit_positions(index_t mask, std::initializer_list<qubit_t> extra = {});

// ---------------------------------------------------------------------
// Unspecialized tier.
// ---------------------------------------------------------------------

/// Full pair traversal with per-pair control check and dense 2x2 math.
/// `parallel` selects OpenMP (qhipster-like) vs serial (liquid-like).
template <typename T>
void apply_generic_masked(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target,
                          index_t cmask, const U2T<T>& u, bool parallel);

// ---------------------------------------------------------------------
// Specialized tier ("our simulator").
// ---------------------------------------------------------------------

/// Control-folded dense 2x2: enumerates only pairs whose controls are
/// satisfied (2^{n-1-c} pairs instead of 2^{n-1}).
template <typename T>
void apply_folded(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target, index_t cmask,
                  const U2T<T>& u, bool parallel);

/// Diagonal gate diag(d0, d1) on `target`, controls folded. If d0 == 1
/// (Z, S, T, R(theta)/CR) only the target=1, controls=1 quarter/half is
/// touched; otherwise a single in-place sweep of the controls=1 part.
/// Uncontrolled, a target inside one vector register (when the tier has
/// a diagonal kernel) runs as the k = 1 apply_multi_diagonal block,
/// which multiplies both halves.
template <typename T>
void apply_diagonal(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target,
                    basic_complex_t<T> d0, basic_complex_t<T> d1, index_t cmask, bool parallel);

/// NOT/CNOT/Toffoli as a pure amplitude swap (no flops), controls folded.
template <typename T>
void apply_x(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target, index_t cmask,
             bool parallel);

/// SWAP gate: exchanges amplitudes where the two target bits differ.
template <typename T>
void apply_swap(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t qa, qubit_t qb,
                index_t cmask, bool parallel);

// ---------------------------------------------------------------------
// k-qubit dense tier (gate fusion).
// ---------------------------------------------------------------------

/// Widest fused block apply_multi supports. Bounds the per-thread gather
/// scratch (2^k amplitudes) and the fused unitary (2^k x 2^k); beyond
/// ~6 qubits the per-amplitude mat-vec work dominates the memory-pass
/// saving anyway (see bench/ablation_fusion).
inline constexpr qubit_t kMaxFusedWidth = 8;

/// Applies a dense 2^k x 2^k unitary `u` (row-major) to the k qubits
/// `targets` (strictly ascending global labels, k in [1, kMaxFusedWidth])
/// in one sweep: for each of the 2^{n-k} outer indices, gathers the
/// 2^k-amplitude block, multiplies by `u`, scatters back. This is the
/// generalized-BitExpander execution engine for fused gate blocks: one
/// memory pass replaces one pass per original gate.
template <typename T>
void apply_multi(std::span<basic_complex_t<T>> a, qubit_t n, std::span<const qubit_t> targets,
                 std::span<const basic_complex_t<T>> u, bool parallel);

/// Diagonal specialization of apply_multi: multiplies each amplitude by
/// the diagonal entry `d[b]` selected by its k target bits (d has 2^k
/// entries). Single in-place sweep, no gather/scatter.
template <typename T>
void apply_multi_diagonal(std::span<basic_complex_t<T>> a, qubit_t n,
                          std::span<const qubit_t> targets,
                          std::span<const basic_complex_t<T>> d, bool parallel);

// ---------------------------------------------------------------------
// Qubit transpositions (the rank-local half of dist_sv's exchange).
// ---------------------------------------------------------------------

/// Applies a set of disjoint qubit transpositions in ONE full pass:
/// amplitude i exchanges with the index obtained by swapping, for every
/// pair {a, b}, bits a and b of i. Because the pairs are disjoint the
/// index map is an involution, so the sweep is race-free in place (the
/// iteration owning min(i, image) performs the swap). DistStateVector
/// runs the local-local pairs of an exchange pass through it. All pair
/// members must be distinct qubits below n.
template <typename T>
void apply_qubit_swaps(std::span<basic_complex_t<T>> a, qubit_t n,
                       std::span<const std::array<qubit_t, 2>> pairs);

// ---------------------------------------------------------------------
// Permutation / phase templates (inlined per callsite; used by the
// emulator's classical-function shortcut and by tests).
// ---------------------------------------------------------------------

/// Permutes amplitudes: new[f(i)] = old[i]. `f` must be a bijection on
/// [0, a.size()); scratch must be the same size as a.
template <typename T, typename F>
void apply_permutation(std::span<basic_complex_t<T>> a, std::span<basic_complex_t<T>> scratch,
                       F&& f) {
  assert(scratch.size() == a.size());
  const index_t size = a.size();
#pragma omp parallel for if (worth_parallelizing(size))
  for (index_t i = 0; i < size; ++i) scratch[f(i)] = a[i];
#pragma omp parallel for if (worth_parallelizing(size))
  for (index_t i = 0; i < size; ++i) a[i] = scratch[i];
}

/// Multiplies each amplitude by a per-index factor: a[i] *= f(i).
template <typename T, typename F>
void apply_phase_oracle(std::span<basic_complex_t<T>> a, F&& f) {
  const index_t size = a.size();
#pragma omp parallel for if (worth_parallelizing(size))
  for (index_t i = 0; i < size; ++i) a[i] *= static_cast<basic_complex_t<T>>(f(i));
}

/// A +-1 phase oracle without a multiply: negates, in place, each
/// amplitude whose index `marked` selects.
template <typename T, typename F>
void negate_marked(std::span<basic_complex_t<T>> a, F&& marked) {
  const index_t size = a.size();
  T* p = real_imag_planes(a.data());
#pragma omp parallel for if (worth_parallelizing(size))
  for (index_t i = 0; i < size; ++i) {
    if (marked(i)) {
      p[2 * i] = -p[2 * i];
      p[2 * i + 1] = -p[2 * i + 1];
    }
  }
}

}  // namespace qc::sim::kernels
