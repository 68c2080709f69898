#include "sim/kernels.hpp"

#include <algorithm>

#include "sim/kernels_dispatch.hpp"

namespace qc::sim::kernels {

std::vector<qubit_t> sorted_bit_positions(index_t mask, std::initializer_list<qubit_t> extra) {
  std::vector<qubit_t> pos;
  for (qubit_t k = 0; mask >> k; ++k)
    if (bits::test(mask, k)) pos.push_back(k);
  pos.insert(pos.end(), extra.begin(), extra.end());
  std::sort(pos.begin(), pos.end());
  return pos;
}

namespace {

/// Longest run (in amplitudes) handed to one microkernel call from a
/// parallel sweep: short enough that flattening (group, segment) pairs
/// keeps every thread busy even when the target is a top qubit (one
/// giant run), long enough to amortize dispatch.
inline constexpr index_t kParSegment = index_t{1} << 12;

/// Splats a 2x2 block into the row-major {re, im} coefficient layout the
/// dense2 microkernel consumes.
template <typename T>
std::array<T, 8> u2_coef(const U2T<T>& u) noexcept {
  return {u.m00.real(), u.m00.imag(), u.m01.real(), u.m01.imag(),
          u.m10.real(), u.m10.imag(), u.m11.real(), u.m11.imag()};
}

}  // namespace

template <typename T>
void apply_generic_masked(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target,
                          index_t cmask, const U2T<T>& u, bool parallel) {
  using C = basic_complex_t<T>;
  const index_t pairs = dim(n) >> 1;
  const index_t tbit = index_t{1} << target;
  if (parallel) {
#pragma omp parallel for schedule(static) if (worth_parallelizing(pairs))
    for (index_t j = 0; j < pairs; ++j) {
      const index_t i0 = bits::insert_bit(j, target);
      if ((i0 & cmask) != cmask) continue;
      const index_t i1 = i0 | tbit;
      const C x0 = a[i0], x1 = a[i1];
      a[i0] = u.m00 * x0 + u.m01 * x1;
      a[i1] = u.m10 * x0 + u.m11 * x1;
    }
  } else {
    for (index_t j = 0; j < pairs; ++j) {
      const index_t i0 = bits::insert_bit(j, target);
      if ((i0 & cmask) != cmask) continue;
      const index_t i1 = i0 | tbit;
      const C x0 = a[i0], x1 = a[i1];
      a[i0] = u.m00 * x0 + u.m01 * x1;
      a[i1] = u.m10 * x0 + u.m11 * x1;
    }
  }
}

template <typename T>
void apply_folded(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target, index_t cmask,
                  const U2T<T>& u) {
  using C = basic_complex_t<T>;
  const index_t tbit = index_t{1} << target;
  if (cmask == 0) {
    // Uncontrolled: the (target=0, target=1) partners form contiguous
    // runs of 2^target amplitudes — hand them to the runtime-dispatched
    // dense2 microkernel. The (group, segment) flattening keeps the
    // parallel loop load-balanced whether the target is qubit 0 (many
    // short runs) or the top qubit (one run spanning half the vector).
    const index_t size = dim(n);
    const auto& mk = active_microkernels<T>();
    const std::array<T, 8> coef = u2_coef(u);
    const index_t seg = std::min(tbit, kParSegment);
    const index_t per_run = tbit / seg;
    const index_t total = (size >> (target + 1)) * per_run;
    T* p = real_imag_planes(a.data());
#pragma omp parallel for schedule(static) if (worth_parallelizing(size))
    for (index_t s = 0; s < total; ++s) {
      const index_t base = (s / per_run) * (tbit << 1) + (s % per_run) * seg;
      mk.dense2(p + 2 * base, p + 2 * (base + tbit), seg, coef.data());
    }
    return;
  }
  const auto pos = sorted_bit_positions(cmask, {target});
  const BitExpander expand{pos};
  const index_t count = dim(n) >> pos.size();
#pragma omp parallel for schedule(static) if (worth_parallelizing(count))
  for (index_t j = 0; j < count; ++j) {
    const index_t i0 = expand(j) | cmask;
    const index_t i1 = i0 | tbit;
    const C x0 = a[i0], x1 = a[i1];
    a[i0] = u.m00 * x0 + u.m01 * x1;
    a[i1] = u.m10 * x0 + u.m11 * x1;
  }
}

template <typename T>
void apply_diagonal(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target,
                    basic_complex_t<T> d0, basic_complex_t<T> d1, index_t cmask) {
  using C = basic_complex_t<T>;
  const index_t tbit = index_t{1} << target;
  if (cmask == 0) {
    // Uncontrolled: every touched amplitude lies in a contiguous
    // 2^target run — run-scale them through the dispatched microkernel,
    // with the same (run, segment) flattening as apply_folded.
    const index_t size = dim(n);
    const auto& mk = active_microkernels<T>();
    const bool skip0 = d0 == C{T{1}};
    const index_t seg = std::min(tbit, kParSegment);
    const index_t per_run = tbit / seg;
    const index_t total = (size >> target) * per_run;
    T* p = real_imag_planes(a.data());
#pragma omp parallel for schedule(static) if (worth_parallelizing(size))
    for (index_t s = 0; s < total; ++s) {
      const index_t run = s / per_run;
      const bool one = (run & 1) != 0;
      if (skip0 && !one) continue;
      const C d = one ? d1 : d0;
      const index_t base = run * tbit + (s % per_run) * seg;
      mk.scale(p + 2 * base, seg, d.real(), d.imag());
    }
    return;
  }
  if (d0 == C{T{1}}) {
    // Phase-type gate: only amplitudes with target=1 and controls=1
    // change — a quarter of the vector for the paper's CR gate.
    const auto pos = sorted_bit_positions(cmask, {target});
    const BitExpander expand{pos};
    const index_t count = dim(n) >> pos.size();
    const index_t set_mask = cmask | tbit;
#pragma omp parallel for schedule(static) if (worth_parallelizing(count))
    for (index_t j = 0; j < count; ++j) a[expand(j) | set_mask] *= d1;
    return;
  }
  // General diagonal (e.g. Rz): one in-place sweep over the controls=1
  // part, choosing d0/d1 by the target bit.
  const auto pos = sorted_bit_positions(cmask, {});
  const BitExpander expand{pos};
  const index_t count = dim(n) >> pos.size();
#pragma omp parallel for schedule(static) if (worth_parallelizing(count))
  for (index_t j = 0; j < count; ++j) {
    const index_t i = expand(j) | cmask;
    a[i] *= (i & tbit) ? d1 : d0;
  }
}

template <typename T>
void apply_x(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target, index_t cmask) {
  const auto pos = sorted_bit_positions(cmask, {target});
  const BitExpander expand{pos};
  const index_t count = dim(n) >> pos.size();
  const index_t tbit = index_t{1} << target;
#pragma omp parallel for schedule(static) if (worth_parallelizing(count))
  for (index_t j = 0; j < count; ++j) {
    const index_t i0 = expand(j) | cmask;
    std::swap(a[i0], a[i0 | tbit]);
  }
}

template <typename T>
void apply_swap(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t qa, qubit_t qb,
                index_t cmask) {
  // Touches only indices where the two bits differ: enumerate with both
  // bits removed, swap (qa=1,qb=0) with (qa=0,qb=1).
  const auto pos = sorted_bit_positions(cmask, {qa, qb});
  const BitExpander expand{pos};
  const index_t count = dim(n) >> pos.size();
  const index_t abit = index_t{1} << qa;
  const index_t bbit = index_t{1} << qb;
#pragma omp parallel for schedule(static) if (worth_parallelizing(count))
  for (index_t j = 0; j < count; ++j) {
    const index_t base = expand(j) | cmask;
    std::swap(a[base | abit], a[base | bbit]);
  }
}

namespace {

// The serial kernels below are the per-chunk inner loops of the
// cache-blocked executor: they run inside an outer cross-chunk parallel
// region, so unlike the kernels above they cannot lean on OpenMP. Their
// uncontrolled fast paths hand the contiguous (target=0, target=1) runs
// to the runtime-dispatched microkernels (kernels_dispatch.hpp) through
// raw scalar planes (std::complex guarantees the {re, im} array
// layout); the generic masked loops stay scalar.

/// Serial enumeration of expanded indices: j in [0, count) visits every
/// index with 0 bits at `pos`. The 1/2/3-position cases (one target plus
/// up to two controls — nearly every gate) inline the insert_bit chain
/// so the compiler keeps the loop tight; BitExpander's runtime position
/// loop costs ~2x on these serial sweeps (measured at 22 qubits).
template <typename F>
inline void expanded_loop(std::span<const qubit_t> pos, index_t count, F&& f) {
  switch (pos.size()) {
    case 1: {
      const qubit_t p0 = pos[0];
      for (index_t j = 0; j < count; ++j) f(bits::insert_bit(j, p0));
      return;
    }
    case 2: {
      const qubit_t p0 = pos[0], p1 = pos[1];
      for (index_t j = 0; j < count; ++j) f(bits::insert_bit(bits::insert_bit(j, p0), p1));
      return;
    }
    case 3: {
      const qubit_t p0 = pos[0], p1 = pos[1], p2 = pos[2];
      for (index_t j = 0; j < count; ++j)
        f(bits::insert_bit(bits::insert_bit(bits::insert_bit(j, p0), p1), p2));
      return;
    }
    default: {
      const BitExpander expand{pos};
      for (index_t j = 0; j < count; ++j) f(expand(j));
      return;
    }
  }
}

}  // namespace

template <typename T>
void apply_folded_serial(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target,
                         index_t cmask, const U2T<T>& u) {
  using C = basic_complex_t<T>;
  const index_t tbit = index_t{1} << target;
  if (cmask == 0) {
    // Uncontrolled: the (target=0, target=1) partners form contiguous
    // runs of 2^target amplitudes; process them through the dispatched
    // dense2 microkernel.
    const index_t size = dim(n);
    const auto& mk = active_microkernels<T>();
    const std::array<T, 8> coef = u2_coef(u);
    T* p = real_imag_planes(a.data());
    for (index_t g = 0; g < size; g += tbit << 1)
      mk.dense2(p + 2 * g, p + 2 * (g + tbit), tbit, coef.data());
    return;
  }
  const auto pos = sorted_bit_positions(cmask, {target});
  const index_t count = dim(n) >> pos.size();
  expanded_loop(pos, count, [&](index_t expanded) {
    const index_t i0 = expanded | cmask;
    const index_t i1 = i0 | tbit;
    const C x0 = a[i0], x1 = a[i1];
    a[i0] = u.m00 * x0 + u.m01 * x1;
    a[i1] = u.m10 * x0 + u.m11 * x1;
  });
}

template <typename T>
void apply_diagonal_serial(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target,
                           basic_complex_t<T> d0, basic_complex_t<T> d1, index_t cmask) {
  using C = basic_complex_t<T>;
  const index_t tbit = index_t{1} << target;
  if (cmask == 0) {
    // Uncontrolled: the target=1 (and, unless d0 == 1, target=0)
    // amplitudes form contiguous runs — scale them through the
    // dispatched run-scale microkernel.
    const index_t size = dim(n);
    const auto& mk = active_microkernels<T>();
    const bool skip0 = d0 == C{T{1}};
    T* p = real_imag_planes(a.data());
    for (index_t g = 0; g < size; g += tbit << 1) {
      if (!skip0) mk.scale(p + 2 * g, tbit, d0.real(), d0.imag());
      mk.scale(p + 2 * (g + tbit), tbit, d1.real(), d1.imag());
    }
    return;
  }
  if (d0 == C{T{1}}) {
    const auto pos = sorted_bit_positions(cmask, {target});
    const index_t count = dim(n) >> pos.size();
    const index_t set_mask = cmask | tbit;
    expanded_loop(pos, count, [&](index_t expanded) { a[expanded | set_mask] *= d1; });
    return;
  }
  const auto pos = sorted_bit_positions(cmask, {});
  const index_t count = dim(n) >> pos.size();
  expanded_loop(pos, count, [&](index_t expanded) {
    const index_t i = expanded | cmask;
    a[i] *= (i & tbit) ? d1 : d0;
  });
}

template <typename T>
void apply_x_serial(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target, index_t cmask) {
  const index_t tbit = index_t{1} << target;
  if (cmask == 0) {
    // Uncontrolled NOT: exchange the contiguous target=0 / target=1 runs.
    const index_t size = dim(n);
    for (index_t g = 0; g < size; g += tbit << 1)
      std::swap_ranges(a.begin() + static_cast<std::ptrdiff_t>(g),
                       a.begin() + static_cast<std::ptrdiff_t>(g + tbit),
                       a.begin() + static_cast<std::ptrdiff_t>(g + tbit));
    return;
  }
  const auto pos = sorted_bit_positions(cmask, {target});
  const index_t count = dim(n) >> pos.size();
  expanded_loop(pos, count, [&](index_t expanded) {
    const index_t i0 = expanded | cmask;
    std::swap(a[i0], a[i0 | tbit]);
  });
}

template <typename T>
void apply_swap_serial(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t qa, qubit_t qb,
                       index_t cmask) {
  const auto pos = sorted_bit_positions(cmask, {qa, qb});
  const index_t count = dim(n) >> pos.size();
  const index_t abit = index_t{1} << qa;
  const index_t bbit = index_t{1} << qb;
  expanded_loop(pos, count, [&](index_t expanded) {
    const index_t base = expanded | cmask;
    std::swap(a[base | abit], a[base | bbit]);
  });
}

namespace {

/// Spreads the k local bits of every b in [0, 2^k) to the global
/// positions `targets`, so base | offs[b] walks one amplitude block.
template <index_t B>
std::array<index_t, B> block_offsets(std::span<const qubit_t> targets) {
  std::array<index_t, B> offs{};
  for (index_t b = 0; b < B; ++b) {
    index_t o = 0;
    for (std::size_t l = 0; l < targets.size(); ++l)
      if (bits::test(b, static_cast<qubit_t>(l))) o = bits::set(o, targets[l]);
    offs[b] = o;
  }
  return offs;
}

/// Width-templated block apply: the compile-time block size lets the
/// compiler fully unroll / FMA-vectorize the mat-vec, and the unitary is
/// split once into real/imag planes so the hot loop is plain scalar
/// arithmetic (std::complex products inhibit vectorization). `Par`
/// selects the OpenMP sweep vs the serial chunk-local form used inside
/// the cache-blocked executor's cross-chunk parallel region.
template <typename T, unsigned K, bool Par>
void apply_multi_t(std::span<basic_complex_t<T>> a, qubit_t n, std::span<const qubit_t> targets,
                   std::span<const basic_complex_t<T>> u) {
  using C = basic_complex_t<T>;
  constexpr index_t B = index_t{1} << K;
  const BitExpander expand{targets};
  const std::array<index_t, B> offs = block_offsets<B>(targets);
  alignas(64) std::array<T, B * B> ur, ui;
  for (index_t i = 0; i < B * B; ++i) {
    ur[i] = u[i].real();
    ui[i] = u[i].imag();
  }
  const index_t count = dim(n) >> K;
  const auto body = [&](index_t j, std::array<T, B>& xr, std::array<T, B>& xi,
                        std::array<T, B>& yr, std::array<T, B>& yi) {
    const index_t base = expand(j);
    for (index_t b = 0; b < B; ++b) {
      const C v = a[base | offs[b]];
      xr[b] = v.real();
      xi[b] = v.imag();
    }
    for (index_t r = 0; r < B; ++r) {
      const T* urow = ur.data() + r * B;
      const T* uirow = ui.data() + r * B;
      T accr{}, acci{};
      for (index_t c = 0; c < B; ++c) {
        accr += urow[c] * xr[c] - uirow[c] * xi[c];
        acci += urow[c] * xi[c] + uirow[c] * xr[c];
      }
      yr[r] = accr;
      yi[r] = acci;
    }
    for (index_t b = 0; b < B; ++b) a[base | offs[b]] = C{yr[b], yi[b]};
  };
  if constexpr (Par) {
#pragma omp parallel if (worth_parallelizing(count))
    {
      alignas(64) std::array<T, B> xr, xi, yr, yi;
#pragma omp for schedule(static)
      for (index_t j = 0; j < count; ++j) body(j, xr, xi, yr, yi);
    }
  } else {
    alignas(64) std::array<T, B> xr, xi, yr, yi;
    for (index_t j = 0; j < count; ++j) body(j, xr, xi, yr, yi);
  }
}

/// Generic fallback for the widest blocks (heap-sized scratch).
template <typename T, bool Par>
void apply_multi_generic(std::span<basic_complex_t<T>> a, qubit_t n,
                         std::span<const qubit_t> targets,
                         std::span<const basic_complex_t<T>> u) {
  using C = basic_complex_t<T>;
  const auto k = static_cast<qubit_t>(targets.size());
  const index_t block = dim(k);
  const BitExpander expand{targets};
  const auto offs = block_offsets<dim(kMaxFusedWidth)>(targets);
  const C* um = u.data();
  const index_t count = dim(n) >> k;
  const auto body = [&](index_t j, std::vector<C>& x, std::vector<C>& y) {
    const index_t base = expand(j);
    for (index_t b = 0; b < block; ++b) x[b] = a[base | offs[b]];
    for (index_t r = 0; r < block; ++r) {
      const C* row = um + r * block;
      C acc{};
      for (index_t c = 0; c < block; ++c) acc += row[c] * x[c];
      y[r] = acc;
    }
    for (index_t b = 0; b < block; ++b) a[base | offs[b]] = y[b];
  };
  if constexpr (Par) {
#pragma omp parallel if (worth_parallelizing(count))
    {
      std::vector<C> x(block), y(block);
#pragma omp for schedule(static)
      for (index_t j = 0; j < count; ++j) body(j, x, y);
    }
  } else {
    std::vector<C> x(block), y(block);
    for (index_t j = 0; j < count; ++j) body(j, x, y);
  }
}

/// 2-qubit dense apply through the dispatched 4x4 microkernel: the
/// generic gather kernel pays per-block staging (~2x at B = 4); this
/// walks the four target-bit runs {00, 01, 10, 11} directly so the
/// contiguous low-bit run vectorizes. Parallel form flattens (group,
/// segment) pairs like apply_folded so high targets still load-balance.
template <typename T, bool Par>
void apply_multi2_impl(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t t0, qubit_t t1,
                       std::span<const basic_complex_t<T>> u) {
  const index_t size = dim(n);
  const index_t b0 = index_t{1} << t0;
  const index_t b1 = index_t{1} << t1;
  // Unitary coefficient planes, row-major 4x4 (local bit 0 <-> t0).
  alignas(64) T ur[16], ui[16];
  for (int i = 0; i < 16; ++i) {
    ur[i] = u[i].real();
    ui[i] = u[i].imag();
  }
  const auto& mk = active_microkernels<T>();
  T* p = real_imag_planes(a.data());
  const index_t inner = b1 / (b0 << 1);  // g0 groups per g1 group
  if constexpr (Par) {
    const index_t seg = std::min(b0, kParSegment);
    const index_t per_run = b0 / seg;
    const index_t total = (size / (b1 << 1)) * inner * per_run;
#pragma omp parallel for schedule(static) if (worth_parallelizing(size))
    for (index_t s = 0; s < total; ++s) {
      const index_t o = s / (inner * per_run);
      const index_t rem = s % (inner * per_run);
      const index_t base =
          o * (b1 << 1) + (rem / per_run) * (b0 << 1) + (rem % per_run) * seg;
      mk.dense4(p + 2 * base, p + 2 * (base + b0), p + 2 * (base + b1),
                p + 2 * (base + b0 + b1), seg, ur, ui);
    }
  } else {
    for (index_t g1 = 0; g1 < size; g1 += b1 << 1)
      for (index_t g0 = g1; g0 < g1 + b1; g0 += b0 << 1)
        mk.dense4(p + 2 * g0, p + 2 * (g0 + b0), p + 2 * (g0 + b1), p + 2 * (g0 + b0 + b1),
                  b0, ur, ui);
  }
}

template <typename T, bool Par>
void apply_multi_dispatch(std::span<basic_complex_t<T>> a, qubit_t n,
                          std::span<const qubit_t> targets,
                          std::span<const basic_complex_t<T>> u) {
  const auto k = static_cast<qubit_t>(targets.size());
  assert(k >= 1 && k <= kMaxFusedWidth && k <= n);
  assert(u.size() == dim(k) * dim(k));
  assert(std::is_sorted(targets.begin(), targets.end()));
  switch (k) {
    case 1: {
      // Route through the folded 2x2 path so fused single-qubit blocks
      // hit the dispatched dense2 microkernel.
      const U2T<T> u2{u[0], u[1], u[2], u[3]};
      if constexpr (Par)
        return apply_folded<T>(a, n, targets[0], 0, u2);
      else
        return apply_folded_serial<T>(a, n, targets[0], 0, u2);
    }
    case 2: return apply_multi2_impl<T, Par>(a, n, targets[0], targets[1], u);
    case 3: return apply_multi_t<T, 3, Par>(a, n, targets, u);
    case 4: return apply_multi_t<T, 4, Par>(a, n, targets, u);
    case 5: return apply_multi_t<T, 5, Par>(a, n, targets, u);
    case 6: return apply_multi_t<T, 6, Par>(a, n, targets, u);
    default: return apply_multi_generic<T, Par>(a, n, targets, u);
  }
}

}  // namespace

template <typename T>
void apply_multi(std::span<basic_complex_t<T>> a, qubit_t n, std::span<const qubit_t> targets,
                 std::span<const basic_complex_t<T>> u) {
  apply_multi_dispatch<T, true>(a, n, targets, u);
}

template <typename T>
void apply_multi_serial(std::span<basic_complex_t<T>> a, qubit_t n,
                        std::span<const qubit_t> targets,
                        std::span<const basic_complex_t<T>> u) {
  apply_multi_dispatch<T, false>(a, n, targets, u);
}

template <typename T>
void apply_multi_diagonal(std::span<basic_complex_t<T>> a, qubit_t n,
                          std::span<const qubit_t> targets,
                          std::span<const basic_complex_t<T>> d) {
  const auto k = static_cast<qubit_t>(targets.size());
  assert(k >= 1 && k <= kMaxFusedWidth && k <= n);
  assert(d.size() == dim(k));
  const index_t size = dim(n);
#pragma omp parallel for schedule(static) if (worth_parallelizing(size))
  for (index_t i = 0; i < size; ++i) {
    index_t b = 0;
    for (qubit_t l = 0; l < k; ++l) b |= bits::get(i, targets[l]) << l;
    a[i] *= d[b];
  }
}

template <typename T>
void apply_multi_diagonal_serial(std::span<basic_complex_t<T>> a, qubit_t n,
                                 std::span<const qubit_t> targets,
                                 std::span<const basic_complex_t<T>> d) {
  const auto k = static_cast<qubit_t>(targets.size());
  assert(k >= 1 && k <= kMaxFusedWidth && k <= n);
  assert(d.size() == dim(k));
  const index_t size = dim(n);
  for (index_t i = 0; i < size; ++i) {
    index_t b = 0;
    for (qubit_t l = 0; l < k; ++l) b |= bits::get(i, targets[l]) << l;
    a[i] *= d[b];
  }
}

template <typename T>
void apply_qubit_swaps(std::span<basic_complex_t<T>> a, qubit_t n,
                       std::span<const std::array<qubit_t, 2>> pairs) {
  if (pairs.empty()) return;
#ifndef NDEBUG
  index_t seen = 0;
  for (const auto& p : pairs) {
    assert(p[0] < n && p[1] < n && p[0] != p[1]);
    assert(!bits::test(seen, p[0]) && !bits::test(seen, p[1]));
    seen = bits::set(bits::set(seen, p[0]), p[1]);
  }
#endif
  const index_t size = dim(n);
#pragma omp parallel for schedule(static) if (worth_parallelizing(size))
  for (index_t i = 0; i < size; ++i) {
    index_t j = i;
    for (const auto& p : pairs)
      if (bits::get(i, p[0]) != bits::get(i, p[1]))
        j ^= (index_t{1} << p[0]) | (index_t{1} << p[1]);
    if (j > i) std::swap(a[i], a[j]);
  }
}

// ---------------------------------------------------------------------
// Explicit instantiations: the kernel surface exists exactly for the
// two amplitude precisions the engine exposes (Precision::kF64/kF32).
// ---------------------------------------------------------------------

#define QC_INSTANTIATE_KERNELS(T)                                                             \
  template void apply_generic_masked<T>(std::span<basic_complex_t<T>>, qubit_t, qubit_t,      \
                                        index_t, const U2T<T>&, bool);                        \
  template void apply_folded<T>(std::span<basic_complex_t<T>>, qubit_t, qubit_t, index_t,     \
                                const U2T<T>&);                                               \
  template void apply_diagonal<T>(std::span<basic_complex_t<T>>, qubit_t, qubit_t,            \
                                  basic_complex_t<T>, basic_complex_t<T>, index_t);           \
  template void apply_x<T>(std::span<basic_complex_t<T>>, qubit_t, qubit_t, index_t);         \
  template void apply_swap<T>(std::span<basic_complex_t<T>>, qubit_t, qubit_t, qubit_t,       \
                              index_t);                                                       \
  template void apply_folded_serial<T>(std::span<basic_complex_t<T>>, qubit_t, qubit_t,       \
                                       index_t, const U2T<T>&);                               \
  template void apply_diagonal_serial<T>(std::span<basic_complex_t<T>>, qubit_t, qubit_t,     \
                                         basic_complex_t<T>, basic_complex_t<T>, index_t);    \
  template void apply_x_serial<T>(std::span<basic_complex_t<T>>, qubit_t, qubit_t, index_t);  \
  template void apply_swap_serial<T>(std::span<basic_complex_t<T>>, qubit_t, qubit_t,         \
                                     qubit_t, index_t);                                       \
  template void apply_multi<T>(std::span<basic_complex_t<T>>, qubit_t,                        \
                               std::span<const qubit_t>, std::span<const basic_complex_t<T>>); \
  template void apply_multi_serial<T>(std::span<basic_complex_t<T>>, qubit_t,                 \
                                      std::span<const qubit_t>,                               \
                                      std::span<const basic_complex_t<T>>);                   \
  template void apply_multi_diagonal<T>(std::span<basic_complex_t<T>>, qubit_t,               \
                                        std::span<const qubit_t>,                             \
                                        std::span<const basic_complex_t<T>>);                 \
  template void apply_multi_diagonal_serial<T>(std::span<basic_complex_t<T>>, qubit_t,        \
                                               std::span<const qubit_t>,                      \
                                               std::span<const basic_complex_t<T>>);          \
  template void apply_qubit_swaps<T>(std::span<basic_complex_t<T>>, qubit_t,                  \
                                     std::span<const std::array<qubit_t, 2>>);

QC_INSTANTIATE_KERNELS(float)
QC_INSTANTIATE_KERNELS(double)

#undef QC_INSTANTIATE_KERNELS

}  // namespace qc::sim::kernels
