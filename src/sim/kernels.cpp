#include "sim/kernels.hpp"

#include <algorithm>

#include "common/aligned.hpp"
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

/// Longest run (log2 amplitudes) handed to one microkernel call: short
/// enough that a parallel walk over (run, segment) pairs keeps every
/// thread busy even when the target is a top qubit (one run spanning
/// half the vector), long enough to amortize dispatch.
inline constexpr qubit_t kSegmentBits = 12;

/// Splats a 2x2 block into the row-major {re, im} coefficient layout
/// apply_u2 consumes.
template <typename T>
std::array<T, 8> u2_coef(const U2T<T>& u) noexcept {
  return {u.m00.real(), u.m00.imag(), u.m01.real(), u.m01.imag(),
          u.m10.real(), u.m10.imag(), u.m11.real(), u.m11.imag()};
}

// Every kernel below has one body, compiled once per mode, and loops
// only through the helpers in this block; they alone hold an OpenMP
// loop. The serial instantiation holds no OpenMP region at all: a
// region makes the loop's captured state escape, and the serial loop
// would then reload its coefficients after every amplitude store.

/// A kernel's mode as a type: Mode<true> may open an OpenMP region.
template <bool Par>
using Mode = std::bool_constant<Par>;

/// Runs the kernel body `body(mode)` in the mode `parallel` names.
template <typename Body>
inline void with_mode(bool parallel, const Body& body) {
  if (parallel)
    body(Mode<true>{});
  else
    body(Mode<false>{});
}

/// f(j) for j in [0, count). In parallel mode this is an OpenMP loop,
/// forked when `work` amortizes the fork, and each thread runs its own
/// copy of `f`, so the coefficients it captures stay in registers.
template <bool Par, typename F>
inline void loop(Mode<Par>, index_t count, [[maybe_unused]] index_t work, F f) {
  if constexpr (Par) {
#pragma omp parallel for schedule(static) firstprivate(f) if (worth_parallelizing(work))
    for (index_t j = 0; j < count; ++j) f(j);
  } else {
    for (index_t j = 0; j < count; ++j) f(j);
  }
}

/// f(i) for every index i of an n-qubit space whose bits at the
/// ascending positions `pos` are 0, in increasing order. The 0-3
/// position cases (a target plus up to two controls: nearly every gate)
/// inline the insert_bit chain; BitExpander's runtime position loop
/// costs ~2x on these loops.
template <bool Par, typename F>
inline void for_each_index(Mode<Par> mode, qubit_t n, std::span<const qubit_t> pos, const F& f) {
  const index_t count = dim(n) >> pos.size();
  switch (pos.size()) {
    case 0:
      return loop(mode, count, count, f);
    case 1:
      return loop(mode, count, count,
                  [f, p0 = pos[0]](index_t j) { f(bits::insert_bit(j, p0)); });
    case 2:
      return loop(mode, count, count, [f, p0 = pos[0], p1 = pos[1]](index_t j) {
        f(bits::insert_bit(bits::insert_bit(j, p0), p1));
      });
    case 3:
      return loop(mode, count, count, [f, p0 = pos[0], p1 = pos[1], p2 = pos[2]](index_t j) {
        f(bits::insert_bit(bits::insert_bit(bits::insert_bit(j, p0), p1), p2));
      });
    default:
      return loop(mode, count, count,
                  [f, expand = BitExpander{pos}](index_t j) { f(expand(j)); });
  }
}

/// f(base, len) over the contiguous runs of the indices whose bits at
/// the ascending positions `pos` (one or two) are 0. A run is
/// 2^pos[0] amplitudes; runs longer than 2^kSegmentBits are cut into
/// segments of that length, so a parallel walk stays load-balanced.
template <bool Par, typename F>
inline void for_each_run(Mode<Par> mode, qubit_t n, std::span<const qubit_t> pos, const F& f) {
  assert(!pos.empty() && pos.size() <= 2);
  if (pos[0] == 0) {
    // Runs of one amplitude: pass the length as a constant, so the body
    // compiles to straight-line code.
    return for_each_index(mode, n, pos, [f](index_t i) { f(i, index_t{1}); });
  }
  // Segment starts are s << w, with s enumerated over the remaining
  // n - w bits with 0s at the shifted positions.
  const qubit_t w = std::min(pos[0], kSegmentBits);
  const qubit_t p0 = pos[0] - w;
  const qubit_t p1 = pos.back() - w;
  const index_t count = dim(n - w) >> pos.size();
  const index_t len = dim(w);
  if (pos.size() == 2)
    return loop(mode, count, dim(n), [f, w, p0, p1, len](index_t s) {
      f(bits::insert_bit(bits::insert_bit(s, p0), p1) << w, len);
    });
  if (p0 == 0)  // whole runs: segment s starts at s * 2^(w+1)
    return loop(mode, count, dim(n), [f, w, len](index_t s) { f(s << (w + 1), len); });
  loop(mode, count, dim(n),
       [f, w, p0, len](index_t s) { f(bits::insert_bit(s, p0) << w, len); });
}

// The per-amplitude arithmetic below works on the {re, im} planes in
// plain real arithmetic. On std::complex values GCC builds each {re, im}
// vector through a stack slot (a store-forwarding stall per amplitude)
// and carries operator*'s NaN fix-up branch.

/// x <- x * w for the amplitude at planes x[0], x[1].
template <typename T>
inline void scale(T* x, basic_complex_t<T> w) {
  const T xr = x[0], xi = x[1];
  x[0] = xr * w.real() - xi * w.imag();
  x[1] = xr * w.imag() + xi * w.real();
}

/// Exchanges the amplitudes at planes x and y.
template <typename T>
inline void swap_amplitudes(T* x, T* y) {
  std::swap(x[0], y[0]);
  std::swap(x[1], y[1]);
}

/// (x, y) <- u (x, y) for the amplitude pair at planes x, y; `coef` is
/// u in u2_coef's layout.
template <typename T>
inline void apply_u2(T* x, T* y, const std::array<T, 8>& coef) {
  const T xr = x[0], xi = x[1], yr = y[0], yi = y[1];
  x[0] = coef[0] * xr - coef[1] * xi + coef[2] * yr - coef[3] * yi;
  x[1] = coef[0] * xi + coef[1] * xr + coef[2] * yi + coef[3] * yr;
  y[0] = coef[4] * xr - coef[5] * xi + coef[6] * yr - coef[7] * yi;
  y[1] = coef[4] * xi + coef[5] * xr + coef[6] * yi + coef[7] * yr;
}

/// apply_u2 over `len` amplitude pairs at planes x, y: the scalar tier's
/// uncontrolled 2x2 run. Out of line, so that a serial and a parallel
/// walk run the same code on each run: each inlined copy of the loop is
/// vectorized, and its multiply-adds contracted, on its own.
template <typename T>
[[gnu::noinline]] void apply_u2_run(T* x, T* y, index_t len, const std::array<T, 8> coef) {
  for (index_t i = 0; i < 2 * len; i += 2) apply_u2(x + i, y + i, coef);
}

}  // namespace

template <typename T>
void apply_generic_masked(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target,
                          index_t cmask, const U2T<T>& u, bool parallel) {
  const index_t tbit = bits::bit(target);
  const qubit_t pos[] = {target};
  with_mode(parallel, [&](auto mode) {
    for_each_index(mode, n, pos,
                   [p = real_imag_planes(a.data()), coef = u2_coef(u), cmask, tbit](index_t i0) {
                     if ((i0 & cmask) == cmask) apply_u2(p + 2 * i0, p + 2 * (i0 | tbit), coef);
                   });
  });
}

template <typename T>
void apply_folded(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target, index_t cmask,
                  const U2T<T>& u, bool parallel) {
  const index_t tbit = bits::bit(target);
  if (cmask == 0) {
    if (active_microkernels<T>().dense[0] != nullptr) {
      // Uncontrolled: the dispatched 1-qubit dense kernel.
      const qubit_t targets[] = {target};
      const basic_complex_t<T> m[] = {u.m00, u.m01, u.m10, u.m11};
      return apply_multi<T>(a, n, targets, m, parallel);
    }
    // The scalar tier: the (target=0, target=1) partners form contiguous
    // runs of 2^target amplitudes, a loop the compiler can vectorize.
    const qubit_t pos[] = {target};
    with_mode(parallel, [&](auto mode) {
      for_each_run(mode, n, pos,
                   [p = real_imag_planes(a.data()), coef = u2_coef(u), tbit](index_t base,
                                                                             index_t len) {
                     apply_u2_run(p + 2 * base, p + 2 * (base + tbit), len, coef);
                   });
    });
    return;
  }
  const auto pos = sorted_bit_positions(cmask, {target});
  with_mode(parallel, [&](auto mode) {
    for_each_index(mode, n, pos,
                   [p = real_imag_planes(a.data()), coef = u2_coef(u), cmask, tbit](index_t i) {
                     apply_u2(p + 2 * (i | cmask), p + 2 * (i | cmask | tbit), coef);
                   });
  });
}

template <typename T>
void apply_diagonal(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target,
                    basic_complex_t<T> d0, basic_complex_t<T> d1, index_t cmask, bool parallel) {
  const index_t tbit = bits::bit(target);
  // Phase-type gates (d0 == 1: Z, S, T, R(theta)/CR) leave target=0
  // alone, so a controlled one touches a quarter of the vector (the
  // paper's CR gate).
  const bool skip0 = d0 == basic_complex_t<T>{T{1}};
  if (cmask == 0) {
    // Uncontrolled: run-scale the target=0 / target=1 halves of each run
    // through the dispatched microkernel.
    const qubit_t pos[] = {target};
    with_mode(parallel, [&](auto mode) {
      for_each_run(mode, n, pos,
                   [p = real_imag_planes(a.data()), tbit, d0, d1, skip0,
                    scale_run = active_microkernels<T>().scale](index_t base, index_t len) {
                     if (!skip0) scale_run(p + 2 * base, len, d0.real(), d0.imag());
                     scale_run(p + 2 * (base + tbit), len, d1.real(), d1.imag());
                   });
    });
    return;
  }
  const auto pos = sorted_bit_positions(cmask, {target});
  with_mode(parallel, [&](auto mode) {
    for_each_index(mode, n, pos,
                   [p = real_imag_planes(a.data()), cmask, tbit, d0, d1, skip0](index_t i) {
                     if (!skip0) scale(p + 2 * (i | cmask), d0);
                     scale(p + 2 * (i | cmask | tbit), d1);
                   });
  });
}

template <typename T>
void apply_x(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t target, index_t cmask,
             bool parallel) {
  const index_t tbit = bits::bit(target);
  if (cmask == 0) {
    // Uncontrolled NOT: exchange the contiguous target=0 / target=1 runs.
    const qubit_t pos[] = {target};
    with_mode(parallel, [&](auto mode) {
      for_each_run(mode, n, pos,
                   [p = real_imag_planes(a.data()), tbit](index_t base, index_t len) {
                     for (index_t i = base; i < base + len; ++i)
                       swap_amplitudes(p + 2 * i, p + 2 * (i + tbit));
                   });
    });
    return;
  }
  const auto pos = sorted_bit_positions(cmask, {target});
  with_mode(parallel, [&](auto mode) {
    for_each_index(mode, n, pos, [p = real_imag_planes(a.data()), cmask, tbit](index_t i) {
      swap_amplitudes(p + 2 * (i | cmask), p + 2 * (i | cmask | tbit));
    });
  });
}

template <typename T>
void apply_swap(std::span<basic_complex_t<T>> a, qubit_t n, qubit_t qa, qubit_t qb,
                index_t cmask, bool parallel) {
  // Touches only indices where the two bits differ: enumerate with both
  // bits removed, swap (qa=1,qb=0) with (qa=0,qb=1).
  const index_t abit = bits::bit(qa);
  const index_t bbit = bits::bit(qb);
  const auto pos = sorted_bit_positions(cmask, {qa, qb});
  if (cmask == 0) {
    // Uncontrolled: the two partners are contiguous runs below the lower
    // of the two bits.
    with_mode(parallel, [&](auto mode) {
      for_each_run(mode, n, pos,
                   [p = real_imag_planes(a.data()), abit, bbit](index_t base, index_t len) {
                     for (index_t i = base; i < base + len; ++i)
                       swap_amplitudes(p + 2 * (i + abit), p + 2 * (i + bbit));
                   });
    });
    return;
  }
  with_mode(parallel, [&](auto mode) {
    for_each_index(mode, n, pos, [p = real_imag_planes(a.data()), cmask, abit, bbit](index_t i) {
      swap_amplitudes(p + 2 * (i | cmask | abit), p + 2 * (i | cmask | bbit));
    });
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
/// arithmetic (std::complex products inhibit vectorization). This is
/// the scalar tier of the dense blocks, and the reference of the
/// dispatched ones.
template <typename T, unsigned K, bool Par>
void apply_multi_t(Mode<Par> mode, std::span<basic_complex_t<T>> a, qubit_t n,
                   std::span<const qubit_t> targets, std::span<const basic_complex_t<T>> u) {
  constexpr index_t B = index_t{1} << K;
  const std::array<index_t, B> offs = block_offsets<B>(targets);
  alignas(64) std::array<T, B * B> ur, ui;
  for (index_t i = 0; i < B * B; ++i) {
    ur[i] = u[i].real();
    ui[i] = u[i].imag();
  }
  T* const p = real_imag_planes(a.data());
  for_each_index(mode, n, targets, [p, &offs, &ur, &ui](index_t base) {
    alignas(64) std::array<T, B> xr, xi, yr, yi;
    for (index_t b = 0; b < B; ++b) {
      xr[b] = p[2 * (base | offs[b])];
      xi[b] = p[2 * (base | offs[b]) + 1];
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
    for (index_t b = 0; b < B; ++b) {
      p[2 * (base | offs[b])] = yr[b];
      p[2 * (base | offs[b]) + 1] = yi[b];
    }
  });
}

/// Generic fallback for the widest blocks.
template <typename T, bool Par>
void apply_multi_generic(Mode<Par> mode, std::span<basic_complex_t<T>> a, qubit_t n,
                         std::span<const qubit_t> targets,
                         std::span<const basic_complex_t<T>> u) {
  using C = basic_complex_t<T>;
  const index_t block = dim(static_cast<qubit_t>(targets.size()));
  const auto offs = block_offsets<dim(kMaxFusedWidth)>(targets);
  for_each_index(mode, n, targets, [a, u, block, &offs](index_t base) {
    std::array<C, dim(kMaxFusedWidth)> x, y;
    for (index_t b = 0; b < block; ++b) x[b] = a[base | offs[b]];
    for (index_t r = 0; r < block; ++r) {
      const C* row = u.data() + r * block;
      C acc{};
      for (index_t c = 0; c < block; ++c) acc += row[c] * x[c];
      y[r] = acc;
    }
    for (index_t b = 0; b < block; ++b) a[base | offs[b]] = y[b];
  });
}

/// The walk of a dispatched block over `targets` in vectors of
/// 2^lane_bits amplitudes (see BlockWalk): the targets below lane_bits
/// stay inside a vector, the rest pick the runs.
BlockWalk block_walk(qubit_t n, std::span<const qubit_t> targets, qubit_t lane_bits) {
  BlockWalk w;
  w.lane_bits = lane_bits;
  const auto first_high = std::find_if(targets.begin(), targets.end(),
                                       [lane_bits](qubit_t t) { return t >= lane_bits; });
  const auto high = targets.subspan(static_cast<std::size_t>(first_high - targets.begin()));
  w.n_high = static_cast<qubit_t>(high.size());
  w.seg_bits = std::min(high.empty() ? n : high[0], kSegmentBits);
  for (std::size_t i = 0; i < high.size(); ++i) w.high[i] = high[i] - w.seg_bits;
  const auto offs = block_offsets<dim(kMaxDispatchedWidth)>(high);
  std::copy(offs.begin(), offs.end(), w.offs);
  return w;
}

/// f(s0, s1) over the segments of `w` in ranges of about 2^kSegmentBits
/// amplitudes, so a parallel walk stays balanced. Both modes cut the
/// same ranges, so they run the same arithmetic.
template <bool Par, typename F>
inline void for_each_segments(Mode<Par> mode, qubit_t n, const BlockWalk& w, const F& f) {
  const qubit_t covered = w.seg_bits + w.n_high;  // log2 amplitudes of one segment's runs
  const index_t segments = dim(n - covered);
  const index_t per = covered < kSegmentBits ? dim(kSegmentBits - covered) : 1;
  loop(mode, (segments + per - 1) / per, dim(n), [f, per, segments](index_t c) {
    f(c * per, std::min(segments, (c + 1) * per));
  });
}

/// The vector width a dense block runs at on a tier whose registers
/// hold 2^tier_bits amplitudes: a whole register when no target lies
/// below it; else a register that ends below the lowest target (across
/// runs), or, when qubit 0 is a target, one that holds only targets
/// 0, 1, ... (inside a vector).
qubit_t dense_lane_bits(std::span<const qubit_t> targets, qubit_t tier_bits) {
  if (targets[0] > 0) return std::min(targets[0], tier_bits);
  qubit_t m = 1;
  while (m < tier_bits && m < targets.size() && targets[m] == m) ++m;
  return m;
}

/// Dense k-qubit block (k <= kMaxDispatchedWidth) through the tier's
/// dispatched kernel; lays its coefficients out as Microkernels::dense
/// documents.
template <typename T>
void apply_multi_dispatched(const Microkernels<T>& mk, std::span<basic_complex_t<T>> a, qubit_t n,
                            std::span<const qubit_t> targets,
                            std::span<const basic_complex_t<T>> u, bool parallel) {
  const auto k = static_cast<qubit_t>(targets.size());
  const BlockWalk w = block_walk(n, targets, dense_lane_bits(targets, mk.lane_bits));
  const index_t block = dim(k);
  alignas(kAlignment) std::array<T, 4 * dim(2 * kMaxDispatchedWidth)> coef;
  if (w.n_high == k) {
    for (index_t i = 0; i < block * block; ++i) {
      coef[i] = u[i].real();
      coef[block * block + i] = u[i].imag();
    }
  } else {
    const qubit_t m = k - w.n_high;
    const index_t lanes = dim(m);
    T* out = coef.data();
    for (index_t j = 0; j < dim(w.n_high); ++j) {
      for (index_t c = 0; c < block; ++c, out += 4 * lanes) {
        for (index_t l = 0; l < lanes; ++l) {
          const basic_complex_t<T> x = u[((j << m) | l) * block + c];
          out[2 * l] = x.real();
          out[2 * l + 1] = x.imag();
          out[2 * lanes + 2 * l] = -x.imag();
          out[2 * lanes + 2 * l + 1] = x.real();
        }
      }
    }
  }
  with_mode(parallel, [&](auto mode) {
    for_each_segments(mode, n, w,
                      [p = real_imag_planes(a.data()), &w, c = coef.data(),
                       dense = mk.dense[k - 1]](index_t s0, index_t s1) {
                        dense(p, w, c, s0, s1);
                      });
  });
}

/// Diagonal k-qubit block (k <= kMaxDispatchedWidth) through the tier's
/// dispatched kernel: each run below the lowest target at or above the
/// register width has one factor per lane.
template <typename T>
void apply_multi_diagonal_dispatched(const Microkernels<T>& mk, std::span<basic_complex_t<T>> a,
                                     qubit_t n, std::span<const qubit_t> targets,
                                     std::span<const basic_complex_t<T>> d, bool parallel) {
  const BlockWalk w = block_walk(n, targets, std::min(mk.lane_bits, n));
  const auto m = static_cast<qubit_t>(targets.size() - w.n_high);
  const index_t lanes = dim(w.lane_bits);
  alignas(kAlignment) std::array<T, 2 * dim(kMaxDispatchedWidth) * (kMaxSimdBytes / sizeof(T))>
      factors;
  T* out = factors.data();
  for (index_t j = 0; j < dim(w.n_high); ++j, out += 4 * lanes) {
    for (index_t l = 0; l < lanes; ++l) {
      index_t b = j << m;
      for (qubit_t i = 0; i < m; ++i) b |= bits::get(l, targets[i]) << i;
      out[2 * l] = out[2 * l + 1] = d[b].real();
      out[2 * lanes + 2 * l] = -d[b].imag();
      out[2 * lanes + 2 * l + 1] = d[b].imag();
    }
  }
  with_mode(parallel, [&](auto mode) {
    for_each_segments(mode, n, w,
                      [p = real_imag_planes(a.data()), &w, f = factors.data(),
                       diagonal = mk.diagonal](index_t s0, index_t s1) {
                        diagonal(p, w, f, s0, s1);
                      });
  });
}

}  // namespace

template <typename T>
void apply_multi(std::span<basic_complex_t<T>> a, qubit_t n, std::span<const qubit_t> targets,
                 std::span<const basic_complex_t<T>> u, bool parallel) {
  const auto k = static_cast<qubit_t>(targets.size());
  assert(k >= 1 && k <= kMaxFusedWidth && k <= n);
  assert(u.size() == dim(k) * dim(k));
  assert(std::is_sorted(targets.begin(), targets.end()));
  const Microkernels<T>& mk = active_microkernels<T>();
  if (k <= kMaxDispatchedWidth && mk.dense[k - 1] != nullptr)
    return apply_multi_dispatched<T>(mk, a, n, targets, u, parallel);
  if (k == 1)  // the scalar tier's uncontrolled 2x2 run loop
    return apply_folded<T>(a, n, targets[0], 0, U2T<T>{u[0], u[1], u[2], u[3]}, parallel);
  with_mode(parallel, [&](auto mode) {
    switch (k) {
      case 2: return apply_multi_t<T, 2>(mode, a, n, targets, u);
      case 3: return apply_multi_t<T, 3>(mode, a, n, targets, u);
      case 4: return apply_multi_t<T, 4>(mode, a, n, targets, u);
      case 5: return apply_multi_t<T, 5>(mode, a, n, targets, u);
      case 6: return apply_multi_t<T, 6>(mode, a, n, targets, u);
      default: return apply_multi_generic<T>(mode, a, n, targets, u);
    }
  });
}

template <typename T>
void apply_multi_diagonal(std::span<basic_complex_t<T>> a, qubit_t n,
                          std::span<const qubit_t> targets,
                          std::span<const basic_complex_t<T>> d, bool parallel) {
  const auto k = static_cast<qubit_t>(targets.size());
  assert(k >= 1 && k <= kMaxFusedWidth && k <= n);
  assert(d.size() == dim(k));
  const Microkernels<T>& mk = active_microkernels<T>();
  if (k <= kMaxDispatchedWidth && mk.diagonal != nullptr)
    return apply_multi_diagonal_dispatched<T>(mk, a, n, targets, d, parallel);
  with_mode(parallel, [&](auto mode) {
    for_each_index(mode, n, {}, [p = real_imag_planes(a.data()), targets, d, k](index_t i) {
      index_t b = 0;
      for (qubit_t l = 0; l < k; ++l) b |= bits::get(i, targets[l]) << l;
      scale(p + 2 * i, d[b]);
    });
  });
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

#define QC_INSTANTIATE_KERNELS(T)                                                              \
  template void apply_generic_masked<T>(std::span<basic_complex_t<T>>, qubit_t, qubit_t,       \
                                        index_t, const U2T<T>&, bool);                         \
  template void apply_folded<T>(std::span<basic_complex_t<T>>, qubit_t, qubit_t, index_t,      \
                                const U2T<T>&, bool);                                          \
  template void apply_diagonal<T>(std::span<basic_complex_t<T>>, qubit_t, qubit_t,             \
                                  basic_complex_t<T>, basic_complex_t<T>, index_t, bool);      \
  template void apply_x<T>(std::span<basic_complex_t<T>>, qubit_t, qubit_t, index_t, bool);    \
  template void apply_swap<T>(std::span<basic_complex_t<T>>, qubit_t, qubit_t, qubit_t,        \
                              index_t, bool);                                                  \
  template void apply_multi<T>(std::span<basic_complex_t<T>>, qubit_t,                         \
                               std::span<const qubit_t>, std::span<const basic_complex_t<T>>,  \
                               bool);                                                          \
  template void apply_multi_diagonal<T>(std::span<basic_complex_t<T>>, qubit_t,                \
                                        std::span<const qubit_t>,                              \
                                        std::span<const basic_complex_t<T>>, bool);            \
  template void apply_qubit_swaps<T>(std::span<basic_complex_t<T>>, qubit_t,                   \
                                     std::span<const std::array<qubit_t, 2>>);

QC_INSTANTIATE_KERNELS(float)
QC_INSTANTIATE_KERNELS(double)

#undef QC_INSTANTIATE_KERNELS

}  // namespace qc::sim::kernels
