// The one body of the FFT codelets (codelets.hpp), compiled once per
// dispatch tier.
//
// Every function is a static member of CodeletBody<Tier>, and each tier's
// translation unit instantiates it with a tag type of its own, so each
// tier emits its own copy under its own flags. The body calls no inline
// function of another header: the linker picks one definition of such a
// function for the whole program, and a copy compiled with -mavx512f
// could then run on a host without AVX-512.
//
// Stockham DIF pass of radix R over `lanes` interleaved transforms of
// N = R*l*m points: for j < l and k < m*lanes,
//   z[(R*j + p)*m*lanes + k] = w_N^(j*p*m) * sum_q x[(j + q*l)*m*lanes + k] * w_R^(p*q).
// Every pass reads R contiguous runs and writes R contiguous runs of
// m*lanes points, so the k loop vectorizes whenever m*lanes is a few
// vectors long; the twiddles of a pass are broadcasts from the N-entry
// table. A lone transform's first pass has m*lanes = 1, so it runs
// vectorized over j instead, from a table laid out along j.
#pragma once

#include <cstdint>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

#include "fft/codelets.hpp"

// Butterfly loops hold small arrays that must become registers before
// vectorizing, which `omp simd` prevents in GCC 12; these pragmas only
// waive the alias checks between a pass's input and output buffers.
#if defined(__clang__)
#define QC_FFT_IVDEP _Pragma("clang loop vectorize(assume_safety)")
#else
#define QC_FFT_IVDEP _Pragma("GCC ivdep")
#endif

namespace qc::fft::detail {

template <class Tier>
struct CodeletBody {
  /// cos(pi/4): w_8 = kC8 * (1 + S*i).
  static constexpr double kC8 = 0.70710678118654752440;

  struct SplitOut {
    double* re;
    double* im;
    SplitOut at(index_t off) const { return {re + off, im + off}; }
    void put(index_t k, double r, double i) const {
      re[k] = r;
      im[k] = i;
    }
  };
  struct PackedOut {
    double* d;
    PackedOut at(index_t off) const { return {d + 2 * off}; }
    void put(index_t k, double r, double i) const {
      d[2 * k] = r;
      d[2 * k + 1] = i;
    }
  };

  /// In-place 4-point DFT y_p = sum_q u_q (S*i)^(p*q) of (r[q], i[q]).
  template <int S>
  static void dft4(double* r, double* i) {
    const double s0r = r[0] + r[2], s0i = i[0] + i[2];
    const double s1r = r[0] - r[2], s1i = i[0] - i[2];
    const double s2r = r[1] + r[3], s2i = i[1] + i[3];
    const double dr = r[1] - r[3], di = i[1] - i[3];
    const double s3r = -S * di, s3i = S * dr;  // (u1 - u3) * S*i
    r[0] = s0r + s2r;
    i[0] = s0i + s2i;
    r[1] = s1r + s3r;
    i[1] = s1i + s3i;
    r[2] = s0r - s2r;
    i[2] = s0i - s2i;
    r[3] = s1r - s3r;
    i[3] = s1i - s3i;
  }

  /// In-place R-point DFT y_p = sum_q x_q w_R^(p*q), w_R = exp(S*2*pi*i/R).
  template <int S, int R>
  static void dft(double* r, double* i) {
    if constexpr (R == 2) {
      const double ar = r[0] + r[1], ai = i[0] + i[1];
      r[1] = r[0] - r[1];
      i[1] = i[0] - i[1];
      r[0] = ar;
      i[0] = ai;
    } else if constexpr (R == 4) {
      dft4<S>(r, i);
    } else {
      static_assert(R == 8);
      // Split into halves: a_q = x_q + x_(q+4) feeds the even outputs,
      // b_q = (x_q - x_(q+4)) * w_8^q the odd ones, each a 4-point DFT.
      double t[8], u[8];  // t: a_0..a_3 then b_0..b_3 (real); u: imaginary
      for (int q = 0; q < 4; ++q) {
        t[q] = r[q] + r[q + 4];
        u[q] = i[q] + i[q + 4];
        t[q + 4] = r[q] - r[q + 4];
        u[q + 4] = i[q] - i[q + 4];
      }
      const double b1r = t[5], b1i = u[5];  // * kC8 (1 + S i)
      t[5] = kC8 * (b1r - S * b1i);
      u[5] = kC8 * (b1i + S * b1r);
      const double b2r = t[6];  // * S i
      t[6] = -S * u[6];
      u[6] = S * b2r;
      const double b3r = t[7], b3i = u[7];  // * kC8 (-1 + S i)
      t[7] = -kC8 * (b3r + S * b3i);
      u[7] = kC8 * (S * b3r - b3i);
      dft4<S>(t, u);
      dft4<S>(t + 4, u + 4);
      for (int q = 0; q < 4; ++q) {
        r[2 * q] = t[q];
        i[2 * q] = u[q];
        r[2 * q + 1] = t[q + 4];
        i[2 * q + 1] = u[q + 4];
      }
    }
  }

  /// One radix-R pass (see the file comment), from x into z, the outputs
  /// multiplied by w_N^(j*p*m) * scale.
  template <int S, int R, class Out>
  static void pass(Split x, Out z, Roots w, index_t l, index_t m, index_t lanes, double scale) {
    const index_t mb = m * lanes;
    const index_t lmb = l * mb;  // input q of butterfly j starts at (j + q*l)*mb
    for (index_t j = 0; j < l; ++j) {
      double wr[R], wi[R];
      for (int p = 0; p < R; ++p) {
        const index_t e = j * static_cast<index_t>(p) * m;
        wr[p] = w.re[e] * scale;
        wi[p] = w.im[e] * scale;
      }
      const double* xr = x.re + j * mb;
      const double* xi = x.im + j * mb;
      const Out zj = z.at(static_cast<index_t>(R) * j * mb);
QC_FFT_IVDEP
      for (index_t k = 0; k < mb; ++k) {
        double yr[R], yi[R];
        for (int q = 0; q < R; ++q) {
          yr[q] = xr[static_cast<index_t>(q) * lmb + k];
          yi[q] = xi[static_cast<index_t>(q) * lmb + k];
        }
        dft<S, R>(yr, yi);
        zj.put(k, yr[0] * wr[0], yi[0] * wr[0]);
        for (int p = 1; p < R; ++p)
          zj.put(static_cast<index_t>(p) * mb + k, yr[p] * wr[p] - yi[p] * wi[p],
                 yr[p] * wi[p] + yi[p] * wr[p]);
      }
    }
  }

  /// A batch's last pass (l = 1, no twiddles), scaled, written as rows:
  /// point i of the batch to dst + i*stride doubles, a run of kTile
  /// complex per point, in put_run's streaming stores.
  template <int S, int R>
  static void last_to_rows(Split x, double* dst, index_t stride, index_t m, double scale,
                           bool stream) {
    const index_t mb = m * kTile;
    for (index_t k1 = 0; k1 < m; ++k1) {
      alignas(64) double run[R][2 * kTile];
      const double* xr = x.re + k1 * kTile;
      const double* xi = x.im + k1 * kTile;
QC_FFT_IVDEP
      for (index_t c = 0; c < kTile; ++c) {
        double yr[R], yi[R];
        for (int q = 0; q < R; ++q) {
          yr[q] = xr[static_cast<index_t>(q) * mb + c];
          yi[q] = xi[static_cast<index_t>(q) * mb + c];
        }
        dft<S, R>(yr, yi);
        for (int p = 0; p < R; ++p) {
          run[p][2 * c] = yr[p] * scale;
          run[p][2 * c + 1] = yi[p] * scale;
        }
      }
      for (int p = 0; p < R; ++p)
        put_run(dst + (static_cast<index_t>(p) * m + k1) * stride, run[p], stream);
    }
  }

  /// Stages per pass for `s` stages left: radix 8 while the rest stays a
  /// multiple of three, else radix 4, and radix 2 only for one stage.
  static qubit_t radix_bits(qubit_t s) { return s % 3 == 0 ? 3 : (s == 1 ? 1 : 2); }

  template <int S, class Out>
  static void pass_of(qubit_t bits, Split x, Out z, Roots w, index_t l, index_t m, index_t lanes,
                      double scale) {
    if (bits == 3)
      pass<S, 8>(x, z, w, l, m, lanes, scale);
    else if (bits == 2)
      pass<S, 4>(x, z, w, l, m, lanes, scale);
    else
      pass<S, 2>(x, z, w, l, m, lanes, scale);
  }

  template <int S>
  static Split run_batched(const complex_t* src, index_t src_stride, Split a, Split b, Roots w,
                           qubit_t p, double scale, complex_t* dst, index_t dst_stride) {
    const index_t n = index_t{1} << p;
    load_rows(src, src_stride, n, a);
    index_t m = 1;
    for (qubit_t s = p, bits = 0; s > 0; s -= bits, m <<= bits) {
      bits = radix_bits(s);
      const index_t l = n / (m << bits);
      if (l == 1 && dst != nullptr) {
        double* d = reinterpret_cast<double*>(dst);
        const bool stream = streamable(dst, dst_stride);
        if (bits == 3)
          last_to_rows<S, 8>(a, d, 2 * dst_stride, m, scale, stream);
        else if (bits == 2)
          last_to_rows<S, 4>(a, d, 2 * dst_stride, m, scale, stream);
        else
          last_to_rows<S, 2>(a, d, 2 * dst_stride, m, scale, stream);
        fence();
        return a;
      }
      pass_of<S>(bits, a, SplitOut{b.re, b.im}, w, l, m, kTile,
                 l == 1 ? scale : 1.0);
      const Split t = a;
      a = b;
      b = t;
    }
    return a;
  }

  static Split batched(const complex_t* src, index_t src_stride, Split a, Split b, Roots w,
                       qubit_t p, double scale, int sign, complex_t* dst, index_t dst_stride) {
    return sign > 0 ? run_batched<+1>(src, src_stride, a, b, w, p, scale, dst, dst_stride)
                    : run_batched<-1>(src, src_stride, a, b, w, p, scale, dst, dst_stride);
  }

  /// A lone transform's first pass: radix 8 with m = 1 from the
  /// interleaved x into split z, vectorized over j < l.
  template <int S>
  static void first_pass(const double* x, Split z, Roots f, index_t l) {
QC_FFT_IVDEP
    for (index_t j = 0; j < l; ++j) {
      double yr[8], yi[8];
      for (int q = 0; q < 8; ++q) {
        yr[q] = x[2 * (j + static_cast<index_t>(q) * l)];
        yi[q] = x[2 * (j + static_cast<index_t>(q) * l) + 1];
      }
      dft<S, 8>(yr, yi);
      z.re[8 * j] = yr[0];
      z.im[8 * j] = yi[0];
      for (int p = 1; p < 8; ++p) {
        const double wr = f.re[static_cast<index_t>(p - 1) * l + j];
        const double wi = f.im[static_cast<index_t>(p - 1) * l + j];
        z.re[8 * j + p] = yr[p] * wr - yi[p] * wi;
        z.im[8 * j + p] = yr[p] * wi + yi[p] * wr;
      }
    }
  }

  template <int S>
  static void run_single(double* d, Split work, Roots w, Roots f, qubit_t p, double scale) {
    const index_t n = index_t{1} << p;
    if (p <= 3) {
      // Up to 8 points: one pass from a copy on the stack.
      double xr[8], xi[8];
      for (index_t k = 0; k < n; ++k) {
        xr[k] = d[2 * k];
        xi[k] = d[2 * k + 1];
      }
      if (p == 0) {
        d[0] = xr[0] * scale;
        d[1] = xi[0] * scale;
      } else {
        pass_of<S>(p, Split{xr, xi}, PackedOut{d}, w, 1, 1, 1, scale);
      }
      return;
    }
    first_pass<S>(d, work, f, n / 8);
    // The data, consumed by the first pass, is the other split buffer.
    Split cur = work, other{d, d + n};
    index_t m = 8;
    for (qubit_t s = p - 3;;) {
      const qubit_t bits = radix_bits(s);
      const index_t l = n / (m << bits);
      if (l == 1) {
        // The last pass writes the interleaved result; when its input is
        // the data itself, through the work buffer and one copy.
        double* out = cur.re == d ? work.re : d;
        pass_of<S>(bits, cur, PackedOut{out}, w, 1, m, 1, scale);
        if (out != d)
          for (index_t k = 0; k < 2 * n; ++k) d[k] = out[k];
        return;
      }
      pass_of<S>(bits, cur, SplitOut{other.re, other.im}, w, l, m, 1, 1.0);
      const Split t = cur;
      cur = other;
      other = t;
      m <<= bits;
      s -= bits;
    }
  }

  static void single(complex_t* data, Split work, Roots w, Roots f, qubit_t p, double scale,
                     int sign) {
    double* d = reinterpret_cast<double*>(data);
    if (sign > 0)
      run_single<+1>(d, work, w, f, p, scale);
    else
      run_single<-1>(d, work, w, f, p, scale);
  }

  /// Writes the 16 doubles at src to dst (two 64-byte lines when
  /// `stream`), bypassing the cache when `stream` is set.
  static void put_run(double* dst, const double* src, bool stream) {
#if defined(__AVX512F__)
    if (stream) {
      _mm512_stream_pd(dst, _mm512_load_pd(src));
      _mm512_stream_pd(dst + 8, _mm512_load_pd(src + 8));
      return;
    }
#elif defined(__AVX__)
    if (stream) {
      for (int v = 0; v < 16; v += 4) _mm256_stream_pd(dst + v, _mm256_load_pd(src + v));
      return;
    }
#elif defined(__SSE2__)
    if (stream) {
      for (int v = 0; v < 16; v += 2) _mm_stream_pd(dst + v, _mm_load_pd(src + v));
      return;
    }
#endif
    for (int v = 0; v < 16; ++v) dst[v] = src[v];
  }

  /// Orders this thread's streaming stores before what follows (the
  /// caller's barrier).
  static void fence() {
#if defined(__SSE2__)
    _mm_sfence();
#endif
  }

  static bool streamable(const complex_t* dst, index_t stride) {
    return reinterpret_cast<std::uintptr_t>(dst) % 64 == 0 && stride % 4 == 0;
  }

  static void load_rows(const complex_t* src, index_t stride, index_t rows, Split dst) {
    const double* s = reinterpret_cast<const double*>(src);
    for (index_t r = 0; r < rows; ++r) {
      const double* row = s + 2 * r * stride;
      double* dr = dst.re + r * kTile;
      double* di = dst.im + r * kTile;
#pragma omp simd
      for (index_t c = 0; c < kTile; ++c) {
        dr[c] = row[2 * c];
        di[c] = row[2 * c + 1];
      }
    }
  }

  /// Eight doubles in the widest vector the tier has (one zmm, two ymm,
  /// four xmm), for the tile transposes.
  using V8 = double __attribute__((vector_size(64)));

  /// (By reference: a 64-byte vector value has no ABI below AVX-512.)
  static void load8(V8& v, const double* p) { __builtin_memcpy(&v, p, sizeof v); }

  /// In-place transpose of the 8x8 block v[row][lane].
  static void transpose8(V8 (&v)[8]) {
    V8 t[8], u[8];
    for (int r = 0; r < 8; r += 2) {
      t[r] = __builtin_shufflevector(v[r], v[r + 1], 0, 8, 2, 10, 4, 12, 6, 14);
      t[r + 1] = __builtin_shufflevector(v[r], v[r + 1], 1, 9, 3, 11, 5, 13, 7, 15);
    }
    for (int r = 0; r < 8; r += 4) {
      for (int h = 0; h < 2; ++h) {
        u[r + h] = __builtin_shufflevector(t[r + h], t[r + h + 2], 0, 1, 8, 9, 4, 5, 12, 13);
        u[r + h + 2] = __builtin_shufflevector(t[r + h], t[r + h + 2], 2, 3, 10, 11, 6, 7, 14, 15);
      }
    }
    // u[c] holds lanes c and c + 4 of rows 0-3, u[c + 4] those of rows 4-7.
    for (int c = 0; c < 4; ++c) {
      v[c] = __builtin_shufflevector(u[c], u[c + 4], 0, 1, 2, 3, 8, 9, 10, 11);
      v[c + 4] = __builtin_shufflevector(u[c], u[c + 4], 4, 5, 6, 7, 12, 13, 14, 15);
    }
  }

  static void twiddle_transpose(Split src, index_t rows, index_t col0, OuterTwiddles w,
                                complex_t* dst, index_t stride) {
    static_assert(kTile == 8, "the tile transpose is 8x8");
    const double* lo = reinterpret_cast<const double*>(w.lo);
    const double* hi = reinterpret_cast<const double*>(w.hi);
    const index_t lo_mask = (index_t{1} << w.lo_bits) - 1;
    double* d = reinterpret_cast<double*>(dst);
    const bool stream = streamable(dst, stride);
    // Blocks of 8 rows x 8 columns, transposed in registers; then each
    // column's run of 8 points is twiddled, interleaved and written. The
    // table lookups are scalar: indexed vector loads would be the same
    // loads.
    for (index_t k0 = 0; k0 < rows; k0 += kTile) {
      V8 re[8], im[8];
      for (index_t k = 0; k < kTile; ++k) {
        load8(re[k], src.re + (k0 + k) * kTile);
        load8(im[k], src.im + (k0 + k) * kTile);
      }
      transpose8(re);
      transpose8(im);
      for (index_t c = 0; c < kTile; ++c) {
        alignas(64) double wr_s[kTile], wi_s[kTile];
        for (index_t k = 0; k < kTile; ++k) {
          // Twiddles::operator(), term for term.
          const index_t e = (col0 + c) * (k0 + k);
          const index_t h = 2 * (e >> w.lo_bits), g = 2 * (e & lo_mask);
          wr_s[k] = hi[h] * lo[g] - hi[h + 1] * lo[g + 1];
          wi_s[k] = hi[h] * lo[g + 1] + hi[h + 1] * lo[g];
        }
        V8 wr, wi;
        load8(wr, wr_s);
        load8(wi, wi_s);
        const V8 yr = re[c] * wr - im[c] * wi;
        const V8 yi = re[c] * wi + im[c] * wr;
        alignas(64) double run[2 * kTile];
        const V8 lo_half = __builtin_shufflevector(yr, yi, 0, 8, 1, 9, 2, 10, 3, 11);
        const V8 hi_half = __builtin_shufflevector(yr, yi, 4, 12, 5, 13, 6, 14, 7, 15);
        __builtin_memcpy(run, &lo_half, sizeof lo_half);
        __builtin_memcpy(run + 8, &hi_half, sizeof hi_half);
        put_run(d + 2 * (k0 * stride + c * kTile), run, stream);
      }
    }
    fence();
  }

  static constexpr Codelets table() {
    return {&batched, &single, &twiddle_transpose};
  }
};

}  // namespace qc::fft::detail

#undef QC_FFT_IVDEP
