// The FFT's codelet table: the in-cache kernels of fft::FftPlan, one
// table per dispatch tier (sim::kernels::SimdIsa).
//
// Every entry works on split work buffers: the real parts of a transform
// in one array and the imaginary parts in another, so that each
// butterfly loop is a plain loop over doubles that the compiler
// vectorizes at the width of the tier it is compiled for. The tables
// are built from one body (codelet_body.hpp), compiled once portable in
// codelets.cpp (the scalar tier, and the reference the others are tested
// against) and once each in codelets_avx2.cpp and codelets_avx512.cpp
// with those files' ISA flags. An ISA the compiler lacks compiles its
// file portable, and the dispatch never selects it (isa_available).
//
// The tables are fp64 only, as FftPlan is.
#pragma once

#include "common/types.hpp"
#include "sim/kernels_dispatch.hpp"

namespace qc::fft::detail {

/// Adjacent columns per tile of the blocked path, and so the transforms
/// per batch: 8 complex<double> are two whole 64-byte cache lines, so
/// every strided access moves whole lines.
inline constexpr index_t kTile = 8;

/// A split work buffer: point i of a transform (or batch) is
/// (re[i], im[i]).
struct Split {
  double* re;
  double* im;
};

/// A split table of roots of unity: entry e is (re[e], im[e]).
struct Roots {
  const double* re;
  const double* im;
};

/// The four-step twiddle w_N^m = hi[m >> lo_bits] * lo[m & (2^lo_bits -
/// 1)] (fft::Twiddles' two tables, interleaved complex).
struct OuterTwiddles {
  const complex_t* lo;
  const complex_t* hi;
  qubit_t lo_bits;
};

/// One dispatch tier's FFT kernels. `sign` is +1 or -1 (fft::Sign).
struct Codelets {
  /// Batched Stockham DIF transform of 2^p points (p >= 4) over kTile
  /// adjacent columns of the interleaved rows src + i*src_stride, i <
  /// 2^p, in radix-8 passes plus at most two radix-4 or one radix-2.
  /// `roots` is the 2^p-entry table w^e = exp(sign*2*pi*i*e/2^p). The
  /// first pass reads the rows; the rest ping-pong between a and b, the
  /// last scaled by `scale`. With dst null the result stays in the
  /// returned buffer, point i of transform c at i*kTile + c; otherwise
  /// the last pass writes it as rows dst + i*dst_stride, in full-line
  /// streaming stores when dst and dst_stride keep every run on 64-byte
  /// lines.
  Split (*batched)(const complex_t* src, index_t src_stride, Split a, Split b, Roots roots,
                   qubit_t p, double scale, int sign, complex_t* dst, index_t dst_stride);
  /// In-place transform of one 2^p-point interleaved array, scaled.
  /// `work` is a split buffer of 2^p points whose im half follows its re
  /// half (re + 2^p == im). For p >= 4, the first radix-8 pass runs
  /// vectorized across its butterflies with `first` = w^(q*j) for
  /// q = 1..7, j < 2^p/8 at [(q-1)*2^p/8 + j]; the rest are those of
  /// `batched` on a batch of one.
  void (*single)(complex_t* data, Split work, Roots roots, Roots first, qubit_t p, double scale,
                 int sign);
  /// Pass 1's store: for c < kTile and k < rows, src[k*kTile + c] *
  /// w_N^((col0 + c)*k) goes to dst[k0*stride + c*kTile + k - k0], with
  /// k0 = k rounded down to a multiple of kTile: each kTile x kTile block
  /// transposed, and kTile rows of the output one run apart. Streaming as
  /// batched's rows.
  void (*twiddle_transpose)(Split src, index_t rows, index_t col0, OuterTwiddles w,
                            complex_t* dst, index_t stride);
};

const Codelets& scalar_codelets() noexcept;
const Codelets& avx2_codelets() noexcept;
const Codelets& avx512_codelets() noexcept;

/// The table of `isa` (any tier; one compiled out is never active).
const Codelets& codelets_for(sim::kernels::SimdIsa isa) noexcept;

}  // namespace qc::fft::detail
