// Complex power-of-two FFT (the FFTW/MKL-CFFT role).
//
// The paper's §3.2 replaces the O(n^2)-gate quantum Fourier transform
// circuit with one classical FFT over the 2^n-entry state vector. No FFT
// library is available offline, so this module implements the transform
// from scratch, plan-based like FFTW, with both sign conventions and
// optional unitary normalization. The transform size picks the path:
//
//  * in-cache sizes (up to 2^12 points): self-sorting Stockham passes of
//    radix 8 (plus at most two of radix 4 or one of radix 2),
//    ping-ponging between the caller's scratch and the data, so no
//    bit-reversal pass ever runs;
//  * larger sizes: the four-step transform, the cache-level twin of
//    dist_fft's six-step (Eq. 5). Viewing the data as an R x C matrix,
//    pass 1 runs the R-point column FFTs over tiles of 8 adjacent
//    columns, multiplies by w_N^(j2*k1) and stores the tile transposed
//    into the scratch, in slabs of 8 columns of the transposed matrix;
//    pass 2 runs the C-point FFTs over one contiguous slab at a time and
//    writes the result, in natural order and normalized, back into the
//    data. Two passes over the state instead
//    of ceil(n/2), and every sub-FFT runs on a tile that stays in cache.
//    Twiddles are O(sqrt(N)): the sub-FFTs' tables plus a two-level
//    Twiddles table.
//
// The butterflies are codelets in the manner of FFTW (Frigo and Johnson,
// "The Design and Implementation of FFTW3", Proc. IEEE 93(2), 2005):
// radix-4 and radix-8 Stockham passes over split work buffers (real
// parts in one array, imaginary in another), so every loop vectorizes.
// One codelet body is compiled per dispatch tier, portable (the scalar
// reference) and with AVX2 and AVX-512 flags, and
// sim::kernels::active_isa() picks the tier, so QC_SIMD governs the FFT
// as it does the gate kernels (fft/codelets.hpp). Both four-step passes
// move the state in whole 128-byte runs (8 complex<double>, two cache
// lines): pass 1 writes the scratch slabs and pass 2 the strided runs of
// the data with full-line streaming stores, which skip the cache and its
// read-for-ownership. The Schedule::SingleStage / FusedPairs references
// and dft_naive are independent of the codelets, and stay the oracles.
//
// Convention: Sign::Negative computes y_k = sum_l x_l exp(-2*pi*i*k*l/N)
// (the classical "forward" DFT); Sign::Positive uses exp(+...). The QFT
// of the paper's Eq. (4) is Sign::Positive with Norm::Unitary.
#pragma once

#include <span>

#include "common/aligned.hpp"
#include "common/types.hpp"

namespace qc::fft {

enum class Sign : int { Negative = -1, Positive = +1 };

enum class Norm {
  None,     ///< No scaling.
  Unitary,  ///< Scale by 1/sqrt(N) — preserves state-vector norm.
  Inverse,  ///< Scale by 1/N (classical inverse-transform convention).
};

/// The factor `norm` scales a `size`-point transform by: 1, 1/sqrt(size)
/// or 1/size.
[[nodiscard]] double norm_scale(Norm norm, index_t size);

/// Opposite sign (used to build inverse transforms).
constexpr Sign opposite(Sign s) noexcept {
  return s == Sign::Negative ? Sign::Positive : Sign::Negative;
}

/// Butterfly schedule. Stockham, the default, is the size-dispatched
/// transform described at the top of this file. The other two are
/// in-place references that sweep the whole array once per radix-2
/// stage (or per pair of stages) after a bit-reversal pass; the schedule
/// equivalence test and the ablation bench compare against them.
enum class Schedule {
  SingleStage,  ///< One in-place sweep per radix-2 stage (textbook).
  FusedPairs,   ///< Two stages per in-place sweep where possible.
  Stockham,     ///< Self-sorting in cache, four-step above (default).
};

/// exp(sign * 2*pi*i * m / 2^n) for any m < 2^n from two tables of about
/// 2^(n/2) entries each: w^m = hi[m >> h] * lo[m & (2^h - 1)]. Both
/// factors come straight from std::polar, so every value is within a few
/// ulp, with no rounding accumulated along m. The owner of the four-step
/// twiddle w_N^(j2*k1), here and in dist_fft.
class Twiddles {
 public:
  Twiddles() = default;
  Twiddles(qubit_t n, Sign sign);

  [[nodiscard]] complex_t operator()(index_t m) const noexcept {
    const complex_t h = hi_[m >> lo_bits_];
    const complex_t l = lo_[m & lo_mask_];
    return {h.real() * l.real() - h.imag() * l.imag(),
            h.real() * l.imag() + h.imag() * l.real()};
  }

  /// The two tables, for the codelets that compute the same product.
  [[nodiscard]] qubit_t lo_bits() const noexcept { return lo_bits_; }
  [[nodiscard]] const complex_t* lo() const noexcept { return lo_.data(); }
  [[nodiscard]] const complex_t* hi() const noexcept { return hi_.data(); }

 private:
  qubit_t lo_bits_ = 0;
  index_t lo_mask_ = 0;
  aligned_vector<complex_t> lo_, hi_;
};

/// Reusable transform plan for a fixed size and sign. Holds only the
/// twiddles its path needs (see the file comment), so repeated
/// transforms (e.g. every QFT emulation in a sweep) pay the
/// trigonometry once, and a state-sized plan costs O(sqrt(N)) to build.
class FftPlan {
 public:
  /// Plan for transforms of 2^n_qubits points with the given sign.
  FftPlan(qubit_t n_qubits, Sign sign, Schedule schedule = Schedule::Stockham);

  /// In-place transform of exactly 2^n_qubits points, with the codelets
  /// of the active dispatch tier. A Stockham plan needs a scratch array
  /// as large as the data: in-cache sizes use a per-thread one, larger
  /// sizes allocate one for the call.
  void execute(std::span<complex_t> data, Norm norm = Norm::None) const;

  /// Same transform with caller-provided scratch (>= data.size();
  /// not overlapping data; its contents are overwritten). Lets long-lived
  /// callers (the emulator) reuse one buffer for every call. The
  /// reference schedules do not touch it; an empty scratch behaves as
  /// the overload above.
  void execute(std::span<complex_t> data, std::span<complex_t> scratch, Norm norm) const;

  [[nodiscard]] qubit_t qubits() const noexcept { return n_; }
  [[nodiscard]] Sign sign() const noexcept { return sign_; }
  [[nodiscard]] Schedule schedule() const noexcept { return schedule_; }

 private:
  [[nodiscard]] bool blocked() const noexcept;
  void run_stage(complex_t* a, qubit_t s) const;
  void run_fused_pair(complex_t* a, qubit_t s) const;
  void execute_blocked(complex_t* data, complex_t* scratch, double scale) const;

  qubit_t n_;
  Sign sign_;
  Schedule schedule_;
  qubit_t col_qubits_ = 0;  // blocked: log2 R, the column-FFT length
  // The reference schedules' table: twiddle_[j] = exp(sign*2*pi*i*j/N),
  // j < N/2.
  aligned_vector<complex_t> twiddle_;
  // Stockham: the codelets' split tables of all M roots of unity, with
  // M = N in cache, or M = R (roots_) and C (row_roots_) when blocked;
  // first_ is the in-cache first pass's table (detail::Codelets::single).
  aligned_vector<double> roots_, row_roots_, first_;
  Twiddles outer_;  // blocked: w_N^(j2*k1)
};

/// One-shot in-place FFT (builds a plan internally).
void fft_inplace(std::span<complex_t> data, Sign sign, Norm norm = Norm::None);

/// In-place bit-reversal permutation of 2^n points (exposed for tests and
/// for the QFT output-order conversion).
void bit_reverse_permute(std::span<complex_t> data, qubit_t n);

/// O(N^2) reference DFT — the correctness oracle for every FFT test.
void dft_naive(std::span<const complex_t> in, std::span<complex_t> out, Sign sign,
               Norm norm = Norm::None);

}  // namespace qc::fft
