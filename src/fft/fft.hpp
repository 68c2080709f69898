// Complex power-of-two FFT (the FFTW/MKL-CFFT role).
//
// The paper's §3.2 replaces the O(n^2)-gate quantum Fourier transform
// circuit with one classical FFT over the 2^n-entry state vector. No FFT
// library is available offline, so this module implements the transform
// from scratch, plan-based like FFTW, with both sign conventions and
// optional unitary normalization. The transform size picks the path:
//
//  * in-cache sizes (up to 2^12 points): self-sorting Stockham radix-2^2
//    passes from an N/2-entry twiddle table, ping-ponging with a scratch
//    buffer, so no bit-reversal pass ever runs;
//  * larger sizes: the four-step transform, the cache-level twin of
//    dist_fft's six-step (Eq. 5). Viewing the data as an R x C matrix,
//    pass 1 runs the R-point column FFTs over tiles of adjacent columns,
//    multiplies by w_N^(j2*k1) and stores the tile transposed into the
//    scratch; pass 2 runs the C-point FFTs over tiles of that transposed
//    matrix and writes the result, in natural order and normalized, back
//    into the data. Two passes over the state instead of ceil(n/2), and
//    every sub-FFT runs on a tile that stays in cache. Twiddles are
//    O(sqrt(N)): the sub-FFTs' tables plus a two-level Twiddles table.
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

  /// In-place transform of exactly 2^n_qubits points. A Stockham plan
  /// needs a scratch array as large as the data: in-cache sizes use a
  /// per-thread one, larger sizes allocate one for the call.
  void execute(std::span<complex_t> data, Norm norm = Norm::None) const;

  /// Same transform with caller-provided scratch (>= data.size();
  /// distinct from data; its contents are overwritten). Lets long-lived
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
  // twiddle_[j] = exp(sign*2*pi*i*j/M), j < M/2, with M = N, or M = R on
  // the blocked path; row_twiddle_ is the blocked path's C-point table.
  aligned_vector<complex_t> twiddle_, row_twiddle_;
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
