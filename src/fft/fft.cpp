#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "fft/codelets.hpp"

namespace qc::fft {
namespace {

/// Stockham plans up to 2^kBaseQubits points (64 KiB, plus as much
/// scratch) run their passes directly, serially and in cache; larger
/// ones take the blocked four-step path, parallel over tiles.
constexpr qubit_t kBaseQubits = 12;

using detail::kTile;

/// a * w in explicit real arithmetic. std::complex's operator* carries an
/// isnan branch and a __muldc3 call (C99 Annex G) that keep the butterfly
/// loops from vectorizing.
inline complex_t mul(complex_t a, complex_t w) noexcept {
  return {a.real() * w.real() - a.imag() * w.imag(), a.real() * w.imag() + a.imag() * w.real()};
}

void scale(std::span<complex_t> data, double factor) {
  if (factor == 1.0) return;
#pragma omp parallel for if (worth_parallelizing(data.size()))
  for (std::size_t i = 0; i < data.size(); ++i) data[i] *= factor;
}

/// exp(sign * 2*pi*i * j / 2^n) for j < count. Direct std::polar per
/// entry keeps every twiddle accurate to one ulp (incremental rotation
/// would accumulate O(count) rounding error).
aligned_vector<complex_t> polar_table(qubit_t n, Sign sign, index_t count, index_t step = 1) {
  const double base = static_cast<double>(static_cast<int>(sign)) * 2.0 * std::numbers::pi /
                      static_cast<double>(dim(n));
  aligned_vector<complex_t> t(count);
  for (index_t j = 0; j < count; ++j)
    t[j] = std::polar(1.0, base * static_cast<double>(j * step));
  return t;
}

/// The N/2-entry table of a 2^n-point plan (one entry for n = 0).
aligned_vector<complex_t> half_table(qubit_t n, Sign sign) {
  return polar_table(n, sign, std::max<index_t>(dim(n) / 2, 1));
}

/// The codelets' split table of all 2^n roots: real parts, then imaginary.
aligned_vector<double> split_roots(qubit_t n, Sign sign) {
  const index_t size = dim(n);
  const aligned_vector<complex_t> w = polar_table(n, sign, size);
  aligned_vector<double> t(2 * size);
  for (index_t e = 0; e < size; ++e) {
    t[e] = w[e].real();
    t[size + e] = w[e].imag();
  }
  return t;
}

/// A lone transform's first-pass table (see detail::Codelets::single):
/// w^(q*j) at [(q-1)*l + j] for q = 1..7 and j < l = 2^n/8, copied from
/// the split roots of the same size.
aligned_vector<double> first_pass_roots(const aligned_vector<double>& roots, qubit_t n) {
  const index_t size = dim(n), l = size / 8;
  aligned_vector<double> t(2 * 7 * l);
  for (index_t q = 1; q < 8; ++q) {
    for (index_t j = 0; j < l; ++j) {
      t[(q - 1) * l + j] = roots[q * j];
      t[7 * l + (q - 1) * l + j] = roots[size + q * j];
    }
  }
  return t;
}

/// The split table `t` of `count` entries as codelet roots.
detail::Roots roots_of(const aligned_vector<double>& t, index_t count) {
  return {t.data(), t.data() + count};
}

const detail::Codelets& codelets() noexcept {
  return detail::codelets_for(sim::kernels::active_isa());
}

}  // namespace

double norm_scale(Norm norm, index_t size) {
  switch (norm) {
    case Norm::None:
      return 1.0;
    case Norm::Unitary:
      return 1.0 / std::sqrt(static_cast<double>(size));
    case Norm::Inverse:
      return 1.0 / static_cast<double>(size);
  }
  return 1.0;
}

Twiddles::Twiddles(qubit_t n, Sign sign)
    : lo_bits_((n + 1) / 2),
      lo_mask_(bits::low_mask(lo_bits_)),
      lo_(polar_table(n, sign, dim(lo_bits_))),
      hi_(polar_table(n, sign, dim(n - lo_bits_), dim(lo_bits_))) {}

void bit_reverse_permute(std::span<complex_t> data, qubit_t n) {
  const index_t size = index_t{1} << n;
  if (data.size() != size) throw std::invalid_argument("bit_reverse_permute: size mismatch");
#pragma omp parallel for if (worth_parallelizing(size))
  for (index_t i = 0; i < size; ++i) {
    const index_t j = bits::reverse(i, n);
    if (i < j) std::swap(data[i], data[j]);
  }
}

FftPlan::FftPlan(qubit_t n_qubits, Sign sign, Schedule schedule)
    : n_(n_qubits), sign_(sign), schedule_(schedule) {
  if (schedule_ != Schedule::Stockham) {
    twiddle_ = half_table(n_, sign);
    return;
  }
  if (!blocked()) {
    roots_ = split_roots(n_, sign);
    if (n_ >= 4) first_ = first_pass_roots(roots_, n_);
    return;
  }
  col_qubits_ = (n_ + 1) / 2;
  roots_ = split_roots(col_qubits_, sign);
  row_roots_ = split_roots(n_ - col_qubits_, sign);
  outer_ = Twiddles(n_, sign);
}

bool FftPlan::blocked() const noexcept {
  return schedule_ == Schedule::Stockham && n_ > kBaseQubits;
}

void FftPlan::run_stage(complex_t* a, qubit_t s) const {
  // Radix-2 stage s: butterfly t pairs i and i + half inside block t/half
  // (blocks of 2*half), one flat loop that parallelizes at every stage.
  const index_t half = dim(s - 1);
  const index_t stride = dim(n_ - s);  // twiddle_[j*stride] = w_(2*half)^j
  const index_t count = dim(n_) / 2;
#pragma omp parallel for schedule(static) if (worth_parallelizing(2 * count))
  for (index_t t = 0; t < count; ++t) {
    const index_t j = t & (half - 1);
    const index_t i = 2 * (t - j) + j;
    const complex_t u = a[i];
    const complex_t v = a[i + half] * twiddle_[j * stride];
    a[i] = u + v;
    a[i + half] = u - v;
  }
}

void FftPlan::run_fused_pair(complex_t* a, qubit_t s) const {
  // Stages s and s+1 in one sweep (radix-2^2): for each quadruple
  // (i0, i1, i2, i3) the stage-s butterflies feed directly into the
  // stage-(s+1) butterflies while everything is in registers.
  const index_t half = dim(s - 1);
  const index_t len = 2 * half;
  const index_t stride_s = dim(n_ - s);
  const index_t stride_s1 = stride_s / 2;
  const complex_t* tw = twiddle_.data();
  const index_t count = dim(n_) / 4;
#pragma omp parallel for schedule(static) if (worth_parallelizing(4 * count))
  for (index_t t = 0; t < count; ++t) {
    const index_t j = t & (half - 1);
    complex_t* blk = a + 4 * (t - j);
    const complex_t ws = tw[j * stride_s];
    const complex_t u0 = blk[j];
    const complex_t v0 = blk[j + half] * ws;
    const complex_t u1 = blk[j + len];
    const complex_t v1 = blk[j + len + half] * ws;
    const complex_t x0 = u0 + v0, x1 = u0 - v0;
    const complex_t y0 = (u1 + v1) * tw[j * stride_s1];
    const complex_t y1 = (u1 - v1) * tw[(j + half) * stride_s1];
    blk[j] = x0 + y0;
    blk[j + len] = x0 - y0;
    blk[j + half] = x1 + y1;
    blk[j + len + half] = x1 - y1;
  }
}

void FftPlan::execute_blocked(complex_t* data, complex_t* scratch, double scale) const {
  // The data as an R x C row-major matrix: point j = j2 + C*j1 sits at
  // [j1][j2] and output k = k1 + R*k2 lands at [k2][k1], so
  //   y[k1 + R*k2] = sum_j2 w_C^(j2*k2) * w_N^(j2*k1) * sum_j1 w_R^(j1*k1) x[j2 + C*j1].
  const detail::Codelets& cl = codelets();
  const int sign = static_cast<int>(sign_);
  const qubit_t col_q = col_qubits_, row_q = n_ - col_qubits_;
  const index_t rows = dim(col_q), cols = dim(row_q);
  const detail::Roots col_roots = roots_of(roots_, rows), row_roots = roots_of(row_roots_, cols);
  const detail::OuterTwiddles outer{outer_.lo(), outer_.hi(), outer_.lo_bits()};
  const index_t tile = kTile * std::max(rows, cols);
#pragma omp parallel
  {
    // Two split tile buffers per thread for the Stockham ping-pong.
    uninit_aligned_vector<double> buf(4 * tile);
    const detail::Split a{buf.data(), buf.data() + tile};
    const detail::Split b{buf.data() + 2 * tile, buf.data() + 3 * tile};

    // Pass 1: the R-point FFT of kTile adjacent columns (j1 -> k1), times
    // w_N^(j2*k1), stored transposed and tiled: scratch becomes the C x R
    // matrix [j2][k1] cut into R/kTile slabs of kTile columns k1,
    // [k1/kTile][j2][k1%kTile], so pass 2 reads each slab contiguously.
#pragma omp for schedule(static)
    for (index_t c0 = 0; c0 < cols; c0 += kTile) {
      const detail::Split t =
          cl.batched(data + c0, cols, a, b, col_roots, col_q, 1.0, sign, nullptr, 0);
      cl.twiddle_transpose(t, rows, c0, outer, scratch + c0 * kTile, cols);
    }
    // Pass 2 (after the implied barrier): the C-point FFT over j2 -> k2
    // of one slab, normalized, written in place of the input as
    // [k2][k1] — natural order.
#pragma omp for schedule(static)
    for (index_t r0 = 0; r0 < rows; r0 += kTile) {
      cl.batched(scratch + r0 * cols, kTile, a, b, row_roots, row_q, scale, sign, data + r0, rows);
    }
  }
}

void FftPlan::execute(std::span<complex_t> data, std::span<complex_t> scratch,
                      Norm norm) const {
  const index_t size = index_t{1} << n_;
  if (data.size() != size) throw std::invalid_argument("FftPlan::execute: size mismatch");
  // std::less orders pointers into unrelated arrays too.
  const std::less<const complex_t*> before;
  if (!scratch.empty() &&
      (scratch.size() < size || (before(scratch.data(), data.data() + size) &&
                                 before(data.data(), scratch.data() + scratch.size()))))
    throw std::invalid_argument("FftPlan::execute: bad scratch");
  const double factor = norm_scale(norm, size);

  if (schedule_ != Schedule::Stockham) {
    // The in-place references: bit reversal, then one sweep per stage
    // (SingleStage) or per pair of stages (FusedPairs).
    bit_reverse_permute(data, n_);
    complex_t* a = data.data();
    qubit_t s = 1;
    if (schedule_ == Schedule::FusedPairs)
      for (; s + 1 <= n_; s += 2) run_fused_pair(a, s);
    for (; s <= n_; ++s) run_stage(a, s);
    scale(data, factor);
    return;
  }
  if (blocked()) {
    if (!scratch.empty()) {
      execute_blocked(data.data(), scratch.data(), factor);
    } else {
      uninit_aligned_vector<complex_t> own(size);
      execute_blocked(data.data(), own.data(), factor);
    }
    return;
  }
  if (size == 1) {
    data[0] *= factor;
    return;
  }
  // In cache: the passes ping-pong between the scratch and the data,
  // each viewed as a split buffer.
  static thread_local aligned_vector<complex_t> tls_scratch(dim(kBaseQubits));
  double* work = reinterpret_cast<double*>(scratch.empty() ? tls_scratch.data() : scratch.data());
  codelets().single(data.data(), {work, work + size}, roots_of(roots_, size),
                    roots_of(first_, 7 * (size / 8)), n_, factor, static_cast<int>(sign_));
}

void FftPlan::execute(std::span<complex_t> data, Norm norm) const {
  execute(data, std::span<complex_t>{}, norm);
}

void fft_inplace(std::span<complex_t> data, Sign sign, Norm norm) {
  if (!bits::is_pow2(data.size())) throw std::invalid_argument("fft: size not a power of two");
  const FftPlan plan(bits::log2_floor(data.size()), sign);
  plan.execute(data, norm);
}

void dft_naive(std::span<const complex_t> in, std::span<complex_t> out, Sign sign, Norm norm) {
  const std::size_t size = in.size();
  if (out.size() != size) throw std::invalid_argument("dft_naive: size mismatch");
  const double base = static_cast<double>(static_cast<int>(sign)) * 2.0 *
                      std::numbers::pi / static_cast<double>(size);
  // Term (k, l) reads w[k*l mod N], the exponent reduced exactly in
  // integers, so no angle passed to std::polar exceeds 2*pi.
  std::vector<complex_t> w(size);
  for (std::size_t j = 0; j < size; ++j) w[j] = std::polar(1.0, base * static_cast<double>(j));
#pragma omp parallel for if (size >= 256)
  for (std::size_t k = 0; k < size; ++k) {
    complex_t acc{};
    std::size_t j = 0;  // k*l mod N
    for (std::size_t l = 0; l < size; ++l) {
      acc += mul(in[l], w[j]);
      j += k;
      if (j >= size) j -= size;
    }
    out[k] = acc;
  }
  scale(out, norm_scale(norm, size));
}

}  // namespace qc::fft
