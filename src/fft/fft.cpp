#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/bits.hpp"
#include "common/parallel.hpp"

namespace qc::fft {
namespace {

/// Stockham plans up to 2^kBaseQubits points (64 KiB, plus as much
/// scratch) run their passes directly, serially and in cache; larger
/// ones take the blocked four-step path, parallel over tiles.
constexpr qubit_t kBaseQubits = 12;

/// Adjacent columns per tile of the blocked path: 8 complex<double> are
/// two whole 64-byte cache lines, so every strided access moves whole
/// lines.
constexpr index_t kTile = 8;

/// a * w in explicit real arithmetic. std::complex's operator* carries an
/// isnan branch and a __muldc3 call (C99 Annex G) that keep the butterfly
/// loops from vectorizing.
inline complex_t mul(complex_t a, complex_t w) noexcept {
  return {a.real() * w.real() - a.imag() * w.imag(), a.real() * w.imag() + a.imag() * w.real()};
}

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

/// One radix-2^2 Stockham DIF pass — stages (l, m) and (l/2, 2m) — over
/// `batch` interleaved transforms (point i of transform b at i*batch + b)
/// of 2*l*m points each, with tw the N/2 table of that size. Quadruples
/// combine in registers and land at their self-sorted positions; with
/// l*m = N/2 the four read streams are fixed offsets of each other. The
/// transforms of a batch share every twiddle, so the inner loop runs
/// over m*batch contiguous points.
void stockham_pair(const complex_t* __restrict x, complex_t* __restrict z, const complex_t* tw,
                   index_t l, index_t m, index_t batch, double scale) {
  const index_t quarter = l * m / 2;
  const index_t mb = m * batch;
  const index_t qb = quarter * batch;
  const index_t hb = 2 * qb;
  for (index_t j = 0; j < l / 2; ++j) {
    const complex_t w1 = tw[j * m];             // first stage, j
    const complex_t w1b = tw[j * m + quarter];  // first stage, j + l/2
    const complex_t w2 = tw[2 * j * m];         // second stage, j
    const complex_t* x0 = x + j * mb;           // first stage inputs: x0/x2
    const complex_t* x1 = x0 + qb;              //   and (for j + l/2) x1/x3
    const complex_t* x2 = x0 + hb;
    const complex_t* x3 = x1 + hb;
    complex_t* z0 = z + 4 * j * mb;
    for (index_t k = 0; k < mb; ++k) {
      const complex_t u0 = x0[k], v0 = x1[k], u1 = x2[k], v1 = x3[k];
      const complex_t a = u0 + u1;
      const complex_t b = mul(u0 - u1, w1);
      const complex_t c = v0 + v1;
      const complex_t d = mul(v0 - v1, w1b);
      z0[k] = (a + c) * scale;
      z0[k + mb] = (b + d) * scale;
      z0[k + 2 * mb] = mul(a - c, w2) * scale;
      z0[k + 3 * mb] = mul(b - d, w2) * scale;
    }
  }
}

/// The batched Stockham transform of 2^p points (p >= 1): ping-pongs
/// between `a` (the input) and `b` and returns the one holding the
/// result, scaled. An odd stage count ends with one radix-2 pass (l = 1,
/// twiddle 1).
complex_t* stockham(complex_t* a, complex_t* b, const complex_t* tw, qubit_t p, index_t batch,
                    double scale) {
  const index_t hb = dim(p) / 2 * batch;
  index_t l = dim(p) / 2, m = 1;
  for (; l >= 2; l /= 4, m *= 4) {
    stockham_pair(a, b, tw, l, m, batch, l == 2 ? scale : 1.0);
    std::swap(a, b);
  }
  if (l == 1) {
    for (index_t k = 0; k < hb; ++k) {
      const complex_t u = a[k], v = a[k + hb];
      b[k] = (u + v) * scale;
      b[k + hb] = (u - v) * scale;
    }
    std::swap(a, b);
  }
  return a;
}

}  // namespace

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
  if (!blocked()) {
    twiddle_ = half_table(n_, sign);
    return;
  }
  col_qubits_ = (n_ + 1) / 2;
  twiddle_ = half_table(col_qubits_, sign);
  row_twiddle_ = half_table(n_ - col_qubits_, sign);
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
  const qubit_t col_q = col_qubits_, row_q = n_ - col_qubits_;
  const index_t rows = dim(col_q), cols = dim(row_q);
#pragma omp parallel
  {
    // Two tile buffers per thread for the batched Stockham ping-pong.
    uninit_aligned_vector<complex_t> tile(2 * kTile * std::max(rows, cols));
    complex_t* const a = tile.data();
    complex_t* const b = a + kTile * std::max(rows, cols);

    // Pass 1: the R-point FFT of kTile adjacent columns (j1 -> k1), times
    // w_N^(j2*k1), stored transposed: scratch becomes the C x R matrix
    // [j2][k1], each row written contiguously.
#pragma omp for schedule(static)
    for (index_t c0 = 0; c0 < cols; c0 += kTile) {
      for (index_t r = 0; r < rows; ++r)
        std::copy_n(data + r * cols + c0, kTile, a + r * kTile);
      const complex_t* t = stockham(a, b, twiddle_.data(), col_q, kTile, 1.0);
      for (index_t c = 0; c < kTile; ++c) {
        complex_t* out = scratch + (c0 + c) * rows;
        for (index_t k1 = 0; k1 < rows; ++k1)
          out[k1] = mul(t[k1 * kTile + c], outer_((c0 + c) * k1));
      }
    }
    // Pass 2 (after the implied barrier): the C-point FFT over j2 -> k2
    // of kTile adjacent columns k1 of [j2][k1], normalized, written in
    // place of the input as [k2][k1] — natural order.
#pragma omp for schedule(static)
    for (index_t r0 = 0; r0 < rows; r0 += kTile) {
      for (index_t c = 0; c < cols; ++c)
        std::copy_n(scratch + c * rows + r0, kTile, a + c * kTile);
      const complex_t* t = stockham(a, b, row_twiddle_.data(), row_q, kTile, scale);
      for (index_t k2 = 0; k2 < cols; ++k2)
        std::copy_n(t + k2 * kTile, kTile, data + k2 * rows + r0);
    }
  }
}

void FftPlan::execute(std::span<complex_t> data, std::span<complex_t> scratch,
                      Norm norm) const {
  const index_t size = index_t{1} << n_;
  if (data.size() != size) throw std::invalid_argument("FftPlan::execute: size mismatch");
  if (!scratch.empty() && (scratch.size() < size || scratch.data() == data.data()))
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
  // In cache: the passes ping-pong between data and the scratch; after
  // an odd number of passes the result sits in the scratch.
  static thread_local aligned_vector<complex_t> tls_scratch(dim(kBaseQubits));
  complex_t* work = scratch.empty() ? tls_scratch.data() : scratch.data();
  const complex_t* out = stockham(data.data(), work, twiddle_.data(), n_, 1, factor);
  if (out != data.data()) std::copy(out, out + size, data.data());
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
#pragma omp parallel for if (size >= 256)
  for (std::size_t k = 0; k < size; ++k) {
    complex_t acc{};
    for (std::size_t l = 0; l < size; ++l)
      acc += in[l] * std::polar(1.0, base * static_cast<double>(k) * static_cast<double>(l));
    out[k] = acc;
  }
  scale(out, norm_scale(norm, size));
}

}  // namespace qc::fft
