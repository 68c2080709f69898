// Tests for the from-scratch FFT: correctness against the naive DFT,
// unitarity, round trips, plan reuse, bit reversal, the QFT (Eq. 4)
// convention the emulator relies on, and agreement of every dispatch
// tier's codelets with the scalar tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "sim/kernels_dispatch.hpp"

namespace qc::fft {
namespace {

aligned_vector<complex_t> random_signal(qubit_t n, std::uint64_t seed) {
  Rng rng(seed);
  aligned_vector<complex_t> v(dim(n));
  for (auto& x : v) x = rng.normal_complex();
  return v;
}

double max_diff(std::span<const complex_t> a, std::span<const complex_t> b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

class FftSizes : public ::testing::TestWithParam<qubit_t> {};

TEST_P(FftSizes, MatchesNaiveDftBothSigns) {
  const qubit_t n = GetParam();
  for (const Sign sign : {Sign::Negative, Sign::Positive}) {
    const auto in = random_signal(n, 100 + n);
    aligned_vector<complex_t> expected(in.size());
    dft_naive(in, expected, sign);
    aligned_vector<complex_t> got = in;
    fft_inplace(got, sign);
    EXPECT_LT(max_diff(got, expected), 1e-9 * std::sqrt(static_cast<double>(in.size())))
        << "n=" << n << " sign=" << static_cast<int>(sign);
  }
}

TEST_P(FftSizes, ForwardInverseRoundTrip) {
  const qubit_t n = GetParam();
  const auto in = random_signal(n, 200 + n);
  aligned_vector<complex_t> work = in;
  fft_inplace(work, Sign::Negative, Norm::None);
  fft_inplace(work, Sign::Positive, Norm::Inverse);
  EXPECT_LT(max_diff(work, in), 1e-10 * static_cast<double>(n + 1));
}

TEST_P(FftSizes, UnitaryNormPreservesEnergy) {
  const qubit_t n = GetParam();
  auto v = random_signal(n, 300 + n);
  double before = 0;
  for (const auto& x : v) before += std::norm(x);
  fft_inplace(v, Sign::Positive, Norm::Unitary);
  double after = 0;
  for (const auto& x : v) after += std::norm(x);
  EXPECT_NEAR(after, before, 1e-8 * before);  // Parseval
}

// Capped at 15: the O(N^2) naive-DFT oracle dominates the suite's
// runtime beyond that; LargeTransformStaysAccurate covers 2^20 via the
// round-trip property instead.
INSTANTIATE_TEST_SUITE_P(Sizes, FftSizes, ::testing::Values(0, 1, 2, 3, 5, 8, 11, 14, 15));

TEST(Fft, LinearityHolds) {
  const qubit_t n = 8;
  const auto a = random_signal(n, 1);
  const auto b = random_signal(n, 2);
  const complex_t alpha{0.3, -1.2}, beta{2.0, 0.7};
  aligned_vector<complex_t> combo(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) combo[i] = alpha * a[i] + beta * b[i];
  aligned_vector<complex_t> fa = a, fb = b;
  fft_inplace(fa, Sign::Negative);
  fft_inplace(fb, Sign::Negative);
  fft_inplace(combo, Sign::Negative);
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(combo[i] - (alpha * fa[i] + beta * fb[i])));
  EXPECT_LT(m, 1e-9);
}

TEST(Fft, DeltaTransformsToConstant) {
  aligned_vector<complex_t> v(16, complex_t{});
  v[0] = 1.0;
  fft_inplace(v, Sign::Negative);
  for (const auto& x : v) EXPECT_NEAR(std::abs(x - complex_t{1.0}), 0.0, 1e-12);
}

TEST(Fft, ShiftedDeltaGivesTwiddleRamp) {
  const qubit_t n = 4;
  aligned_vector<complex_t> v(dim(n), complex_t{});
  v[3] = 1.0;
  fft_inplace(v, Sign::Positive);
  for (index_t k = 0; k < v.size(); ++k) {
    const complex_t expect =
        std::polar(1.0, 2.0 * std::numbers::pi * 3.0 * static_cast<double>(k) / 16.0);
    EXPECT_NEAR(std::abs(v[k] - expect), 0.0, 1e-12);
  }
}

TEST(Fft, PlanIsReusable) {
  const FftPlan plan(10, Sign::Negative);
  const auto in = random_signal(10, 5);
  aligned_vector<complex_t> a = in, b = in;
  plan.execute(a);
  plan.execute(b);
  EXPECT_EQ(max_diff(a, b), 0.0);
  aligned_vector<complex_t> expected(in.size());
  dft_naive(in, expected, Sign::Negative);
  EXPECT_LT(max_diff(a, expected), 1e-9);
}

TEST(Fft, PlanRejectsWrongSize) {
  const FftPlan plan(4, Sign::Negative);
  aligned_vector<complex_t> v(8);
  EXPECT_THROW(plan.execute(v), std::invalid_argument);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  aligned_vector<complex_t> v(12);
  EXPECT_THROW(fft_inplace(v, Sign::Negative), std::invalid_argument);
}

TEST(BitReverse, PermutationIsInvolution) {
  const qubit_t n = 10;
  const auto in = random_signal(n, 7);
  aligned_vector<complex_t> v = in;
  bit_reverse_permute(v, n);
  EXPECT_GT(max_diff(v, in), 0.0);  // actually permuted something
  bit_reverse_permute(v, n);
  EXPECT_EQ(max_diff(v, in), 0.0);
}

TEST(BitReverse, MatchesIndexReverse) {
  const qubit_t n = 6;
  aligned_vector<complex_t> v(dim(n));
  for (index_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  bit_reverse_permute(v, n);
  for (index_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(v[i].real(), static_cast<double>(bits::reverse(i, n)));
}

TEST(Fft, QftConventionEq4) {
  // Paper Eq. (4): alpha_l <- 2^{-n/2} sum_k alpha_k exp(+2 pi i k l / N):
  // Sign::Positive with Norm::Unitary.
  const qubit_t n = 6;
  const auto in = random_signal(n, 8);
  const index_t size = in.size();
  aligned_vector<complex_t> expected(size);
  for (index_t l = 0; l < size; ++l) {
    complex_t acc{};
    for (index_t k = 0; k < size; ++k)
      acc += in[k] * std::polar(1.0, 2.0 * std::numbers::pi * static_cast<double>(k) *
                                         static_cast<double>(l) / static_cast<double>(size));
    expected[l] = acc / std::sqrt(static_cast<double>(size));
  }
  aligned_vector<complex_t> got = in;
  fft_inplace(got, Sign::Positive, Norm::Unitary);
  EXPECT_LT(max_diff(got, expected), 1e-10);
}

TEST(Fft, SchedulesProduceIdenticalResults) {
  // The fused two-stage sweep and the default plan must match the
  // textbook single-stage schedule (same transform, different memory
  // order) for both odd and even stage counts, under every Norm. Up to
  // 2^12 points the default plan runs its Stockham passes in cache;
  // 13, 14 and 15 take the blocked four-step path. (Beyond 2^15 the
  // unnormalized outputs grow past the point where the single-stage
  // reference itself is within 1e-12 of the exact transform.)
  for (const qubit_t n : {1u, 2u, 3u, 6u, 9u, 12u, 13u, 14u, 15u}) {
    const auto in = random_signal(n, 400 + n);
    for (const Norm norm : {Norm::None, Norm::Unitary, Norm::Inverse}) {
      aligned_vector<complex_t> single = in, fused = in, stockham = in;
      FftPlan(n, Sign::Positive, Schedule::SingleStage).execute(single, norm);
      FftPlan(n, Sign::Positive, Schedule::FusedPairs).execute(fused, norm);
      FftPlan(n, Sign::Positive).execute(stockham, norm);
      EXPECT_LT(max_diff(single, fused), 1e-12) << "n=" << n << " norm=" << int(norm);
      EXPECT_LT(max_diff(single, stockham), 1e-12) << "n=" << n << " norm=" << int(norm);
      if (norm != Norm::None) continue;  // the O(N^2) oracle: once per n
      aligned_vector<complex_t> expected(in.size());
      dft_naive(in, expected, Sign::Positive);
      EXPECT_LT(max_diff(fused, expected), 1e-9 * std::sqrt(static_cast<double>(in.size())))
          << "n=" << n;
    }
  }
}

TEST(Fft, StockhamCallerScratchMatchesThreadLocalPath) {
  // 4 and 11 run in cache with the per-thread scratch; 16 takes the
  // blocked path, whose scratch-less call allocates its own.
  for (const qubit_t n : {4u, 11u, 16u}) {
    const auto in = random_signal(n, 77 + n);
    aligned_vector<complex_t> a = in, b = in;
    aligned_vector<complex_t> scratch(in.size());
    const FftPlan plan(n, Sign::Negative);
    plan.execute(a, Norm::Unitary);
    plan.execute(b, {scratch.data(), scratch.size()}, Norm::Unitary);
    EXPECT_LT(max_diff(a, b), 1e-15) << "n=" << n;
  }
  // Bad scratch: too small, or aliasing the data.
  aligned_vector<complex_t> v = random_signal(4, 5);
  aligned_vector<complex_t> small(v.size() / 2);
  const FftPlan plan(4, Sign::Negative);
  EXPECT_THROW(plan.execute(v, {small.data(), small.size()}, Norm::None),
               std::invalid_argument);
  EXPECT_THROW(plan.execute(v, {v.data(), v.size()}, Norm::None), std::invalid_argument);
  // Overlapping the data without aliasing it, from either side.
  aligned_vector<complex_t> both(2 * v.size());
  const std::span<complex_t> lower{both.data(), v.size()};
  const std::span<complex_t> upper{both.data() + v.size() / 2, v.size()};
  EXPECT_THROW(plan.execute(lower, upper, Norm::None), std::invalid_argument);
  EXPECT_THROW(plan.execute(upper, lower, Norm::None), std::invalid_argument);
}

std::vector<sim::kernels::SimdIsa> available_isas() {
  using sim::kernels::SimdIsa;
  std::vector<SimdIsa> out;
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kAvx512})
    if (sim::kernels::isa_available(isa)) out.push_back(isa);
  return out;
}

/// Restores the pre-test dispatch decision on scope exit.
struct IsaGuard {
  sim::kernels::SimdIsa prev = sim::kernels::active_isa();
  ~IsaGuard() { sim::kernels::force_isa(prev); }
};

TEST(FftTiers, EveryTierMatchesScalarTierAndNaiveDft) {
  // n <= 12 runs the in-cache transform (n <= 3 in one pass), larger n
  // the blocked four-step; odd and even n give odd and even stage
  // counts. Each tier runs with the plan's own scratch (per-thread in
  // cache, allocated when blocked) and with the caller's.
  IsaGuard guard;
  for (qubit_t n = 1; n <= 16; ++n) {
    const index_t size = dim(n);
    for (const Sign sign : {Sign::Negative, Sign::Positive}) {
      const auto in = random_signal(n, 500 + n);
      aligned_vector<complex_t> naive(size);
      dft_naive(in, naive, sign);
      const FftPlan plan(n, sign);
      for (const Norm norm : {Norm::None, Norm::Unitary, Norm::Inverse}) {
        const double factor = norm_scale(norm, size);
        aligned_vector<complex_t> scalar;
        for (const sim::kernels::SimdIsa isa : available_isas()) {
          sim::kernels::force_isa(isa);
          for (const bool caller_scratch : {false, true}) {
            aligned_vector<complex_t> got = in;
            aligned_vector<complex_t> scratch(caller_scratch ? size : 0);
            plan.execute(got, {scratch.data(), scratch.size()}, norm);
            if (scalar.empty()) scalar = got;  // the scalar tier runs first
            double err = 0;
            for (index_t k = 0; k < size; ++k)
              err = std::max(err, std::abs(got[k] - naive[k] * factor));
            EXPECT_LT(max_diff(got, scalar), 1e-12)
                << sim::kernels::isa_name(isa) << " n=" << n << " sign=" << int(sign)
                << " norm=" << int(norm) << " caller_scratch=" << caller_scratch;
            EXPECT_LT(err, 1e-9 * std::sqrt(static_cast<double>(size)) * factor)
                << sim::kernels::isa_name(isa) << " n=" << n << " sign=" << int(sign)
                << " norm=" << int(norm) << " caller_scratch=" << caller_scratch;
          }
        }
      }
    }
  }
}

TEST(FftTiers, UnalignedBuffersTakePlainStores) {
  // The blocked path streams whole 64-byte lines only into 64-byte
  // aligned rows; data and scratch one element off take plain stores,
  // with the same result.
  IsaGuard guard;
  for (const qubit_t n : {13u, 16u}) {
    const index_t size = dim(n);
    const auto in = random_signal(n, 600 + n);
    for (const sim::kernels::SimdIsa isa : available_isas()) {
      sim::kernels::force_isa(isa);
      const FftPlan plan(n, Sign::Positive);
      aligned_vector<complex_t> aligned = in, scratch(size);
      plan.execute(aligned, {scratch.data(), size}, Norm::Unitary);
      aligned_vector<complex_t> buf(size + 1), scratch_buf(size + 1);
      std::copy(in.begin(), in.end(), buf.begin() + 1);
      const std::span<complex_t> off{buf.data() + 1, size};
      plan.execute(off, {scratch_buf.data() + 1, size}, Norm::Unitary);
      EXPECT_EQ(max_diff(off, aligned), 0.0) << sim::kernels::isa_name(isa) << " n=" << n;
    }
  }
}

TEST(Fft, LargeTransformStaysAccurate) {
  // Round-trip error at 2^20 points stays near machine precision —
  // guards against twiddle-table accuracy regressions.
  const qubit_t n = 20;
  const auto in = random_signal(n, 9);
  aligned_vector<complex_t> v = in;
  fft_inplace(v, Sign::Negative);
  fft_inplace(v, Sign::Positive, Norm::Inverse);
  EXPECT_LT(max_diff(v, in), 1e-10);
}

}  // namespace
}  // namespace qc::fft
