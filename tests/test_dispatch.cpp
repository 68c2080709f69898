// Dispatch-equivalence tests for the runtime-selected SIMD kernels:
// every available ISA must agree with the scalar tier to 1e-12 at fp64
// (1e-5 at fp32) for every dispatched gate class — dense 2x2 (folded +
// masked), the 1-qubit diagonal (the run scale when uncontrolled, with
// and without d0 == 1), and the dense and diagonal k-qubit blocks for
// k = 1..5 at every target layout class (inside a register, at its
// edge, across runs, the top qubit) — across register sizes that cover
// both the short-run remainder paths and long vector runs. Every
// tier's serial and parallel modes must agree bit for bit: they run one
// body. Also covers the QC_SIMD override and the force_isa round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "sim/kernels.hpp"
#include "sim/kernels_dispatch.hpp"
#include "sim/state_vector.hpp"

namespace qc::sim::kernels {
namespace {

std::vector<SimdIsa> available() {
  std::vector<SimdIsa> out;
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kAvx512})
    if (isa_available(isa)) out.push_back(isa);
  return out;
}

/// Restores the pre-test dispatch decision on scope exit.
struct IsaGuard {
  SimdIsa prev = active_isa();
  ~IsaGuard() {
    force_isa(prev);
  }
};

template <typename T>
BasicStateVector<T> random_state(qubit_t n, std::uint64_t seed) {
  BasicStateVector<T> sv(n);
  sv.randomize_deterministic(seed);
  return sv;
}

template <typename T>
double max_diff(const BasicStateVector<T>& a, const BasicStateVector<T>& b) {
  return a.max_abs_diff(b);
}

/// Tolerance of the ISA-agreement check: the vector kernels reassociate
/// FMA chains, so fp32 allows a few float ulps; fp64 must agree to the
/// CONTRIBUTING-mandated 1e-12.
template <typename T>
constexpr double kIsaTol = std::is_same_v<T, double> ? 1e-12 : 1e-5;

/// Runs `apply` under every available ISA and checks the result against
/// the scalar reference outcome.
template <typename T, typename F>
void expect_isa_agreement(qubit_t n, F&& apply) {
  IsaGuard guard;
  force_isa(SimdIsa::kScalar);
  BasicStateVector<T> ref = random_state<T>(n, 7 + n);
  apply(ref);
  for (const SimdIsa isa : available()) {
    if (isa == SimdIsa::kScalar) continue;
    force_isa(isa);
    BasicStateVector<T> got = random_state<T>(n, 7 + n);
    apply(got);
    EXPECT_LE(max_diff(ref, got), kIsaTol<T>)
        << "isa=" << isa_name(isa) << " n=" << static_cast<int>(n)
        << " fp=" << 8 * sizeof(T);
  }
}

template <typename T>
void sweep_gate_classes() {
  const U2 h{1 / std::numbers::sqrt2, 1 / std::numbers::sqrt2, 1 / std::numbers::sqrt2,
             -1 / std::numbers::sqrt2};
  const U2 g{std::polar(0.6, 0.2), std::polar(0.8, -1.1), std::polar(0.8, 2.0),
             std::polar(0.6, 0.9)};
  // n=4 exercises the scalar remainder of every vector width; n=16 the
  // long-run main loops; intermediate sizes the mixed cases.
  for (const qubit_t n : {qubit_t{4}, qubit_t{7}, qubit_t{10}, qubit_t{16}}) {
    for (qubit_t t = 0; t < n; t += (n > 4 ? 3 : 1)) {
      // Dense 2x2, uncontrolled + controlled (folded path).
      expect_isa_agreement<T>(n, [&](BasicStateVector<T>& sv) {
        apply_folded<T>(sv.amplitudes(), n, t, 0, u2_cast<T>(g), true);
      });
      const index_t cmask = t == 0 ? index_t{1} << (n - 1) : index_t{1};
      expect_isa_agreement<T>(n, [&](BasicStateVector<T>& sv) {
        apply_folded<T>(sv.amplitudes(), n, t, cmask, u2_cast<T>(h), true);
      });
      // Diagonal: uncontrolled (the run scale, on both halves and, for a
      // phase-type d0 == 1, on the target=1 half only) and controlled.
      for (const double phase0 : {0.4, 0.0}) {
        const auto d0 = static_cast<basic_complex_t<T>>(std::polar(1.0, phase0));
        const auto d1 = static_cast<basic_complex_t<T>>(std::polar(1.0, -0.7));
        for (const bool parallel : {false, true})
          expect_isa_agreement<T>(n, [&](BasicStateVector<T>& sv) {
            apply_diagonal<T>(sv.amplitudes(), n, t, d0, d1, 0, parallel);
          });
        expect_isa_agreement<T>(n, [&](BasicStateVector<T>& sv) {
          apply_diagonal<T>(sv.amplitudes(), n, t, d0, d1, cmask, true);
        });
      }
    }
    // Dense 4x4 fused block over adjacent and strided target pairs.
    for (const auto& targets :
         {std::vector<qubit_t>{0, 1}, std::vector<qubit_t>{1, static_cast<qubit_t>(n - 1)}}) {
      std::vector<basic_complex_t<T>> u(16);
      const complex_t gm[4] = {g.m00, g.m01, g.m10, g.m11};
      for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
          u[static_cast<std::size_t>(4 * i + j)] = static_cast<basic_complex_t<T>>(
              gm[2 * (i >> 1) + (j >> 1)] * gm[2 * (i & 1) + (j & 1)]);
      expect_isa_agreement<T>(n, [&](BasicStateVector<T>& sv) {
        apply_multi<T>(sv.amplitudes(), n, {targets.data(), targets.size()},
                       {u.data(), u.size()}, true);
      });
    }
  }
}

TEST(Dispatch, EveryIsaMatchesScalarReferenceF64) { sweep_gate_classes<double>(); }

TEST(Dispatch, EveryIsaMatchesScalarReferenceF32) { sweep_gate_classes<float>(); }

/// Target layouts of a k-qubit block on n qubits: the lowest target at
/// 0..4 with the rest adjacent (inside a register, at its edge or above
/// it, depending on tier and precision), spread layouts starting at 0
/// and at 1, a block of low targets plus the top qubit, and the top k
/// qubits. Layouts that do not fit in n qubits are dropped.
std::vector<std::vector<qubit_t>> block_layouts(qubit_t k, qubit_t n) {
  std::vector<std::vector<qubit_t>> out;
  const auto add = [&](std::vector<qubit_t> t) {
    t.resize(k);
    if (t.back() < n && std::is_sorted(t.begin(), t.end()) &&
        std::adjacent_find(t.begin(), t.end()) == t.end() &&
        std::find(out.begin(), out.end(), t) == out.end())
      out.push_back(t);
  };
  for (qubit_t low = 0; low <= 4; ++low) {
    std::vector<qubit_t> t;
    for (qubit_t q = 0; q < k; ++q) t.push_back(low + q);
    add(t);
  }
  add({0, 2, 5, 9, 14});
  add({1, 4, 9, 11, 15});
  std::vector<qubit_t> straddle;
  for (qubit_t q = 0; q + 1 < k; ++q) straddle.push_back(q);
  straddle.push_back(n - 1);
  add(straddle);
  std::vector<qubit_t> top;
  for (qubit_t q = n - k; q < n; ++q) top.push_back(q);
  add(top);
  return out;
}

/// Dense and diagonal k-qubit blocks at every layout, n in {k, 7, 10,
/// 16}: each tier in each mode against the scalar tier, and each tier's
/// serial mode bit for bit against its parallel mode.
template <typename T>
void check_blocks(qubit_t k) {
  using C = basic_complex_t<T>;
  IsaGuard guard;
  Rng rng(100 + k);
  const linalg::Matrix um = linalg::Matrix::random_unitary(dim(k), rng);
  std::vector<C> u(um.rows() * um.cols()), d(dim(k));
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = static_cast<C>(um.data()[i]);
  for (std::size_t i = 0; i < d.size(); ++i)
    d[i] = static_cast<C>(std::polar(1.0, 0.4 + 0.9 * static_cast<double>(i)));
  for (const qubit_t n : {k, qubit_t{7}, qubit_t{10}, qubit_t{16}}) {
    if (n < k) continue;
    const BasicStateVector<T> input = random_state<T>(n, 11 + n);
    for (const auto& targets : block_layouts(k, n)) {
      for (const bool diagonal : {false, true}) {
        const auto run = [&](SimdIsa isa, bool parallel) {
          force_isa(isa);
          BasicStateVector<T> sv = input;
          if (diagonal)
            apply_multi_diagonal<T>(sv.amplitudes(), n, targets, d, parallel);
          else
            apply_multi<T>(sv.amplitudes(), n, targets, u, parallel);
          return sv;
        };
        const BasicStateVector<T> ref = run(SimdIsa::kScalar, false);
        for (const SimdIsa isa : available()) {
          const BasicStateVector<T> serial = run(isa, false);
          const BasicStateVector<T> parallel = run(isa, true);
          std::string where = std::string{diagonal ? "diagonal" : "dense"} +
                              " isa=" + isa_name(isa) + " n=" + std::to_string(n) +
                              " fp" + std::to_string(8 * sizeof(T)) + " targets=";
          for (const qubit_t t : targets) where += std::to_string(t) + ",";
          EXPECT_LE(max_diff(ref, serial), kIsaTol<T>) << where;
          EXPECT_EQ(std::memcmp(serial.amplitudes().data(), parallel.amplitudes().data(),
                                serial.amplitudes().size_bytes()),
                    0)
              << "serial and parallel modes differ: " << where;
        }
      }
    }
  }
}

TEST(Dispatch, BlocksMatchScalarTierF64) {
  for (qubit_t k = 1; k <= kMaxDispatchedWidth; ++k) check_blocks<double>(k);
}

TEST(Dispatch, BlocksMatchScalarTierF32) {
  for (qubit_t k = 1; k <= kMaxDispatchedWidth; ++k) check_blocks<float>(k);
}

TEST(Dispatch, ActiveIsaIsAvailable) {
  EXPECT_TRUE(isa_available(active_isa()));
  EXPECT_LE(static_cast<int>(active_isa()), static_cast<int>(detect_isa()));
}

TEST(Dispatch, ForceIsaRoundTrip) {
  const SimdIsa before = active_isa();
  const SimdIsa prev = force_isa(SimdIsa::kScalar);
  EXPECT_EQ(prev, before);
  EXPECT_EQ(active_isa(), SimdIsa::kScalar);
  force_isa(before);
  EXPECT_EQ(active_isa(), before);
}

TEST(Dispatch, QcSimdOverrideClampsToScalar) {
  IsaGuard guard;
  // QC_SIMD requesting a *lower* tier than detected must be honored —
  // that is the sanitizer-leg contract (CI runs QC_SIMD=scalar).
  ASSERT_EQ(setenv("QC_SIMD", "scalar", 1), 0);
  refresh_isa();
  EXPECT_EQ(active_isa(), SimdIsa::kScalar);
  ASSERT_EQ(unsetenv("QC_SIMD"), 0);
  refresh_isa();
  EXPECT_EQ(active_isa(), detect_isa());
}

TEST(Dispatch, QcSimdUnknownValueIgnored) {
  IsaGuard guard;
  ASSERT_EQ(setenv("QC_SIMD", "sse9000", 1), 0);
  refresh_isa();
  EXPECT_EQ(active_isa(), detect_isa());
  ASSERT_EQ(unsetenv("QC_SIMD"), 0);
  refresh_isa();
}

}  // namespace
}  // namespace qc::sim::kernels
