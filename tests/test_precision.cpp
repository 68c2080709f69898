// fp32 execution-path tests (PR 10): the error-accumulation gate that
// admits fp32 as a supported precision (fp32 vs fp64 <= 1e-6 max
// amplitude error on deep QFT / random-dense circuits), fp32
// measurement and sampling round-trips, and the dist-backend byte
// accounting contract — the same plan at fp32 moves exactly half the
// fp64 bytes on the wire.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "circuit/builders.hpp"
#include "common/check.hpp"
#include "engine/engine.hpp"
#include "sim/sampling.hpp"
#include "sim/state_vector.hpp"

namespace qc::engine {
namespace {

/// A deep random-dense gate program: layers of per-qubit rotations and
/// entangling CNOT chains — the error-accumulation worst case a QFT's
/// structured phases can hide.
Program random_dense_program(qubit_t n, int layers, std::uint64_t seed) {
  Program p(n);
  Rng rng(seed);
  for (int l = 0; l < layers; ++l) {
    for (qubit_t q = 0; q < n; ++q) {
      p.ry(q, rng.uniform() * 2.0);
      p.rz(q, rng.uniform() * 2.0);
    }
    for (qubit_t q = 0; q + 1 < n; ++q) p.cnot(q, q + 1);
  }
  return p;
}

Program qft_program(qubit_t n) {
  Program p(n);
  for (qubit_t q = 0; q < n; ++q) p.h(q);
  p.qft().inverse_qft().qft();
  return p;
}

/// Runs `p` on `backend` at both precisions and returns the max
/// amplitude error of the fp32 run against the fp64 reference.
double precision_drift(const Program& p, const std::string& backend) {
  const Engine eng;
  RunOptions o64;
  o64.backend = backend;
  RunOptions o32 = o64;
  o32.precision = Precision::kF32;
  const Result r64 = eng.run(p, o64);
  const Result r32 = eng.run(p, o32);
  return r32.state.max_abs_diff(r64.state);
}

// --- error-accumulation gate ------------------------------------------

TEST(Precision, DeepQftStaysWithinErrorBound) {
  // ~3 full QFT passes at 10 qubits: hundreds of dense + diagonal gates
  // on every registered backend (the gate-level ones run the lowered
  // cascade). The fp32 drift bound is the RunOptions::precision
  // contract.
  const Program p = qft_program(10);
  for (const std::string& backend : backend_names())
    EXPECT_LE(precision_drift(p, backend), 1e-6) << backend;
}

TEST(Precision, DeepRandomDenseStaysWithinErrorBound) {
  const Program p = random_dense_program(8, 24, 11);
  for (const std::string& backend : backend_names())
    EXPECT_LE(precision_drift(p, backend), 1e-6) << backend;
}

TEST(Precision, Fp32StateStaysNormalized) {
  const Engine eng;
  RunOptions opts;
  opts.backend = "cached";
  opts.precision = Precision::kF32;
  const Result r = eng.run(random_dense_program(9, 16, 3), opts);
  EXPECT_NEAR(r.state.norm_sq(), 1.0, 1e-5);
}

// --- measurement / sampling at fp32 -----------------------------------

TEST(Precision, Fp32MeasurementRoundTrip) {
  // |+>^3 measured with collapse: outcomes must be uniform-legal and the
  // collapsed state a basis state — the sampling path squares the fp32
  // amplitudes in double, so the draws stay backend-exact.
  Program p(3);
  for (qubit_t q = 0; q < 3; ++q) p.h(q);
  p.measure({0, 3});
  const Engine eng;
  RunOptions o32;
  o32.backend = "cached";
  o32.precision = Precision::kF32;
  RunOptions o64 = o32;
  o64.precision = Precision::kF64;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    o32.seed = o64.seed = seed;
    const Result r32 = eng.run(p, o32);
    const Result r64 = eng.run(p, o64);
    ASSERT_EQ(r32.measurements.size(), 1u);
    // One uniform draw against near-identical CDFs: same outcome.
    EXPECT_EQ(r32.measurements[0], r64.measurements[0]) << "seed=" << seed;
    EXPECT_NEAR(r32.state.norm_sq(), 1.0, 1e-6);
    // Collapsed onto the measured basis state.
    EXPECT_NEAR(std::abs(r32.state[r32.measurements[0]]), 1.0, 1e-6);
  }
}

TEST(Precision, SampleCdfFromFloatAmplitudes) {
  // The sampler's float instantiation: CDF built from fp32 amplitudes
  // must normalize and sample the same outcomes as the fp64 CDF.
  sim::BasicStateVector<float> svf(5);
  svf.randomize_deterministic(21);
  const sim::BasicStateVector<double> svd = svf.cast<double>();
  const auto cf = sim::SampleCdf::from_amplitudes<float>(svf.amplitudes());
  const auto cd = sim::SampleCdf::from_amplitudes<double>(svd.amplitudes());
  for (const double u : {0.0, 0.123, 0.5, 0.77, 0.999999})
    EXPECT_EQ(cf.sample(u), cd.sample(u)) << "u=" << u;
}

TEST(Precision, Fp32ExpectationMatchesFp64) {
  Program p = random_dense_program(7, 8, 5);
  p.expectation_z(0b1010101);
  const Engine eng;
  RunOptions o64;
  o64.backend = "cached";
  RunOptions o32 = o64;
  o32.precision = Precision::kF32;
  const Result r64 = eng.run(p, o64);
  const Result r32 = eng.run(p, o32);
  ASSERT_EQ(r32.expectations.size(), 1u);
  EXPECT_NEAR(r32.expectations[0], r64.expectations[0], 1e-5);
}

// --- dist backend: fp32 halves the wire bytes -------------------------

TEST(Precision, DistFp32MovesExactlyHalfTheBytes) {
  // Same program, same rank count, same plan (plans are precision-
  // agnostic): every exchanged chunk is sizeof(complex<float>) = 8
  // bytes per amplitude instead of 16, so net_bytes must be *exactly*
  // half — the ISSUE's acceptance criterion for the dist path.
  Program p = qft_program(8);
  const Engine eng;
  RunOptions o64;
  o64.backend = "dist";
  o64.dist_ranks = 4;
  RunOptions o32 = o64;
  o32.precision = Precision::kF32;
  const Result r64 = eng.run(p, o64);
  const Result r32 = eng.run(p, o32);
  ASSERT_GT(r64.net_bytes, 0u);
  EXPECT_EQ(r32.net_bytes * 2, r64.net_bytes);
  // Host staging (the one gather of the full state) halves too.
  ASSERT_GT(r64.host_bytes, 0u);
  EXPECT_EQ(r32.host_bytes * 2, r64.host_bytes);
  // And the distributed fp32 run still lands on the fp64 answer.
  EXPECT_LE(r32.state.max_abs_diff(r64.state), 1e-6);
}

TEST(Precision, DistFp32MatchesSerialFp32) {
  const Program p = random_dense_program(8, 10, 9);
  const Engine eng;
  RunOptions dist;
  dist.backend = "dist";
  dist.dist_ranks = 2;
  dist.precision = Precision::kF32;
  RunOptions serial;
  serial.backend = "cached";
  serial.precision = Precision::kF32;
  const Result rd = eng.run(p, dist);
  const Result rs = eng.run(p, serial);
  // Both paths run the identical float kernels; only op order differs.
  EXPECT_LE(rd.state.max_abs_diff(rs.state), 1e-5);
}

#if QC_ENABLE_CHECKS
TEST(Precision, Fp32NormCheckStillFiresWhenArmed) {
  // The norm invariant's fp32 allowance grows with the gates run, but a
  // real unitarity break must still trip it at fp32. This backend
  // forwards to hpc and, while `broken` is set, appends a non-unitary
  // u2 (scaling qubit 0 by 1 + 1e-3) to every segment, so hpc's own
  // per-segment check fires. (Other tests iterate every registered
  // backend; unbroken it is hpc.)
  static bool broken = false;
  class ScalingBackend final : public Backend {
   public:
    explicit ScalingBackend(const RunOptions& opts) : hpc_(make_backend("hpc", opts)) {}
    [[nodiscard]] std::string name() const override { return "test-scaling"; }
    void begin(qubit_t n, index_t initial_basis) override { hpc_->begin(n, initial_basis); }
    void run_gates(const circuit::Circuit& c) override {
      if (!broken) return hpc_->run_gates(c);
      circuit::Circuit scaled = c;
      scaled.u2(0, {1.0 + 1e-3, 0.0, 0.0, 1.0 + 1e-3});
      hpc_->run_gates(scaled);
    }
    index_t measure_register(RegRef r, double u, bool collapse) override {
      return hpc_->measure_register(r, u, collapse);
    }
    double expectation_z(index_t mask) override { return hpc_->expectation_z(mask); }
    sim::StateVector take_state() override { return hpc_->take_state(); }

   private:
    std::unique_ptr<Backend> hpc_;
  };
  register_backend("test-scaling", [](const RunOptions& opts) -> std::unique_ptr<Backend> {
    return std::make_unique<ScalingBackend>(opts);
  });
  RunOptions opts;
  opts.backend = "test-scaling";
  opts.precision = Precision::kF32;
  const Program p = random_dense_program(6, 4, 5);
  EXPECT_NO_THROW((void)Engine().run(p, opts));
  broken = true;
  EXPECT_THROW((void)Engine().run(p, opts), CheckError);
  opts.precision = Precision::kF64;
  EXPECT_THROW((void)Engine().run(p, opts), CheckError);
  broken = false;
}

TEST(Precision, Fp32HighLevelOnlyRunKeepsTheNormCheck) {
  // High-level ops on "auto" at fp32 with no gate segment: each ends in
  // a narrow the allowance must cover. A one-qubit QFT (a Hadamard)
  // narrows both 1/sqrt(2) amplitudes down, moving the norm by ~3.4e-8,
  // far above fp64's tolerance at 10 qubits.
  Program round_trip(10);
  round_trip.qft().inverse_qft();
  Program hadamard(10);
  hadamard.qft({0, 1});
  RunOptions opts;
  opts.precision = Precision::kF32;
  EXPECT_NO_THROW((void)Engine().run(round_trip, opts));
  EXPECT_NO_THROW((void)Engine().run(hadamard, opts));
}
#endif


}  // namespace
}  // namespace qc::engine
