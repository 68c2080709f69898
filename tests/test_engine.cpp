// Tests for the engine front door: Program builder validation, the
// backend registry, and — the paper's contract — agreement to 1e-12
// between the "auto" backend (emulation shortcuts) and the fully
// lowered gate-level runs on QFT, Shor-style modular arithmetic, and
// Grover programs.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "emu/observables.hpp"
#include "engine/engine.hpp"
#include "models/perf_model.hpp"
#include "obs/report.hpp"

namespace qc::engine {
namespace {

using circuit::Circuit;

/// Deterministic non-trivial prep segment: per-qubit rotations plus an
/// entangling CNOT/CR ladder, so agreement tests see generic complex
/// amplitudes instead of a basis state.
Circuit prep_circuit(qubit_t n) {
  Circuit c(n);
  for (qubit_t q = 0; q < n; ++q) {
    c.h(q);
    c.rz(q, 0.17 * static_cast<double>(q + 1));
  }
  for (qubit_t q = 0; q + 1 < n; ++q) c.cnot(q, q + 1);
  for (qubit_t q = 0; q + 2 < n; ++q) c.cr(q, q + 2, 0.31 * static_cast<double>(q + 1));
  return c;
}

/// Runs `p` on `backend` and on "auto", expecting final-state agreement.
void expect_backends_agree(const Program& p, const std::string& backend,
                           std::uint64_t seed = 3) {
  RunOptions auto_opts;
  auto_opts.backend = "auto";
  auto_opts.seed = seed;
  RunOptions gate_opts = auto_opts;
  gate_opts.backend = backend;

  const Engine engine;
  const Result a = engine.run(p, auto_opts);
  const Result g = engine.run(p, gate_opts);
  EXPECT_EQ(a.state.qubits(), p.qubits());
  EXPECT_EQ(g.state.qubits(), p.qubits());
  EXPECT_LT(a.state.max_abs_diff(g.state), 1e-12)
      << "auto vs " << backend << " diverged on:\n"
      << p.to_string();
  EXPECT_EQ(a.measurements, g.measurements);
  ASSERT_EQ(a.expectations.size(), g.expectations.size());
  for (std::size_t i = 0; i < a.expectations.size(); ++i)
    EXPECT_NEAR(a.expectations[i], g.expectations[i], 1e-12);
}

// --- Program builder ---------------------------------------------------

TEST(Program, GateRunsCoalesceIntoOneSegment) {
  Program p(3);
  p.h(0).cnot(0, 1).x(2);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.ops()[0].kind, OpKind::GateSegment);
  EXPECT_EQ(p.ops()[0].gates.size(), 3u);
  EXPECT_FALSE(p.needs_lowering());

  p.qft({0, 2}).h(1).h(2);  // high-level op closes the segment
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.ops()[1].kind, OpKind::Qft);
  EXPECT_EQ(p.ops()[2].gates.size(), 2u);
  EXPECT_TRUE(p.needs_lowering());
}

TEST(Program, BuildersValidateRegisters) {
  Program p(6);
  EXPECT_THROW(p.add({0, 3}, {2, 3}), std::invalid_argument);       // overlap
  EXPECT_THROW(p.add({0, 3}, {3, 2}), std::invalid_argument);       // width mismatch
  EXPECT_THROW(p.qft({4, 3}), std::invalid_argument);               // out of range
  EXPECT_THROW(p.measure({0, 0}), std::invalid_argument);           // empty
  EXPECT_THROW(p.multiply({0, 2}, {2, 2}, {3, 2}), std::invalid_argument);
  EXPECT_THROW(p.multiply_mod({0, 3}, 3, 9), std::invalid_argument);   // gcd != 1
  EXPECT_THROW(p.multiply_mod({0, 2}, 3, 100), std::invalid_argument); // modulus
  EXPECT_THROW(p.expectation_z(index_t{1} << 6), std::invalid_argument);
  EXPECT_TRUE(p.empty());  // nothing appended by the failed builders
}

TEST(Program, MeasureAndExpectationAreNotLowered) {
  Program p(4);
  p.h(0).measure({0, 2}).expectation_z(0b11);
  EXPECT_FALSE(p.needs_lowering());
  const Program low = lower(p);
  EXPECT_EQ(low.qubits(), 4u);
  ASSERT_EQ(low.size(), 3u);
  EXPECT_EQ(low.ops()[1].kind, OpKind::Measure);
  EXPECT_EQ(low.ops()[2].kind, OpKind::ExpectationZ);
}

// --- backend registry --------------------------------------------------

TEST(Registry, BuiltinsPresentAndSorted) {
  const std::vector<std::string> names = backend_names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected :
       {"auto", "cached", "dist", "fused", "hpc", "liquid-like", "qhipster-like"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing builtin " << expected;
}

TEST(Registry, UnknownBackendErrorEnumeratesNames) {
  try {
    (void)make_backend("does-not-exist");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("does-not-exist"), std::string::npos);
    for (const char* name : {"auto", "fused", "hpc", "liquid-like", "qhipster-like"})
      EXPECT_NE(msg.find(name), std::string::npos) << "error should list " << name;
  }
}

TEST(Registry, RoundTripCustomBackend) {
  class EchoBackend final : public Backend {
   public:
    [[nodiscard]] std::string name() const override { return "test-echo"; }
    void begin(qubit_t n, index_t initial_basis) override { hpc_->begin(n, initial_basis); }
    void run_gates(const circuit::Circuit& c) override { hpc_->run_gates(c); }
    index_t measure_register(RegRef r, double u, bool collapse) override {
      return hpc_->measure_register(r, u, collapse);
    }
    double expectation_z(index_t mask) override { return hpc_->expectation_z(mask); }
    sim::StateVector take_state() override { return hpc_->take_state(); }

   private:
    std::unique_ptr<Backend> hpc_ = make_backend("hpc");
  };
  register_backend("test-echo", [](const RunOptions&) -> std::unique_ptr<Backend> {
    return std::make_unique<EchoBackend>();
  });
  const std::vector<std::string> names = backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "test-echo"), names.end());
  EXPECT_THROW(
      register_backend("test-echo",
                       [](const RunOptions&) -> std::unique_ptr<Backend> { return nullptr; }),
      std::invalid_argument);

  Program p(3);
  p.gates(prep_circuit(3));
  RunOptions opts;
  opts.backend = "test-echo";
  const Result r = Engine().run(p, opts);
  EXPECT_EQ(r.backend, "test-echo");
  EXPECT_NEAR(r.state.norm_sq(), 1.0, 1e-12);
}

TEST(Registry, EveryBackendRejectsAWiderSegmentAtBothPrecisions) {
  // 8-qubit segments (one empty) and a 2-qubit one on a 4-qubit state:
  // every backend must refuse each before touching an amplitude, at
  // fp64 and at fp32, and keep its state intact.
  Circuit wide(8);
  wide.h(7);
  const Circuit empty_wide(8);
  Circuit narrow(2);
  narrow.h(1);
  for (const std::string& name : backend_names()) {
    for (const Precision precision : {Precision::kF64, Precision::kF32}) {
      RunOptions opts;
      opts.precision = precision;
      const std::unique_ptr<Backend> backend = make_backend(name, opts);
      backend->begin(4, 0);
      for (const Circuit& c : {wide, empty_wide, narrow})
        EXPECT_THROW(backend->run_gates(c), std::invalid_argument)
            << name << " at fp" << precision_bits(precision) << ", " << c.qubits()
            << "-qubit segment";
      EXPECT_EQ(backend->take_state()[0], complex_t{1.0}) << name;
    }
  }
}

TEST(Registry, GateOnlyBackendRejectsHighLevelOps) {
  Program p(4);
  p.qft();
  const std::unique_ptr<Backend> hpc = make_backend("hpc");
  hpc->begin(4, 0);
  EXPECT_THROW(hpc->run_highlevel(p.ops()[0]), std::logic_error);
}

// --- auto vs lowered gate-level agreement (acceptance programs) --------

TEST(Agreement, Qft12) {
  const qubit_t n = 12;
  Program p(n);
  p.gates(prep_circuit(n)).qft().inverse_qft({0, 6}).expectation_z(0b101);
  EXPECT_EQ(lowered_ancillas(p), 0u);
  expect_backends_agree(p, "hpc");
  expect_backends_agree(p, "fused");
}

TEST(Agreement, ShorStyleModularMultiplication) {
  // Order finding in miniature for N = 15, a = 7: superpose a 3-bit
  // exponent, evaluate 7^e mod 15 into the value register (support
  // stays < N, the circuit-side precondition), rotate by an extra
  // emulatable modular multiplication, inverse-QFT the exponent,
  // measure it.
  Program p(7);
  p.h(0).h(1).h(2)
      .apply_function({0, 3}, {3, 4},
                      [](index_t e) {
                        index_t r = 1;
                        for (index_t j = 0; j < e; ++j) r = r * 7 % 15;
                        return r;
                      })
      .multiply_mod({3, 4}, 2, 15)
      .inverse_qft({0, 3})
      .measure({0, 3});
  EXPECT_EQ(lowered_ancillas(p), 4u + 3u);  // Beauregard accumulator + flags
  expect_backends_agree(p, "hpc");
  expect_backends_agree(p, "fused");
}

TEST(Agreement, GroverWithPhaseOracle) {
  const qubit_t n = 10;
  const index_t marked = 321;
  Circuit diffusion(n);
  for (qubit_t q = 0; q < n; ++q) diffusion.h(q);
  for (qubit_t q = 0; q < n; ++q) diffusion.x(q);
  {
    circuit::Gate mcz = circuit::make_gate(circuit::GateKind::Z, n - 1);
    for (qubit_t q = 0; q + 1 < n; ++q) mcz.controls.push_back(q);
    diffusion.append(mcz);
  }
  for (qubit_t q = 0; q < n; ++q) diffusion.x(q);
  for (qubit_t q = 0; q < n; ++q) diffusion.h(q);

  Program p(n);
  for (qubit_t q = 0; q < n; ++q) p.h(q);
  for (int it = 0; it < 6; ++it) {
    p.phase_oracle([marked](index_t i) { return i == marked; });
    p.gates(diffusion);
  }
  expect_backends_agree(p, "hpc");
  expect_backends_agree(p, "fused");

  // Sanity: six iterations amplify the marked item well above uniform.
  RunOptions opts;
  const Result r = Engine().run(p, opts);
  EXPECT_GT(std::norm(r.state[marked]), 100.0 / static_cast<double>(dim(n)));
}

TEST(Agreement, ArithmeticAddMultiplyDivide) {
  // m = 2-bit registers a, b, c: superpose a and b, then
  // b += a; c += a*b; then divide on a fresh basis-state program.
  Program p(6);
  p.h(0).h(1).h(2).h(3).add({0, 2}, {2, 2}).multiply({0, 2}, {2, 2}, {4, 2});
  EXPECT_EQ(lowered_ancillas(p), 1u);
  expect_backends_agree(p, "hpc");

  // Division: (a=7, b=3, c=0) -> (a mod b, b, a div b); superposed b.
  Program q(9);
  q.x(0).x(1).x(2).h(3).h(4).divide({0, 3}, {3, 3}, {6, 3});
  EXPECT_EQ(lowered_ancillas(q), 3u + 4u);
  expect_backends_agree(q, "hpc");
}

TEST(Agreement, PhaseFunctionSmallRegister) {
  Program p(6);
  p.gates(prep_circuit(6)).phase_function([](index_t i) {
    return 0.2 * static_cast<double>(i % 7);
  });
  expect_backends_agree(p, "hpc");
}

TEST(Agreement, CliffordTLoweringOfArithmetic) {
  Program p(6);
  p.h(0).h(1).h(2).h(3).add({0, 2}, {2, 2}).multiply({0, 2}, {2, 2}, {4, 2});
  RunOptions auto_opts;
  RunOptions ct_opts;
  ct_opts.backend = "hpc";
  ct_opts.lower.to_clifford_t = true;
  const Engine engine;
  const Result a = engine.run(p, auto_opts);
  const Result g = engine.run(p, ct_opts);
  EXPECT_LT(a.state.max_abs_diff(g.state), 1e-12);
}

// --- engine-handled nodes and bookkeeping ------------------------------

TEST(Engine, MeasureCollapsesAndRecords) {
  Program p(4);
  p.x(0).x(2).measure({0, 4});
  const Result r = Engine().run(p);
  ASSERT_EQ(r.measurements.size(), 1u);
  EXPECT_EQ(r.measurements[0], index_t{0b0101});
  EXPECT_NEAR(std::norm(r.state[0b0101]), 1.0, 1e-12);  // collapsed
}

TEST(Engine, MeasureWithoutCollapseLeavesStateUntouched) {
  Program p(3);
  for (qubit_t q = 0; q < 3; ++q) p.h(q);
  RunOptions opts;
  opts.collapse_measurements = false;
  Program p2 = p;
  p2.measure({0, 3});
  const Result r = Engine().run(p2, opts);
  ASSERT_EQ(r.measurements.size(), 1u);
  for (index_t i = 0; i < dim(3); ++i)
    EXPECT_NEAR(std::norm(r.state[i]), 1.0 / 8.0, 1e-12);
}

TEST(Engine, ExpectationZMatchesObservables) {
  Program p(5);
  p.gates(prep_circuit(5)).expectation_z(0b10101);
  const Result r = Engine().run(p);
  ASSERT_EQ(r.expectations.size(), 1u);
  EXPECT_NEAR(r.expectations[0], emu::expectation_z_string(r.state, 0b10101), 1e-12);
}

TEST(Engine, TraceCoversEveryOpWithLabels) {
  Program p(8);
  p.gates(prep_circuit(8)).qft().measure({0, 4}).expectation_z(1);
  const Result r = Engine().run(p);
  ASSERT_EQ(r.trace.size(), p.size());
  EXPECT_EQ(r.trace[1].op, "qft(@0:8)");
  for (const OpTrace& t : r.trace) {
    EXPECT_FALSE(t.op.empty());
    EXPECT_GE(t.seconds, 0.0);
  }
  EXPECT_GE(r.total_seconds, 0.0);
  EXPECT_EQ(r.run_qubits, 8u);
}

TEST(Engine, InitialBasisSeedsTheProgramRegister) {
  // begin() writes |initial_basis> on every backend at both precisions.
  // The basis sets the top program qubit, so on dist (2 and 4 ranks) a
  // gate-only run starts in a non-zero rank's chunk; on gate-level
  // backends the lowered add appends an ancilla, which starts at |0>.
  Program flip(4);
  flip.x(1);
  Program add(4);
  add.add({0, 2}, {2, 2});
  RunOptions opts;
  opts.initial_basis = 0b1001;  // a = 1, b = 2
  for (const std::string& name : backend_names()) {
    for (const Precision precision : {Precision::kF64, Precision::kF32}) {
      for (const int ranks : {2, 4}) {
        if (ranks != 2 && name != "dist") continue;
        opts.backend = name;
        opts.precision = precision;
        opts.dist_ranks = ranks;
        const std::string where = name + " at fp" + std::to_string(precision_bits(precision)) +
                                  ", " + std::to_string(ranks) + " ranks";
        EXPECT_EQ(Engine().run(flip, opts).state[0b1011], complex_t{1.0}) << where;
        const Result r = Engine().run(add, opts);
        const double tol = precision == Precision::kF64 ? 1e-12 : 1e-6;
        EXPECT_NEAR(std::norm(r.state[0b1101]), 1.0, tol) << where;  // b = 3
      }
    }
  }
  opts.backend = "auto";
  opts.initial_basis = dim(4);
  EXPECT_THROW((void)Engine().run(add, opts), std::invalid_argument);
}

TEST(Engine, LoweredRunReportsWidenedRegisterButReturnsProgramState) {
  Program p(4);
  p.h(0).h(1).multiply({0, 1}, {1, 1}, {2, 1});
  RunOptions opts;
  opts.backend = "hpc";
  const Result r = Engine().run(p, opts);
  EXPECT_EQ(r.run_qubits, 5u);  // + carry ancilla
  EXPECT_EQ(r.state.qubits(), 4u);
  EXPECT_NEAR(r.state.norm_sq(), 1.0, 1e-12);
}

// --- the "dist" backend ------------------------------------------------

/// Gate-segment + measurement + expectation program exercising every
/// engine-routed op on the distributed path.
Program dist_test_program(qubit_t n) {
  Program p(n);
  p.gates(prep_circuit(n))
      .expectation_z(bits::low_mask(n) & 0b1011)
      .measure({0, 2})
      .h(n - 1)
      .cr(0, n - 1, 0.41)
      .measure({static_cast<qubit_t>(n - 2), 2});
  return p;
}

TEST(DistBackend, MatchesHpcAcrossRankCounts) {
  const qubit_t n = 8;
  const Program p = dist_test_program(n);
  RunOptions hpc_opts;
  hpc_opts.backend = "hpc";
  hpc_opts.seed = 9;
  const Result ref = Engine().run(p, hpc_opts);
  for (const int ranks : {1, 2, 4, 8}) {
    RunOptions opts;
    opts.backend = "dist";
    opts.seed = 9;
    opts.dist_ranks = ranks;
    const Result r = Engine().run(p, opts);
    EXPECT_LT(r.state.max_abs_diff(ref.state), 1e-12) << "ranks=" << ranks;
    EXPECT_EQ(r.measurements, ref.measurements) << "ranks=" << ranks;
    ASSERT_EQ(r.expectations.size(), ref.expectations.size());
    for (std::size_t i = 0; i < r.expectations.size(); ++i)
      EXPECT_NEAR(r.expectations[i], ref.expectations[i], 1e-12) << "ranks=" << ranks;
  }
}

TEST(DistBackend, TinyRegisterClampsRanksAndStillAgrees) {
  // n = 3 with 8 or 16 requested ranks: clamped to 4 so every rank
  // keeps one local qubit — a two-amplitude chunk, which the local
  // pipeline runs as a single sweep chunk.
  const qubit_t n = 3;
  Program p(n);
  p.gates(prep_circuit(n)).measure({0, n});
  RunOptions hpc_opts;
  hpc_opts.backend = "hpc";
  const Result ref = Engine().run(p, hpc_opts);
  for (const int ranks : {8, 16}) {
    RunOptions opts;
    opts.backend = "dist";
    opts.dist_ranks = ranks;
    const Result r = Engine().run(p, opts);
    EXPECT_LT(r.state.max_abs_diff(ref.state), 1e-12) << "ranks=" << ranks;
    EXPECT_EQ(r.measurements, ref.measurements);
  }
}

TEST(DistBackend, LoweredHighLevelProgramRunsDistributed) {
  Program p(6);
  p.h(0).h(1).h(2).h(3).add({0, 2}, {2, 2}).multiply({0, 2}, {2, 2}, {4, 2}).measure({4, 2});
  expect_backends_agree(p, "dist");
}

/// A mixed program that forces op boundaries between every gate
/// segment: gates + Measure + ExpectationZ interleaved, which before
/// persistent sessions paid a scatter + gather per engine-routed op.
Program mixed_program(qubit_t n) {
  Program p(n);
  Circuit seg2(n), seg3(n);
  seg2.h(n - 1).cnot(0, n - 1).rz(n - 2, 0.7);
  seg3.rx(1, 0.3).cr(1, n - 1, 0.9).h(0);
  p.gates(prep_circuit(n))
      .expectation_z(0b101)
      .gates(seg2)
      .measure({0, 2})
      .gates(seg3)
      .expectation_z(bits::low_mask(n))
      .measure({static_cast<qubit_t>(n - 3), 3});
  return p;
}

TEST(DistBackend, ResidentMixedProgramAgreesWithHpc) {
  const qubit_t n = 9;
  const Program p = mixed_program(n);
  RunOptions hpc_opts;
  hpc_opts.backend = "hpc";
  hpc_opts.seed = 23;
  const Result ref = Engine().run(p, hpc_opts);
  for (const int ranks : {2, 4, 8}) {
    RunOptions opts;
    opts.backend = "dist";
    opts.seed = 23;
    opts.dist_ranks = ranks;
    const Result r = Engine().run(p, opts);
    EXPECT_LT(r.state.max_abs_diff(ref.state), 1e-12) << "ranks=" << ranks;
    EXPECT_EQ(r.measurements, ref.measurements) << "ranks=" << ranks;
    ASSERT_EQ(r.expectations.size(), ref.expectations.size());
    for (std::size_t i = 0; i < r.expectations.size(); ++i)
      EXPECT_NEAR(r.expectations[i], ref.expectations[i], 1e-12) << "ranks=" << ranks;
  }
}

TEST(DistBackend, ResidentMeasurementStreamBitIdenticalToCached) {
  // Seed determinism across state layouts: the resident distributed
  // run must record the exact same outcome indices as the serial
  // cache-blocked backend for one seed.
  const qubit_t n = 9;
  const Program p = mixed_program(n);
  RunOptions cached_opts;
  cached_opts.backend = "cached";
  cached_opts.seed = 77;
  const Result ref = Engine().run(p, cached_opts);
  RunOptions opts;
  opts.backend = "dist";
  opts.seed = 77;
  opts.dist_ranks = 4;
  const Result r = Engine().run(p, opts);
  EXPECT_EQ(r.measurements, ref.measurements);
}

TEST(DistBackend, ResidentRunStagesHostStateExactlyOnce) {
  // A multi-op 20-qubit program on the dist backend stages the state
  // exactly once: the ranks build their chunks at |initial_basis>
  // themselves, so nothing is scattered, and take_state() gathers once
  // (the trailing "[finalize]" row), asserted through the engine
  // trace's byte counters.
  const qubit_t n = 20;
  Program p(n);
  Circuit seg1(n), seg2(n), seg3(n);
  seg1.h(0).h(n - 1).cnot(0, n - 1);
  seg2.rz(n - 1, 0.25).h(1).cr(1, n - 2, 0.5);
  seg3.h(n - 2).cnot(1, 2);
  p.gates(seg1).expectation_z(0b11).gates(seg2).measure({0, 2}).gates(seg3);
  const std::uint64_t staging = models::staging_bytes(n);

  RunOptions opts;
  opts.backend = "dist";
  opts.dist_ranks = 4;
  const Result r = Engine().run(p, opts);
  // No staging on any op, the first included, one gather at finalize —
  // and the whole-run totals agree with the trace columns.
  ASSERT_EQ(r.trace.size(), p.size() + 1);  // + "[finalize]"
  for (std::size_t i = 0; i < r.trace.size() - 1; ++i)
    EXPECT_EQ(r.trace[i].host_bytes, 0u) << "op " << r.trace[i].op;
  EXPECT_EQ(r.trace.back().op, "[finalize]");
  EXPECT_EQ(r.trace.back().host_bytes, staging);
  EXPECT_EQ(r.host_bytes, staging);
}

TEST(DistBackend, RejectsNonPow2Ranks) {
  Program p(4);
  p.h(0);
  RunOptions opts;
  opts.backend = "dist";
  opts.dist_ranks = 3;
  EXPECT_THROW((void)Engine().run(p, opts), std::invalid_argument);
}

// --- gates wider than 16 qubits --------------------------------------

TEST(Engine, EighteenQubitGateOnEveryBackend) {
  // Z on qubit 17 with 17 controls, after H on every qubit: one gate on
  // more than 16 qubits. Exactly |1...1> flips sign.
  const qubit_t n = 18;
  Circuit c(n);
  for (qubit_t q = 0; q < n; ++q) c.h(q);
  circuit::Gate z = circuit::make_gate(circuit::GateKind::Z, n - 1);
  for (qubit_t q = 0; q + 1 < n; ++q) z.controls.push_back(q);
  c.append(z);
  Program p(n);
  p.gates(c);
  const double amp = 1.0 / std::sqrt(static_cast<double>(dim(n)));
  for (const std::string& backend : backend_names()) {
    RunOptions opts;
    opts.backend = backend;
    const Result r = Engine().run(p, opts);
    double err = 0;
    for (index_t i = 0; i < dim(n); ++i)
      err = std::max(err, std::abs(r.state[i] - complex_t{i + 1 == dim(n) ? -amp : amp}));
    EXPECT_LT(err, 1e-12) << backend;
  }
}

// --- measurement-stream determinism and non-collapse ------------------

TEST(Engine, MeasurementStreamSeedDeterministicAcrossAllBackends) {
  const qubit_t n = 6;
  Program p(n);
  p.gates(prep_circuit(n)).measure({0, 3}).cnot(0, 5).measure({3, 3}).measure({0, n});
  std::vector<index_t> ref;
  for (const char* backend :
       {"auto", "cached", "dist", "fused", "hpc", "liquid-like", "qhipster-like"}) {
    RunOptions opts;
    opts.backend = backend;
    opts.seed = 31;
    const Result r = Engine().run(p, opts);
    ASSERT_EQ(r.measurements.size(), 3u) << backend;
    if (ref.empty()) {
      ref = r.measurements;
    } else {
      EXPECT_EQ(r.measurements, ref) << backend;
    }
  }
}

TEST(Engine, NoCollapseLeavesStateBitIdentical) {
  // With collapse_measurements off, a Measure op must be a pure read:
  // the final state equals the measure-free run bit for bit. Both
  // programs use identical gate-segment boundaries (.gates() forces a
  // fresh segment) so fusing backends build identical plans.
  const qubit_t n = 7;
  Circuit hseg(n);
  hseg.h(0);
  Program with_measure(n);
  with_measure.gates(prep_circuit(n)).measure({0, 3}).gates(hseg).measure({2, 4});
  Program without(n);
  without.gates(prep_circuit(n)).gates(hseg);
  for (const char* backend :
       {"auto", "cached", "dist", "fused", "hpc", "liquid-like", "qhipster-like"}) {
    RunOptions opts;
    opts.backend = backend;
    opts.collapse_measurements = false;
    const Result a = Engine().run(with_measure, opts);
    const Result b = Engine().run(without, opts);
    ASSERT_EQ(a.state.qubits(), b.state.qubits()) << backend;
    for (index_t i = 0; i < a.state.size(); ++i) {
      EXPECT_EQ(a.state[i].real(), b.state[i].real()) << backend << " i=" << i;
      EXPECT_EQ(a.state[i].imag(), b.state[i].imag()) << backend << " i=" << i;
    }
  }
}

// --- structured trace acceptance (PR 6) -------------------------------

TEST(Engine, TracedDistRunValidatesModelAndAccountsEveryByte) {
  // A 16-qubit, 4-rank run with tracing on. The model-validation
  // report must contain predicted-vs-measured rows for both the sweep
  // family (models::t_state_pass_seconds) and the chunk-exchange family
  // (Eq. 6, models::t_chunk_exchange_seconds) — and the bytes those
  // rows attribute must sum to Result.net_bytes *exactly*: every site
  // that bumps the communication counter is also a pred_s span.
  const qubit_t n = 16;
  Program p(n);
  p.gates(prep_circuit(n)).qft().expectation_z(0b11).measure({0, 4});
  RunOptions opts;
  opts.backend = "dist";
  opts.dist_ranks = 4;
  opts.collapse_measurements = false;
  opts.trace = true;
  const Result res = Engine().run(p, opts);
  ASSERT_NE(res.trace_data, nullptr);
  EXPECT_GT(res.net_bytes, 0u);

  const std::vector<obs::ModelRow> rows = obs::model_report(*res.trace_data);
  bool saw_sweep = false, saw_exchange = false;
  std::uint64_t row_bytes = 0;
  for (const obs::ModelRow& row : rows) {
    EXPECT_GT(row.predicted_s, 0.0) << row.name;
    EXPECT_GT(row.count, 0u) << row.name;
    if (row.name == "sched.sweep") saw_sweep = true;
    if (row.name.rfind("dist.exchange", 0) == 0 && row.bytes > 0) saw_exchange = true;
    row_bytes += row.bytes;
  }
  EXPECT_TRUE(saw_sweep) << "no sweep-memory rows in the model report";
  EXPECT_TRUE(saw_exchange) << "no chunk-exchange rows in the model report";
  EXPECT_EQ(row_bytes, res.net_bytes);
}

}  // namespace
}  // namespace qc::engine
