// Differential fuzzer: seeded random programs on every registered
// backend at fp64 and fp32, and on "dist" at 1, 2, 4 and 8 ranks, each
// checked against "hpc" at fp64.
//
// A program mixes random gate segments in the style of em-pyquil's
// get_random_circuit (SNIPPETS.md), over H, X, Rx, Ry, Rz, CZ, CNOT,
// controlled phase and SWAP, with the high-level ops the emulating
// backends run at their mathematical description and the gate-level ones
// run lowered: whole- and sub-register QFTs and inverse QFTs, add,
// multiply, apply_function and phase_oracle. It measures (collapsing or
// read-only, one choice per program) and takes expectations. Per run:
//  * the final state agrees with hpc at fp64, within 1e-12 at fp64 and
//    within the fp32 contract's 1e-6 at fp32 (max amplitude error), and
//    each expectation within the 2 sqrt(2^n) times that bound implies;
//  * the measurement stream is identical to hpc's at the same precision.
// A seed that fails prints its program, and then becomes a TEST of its
// own below the sweep, named after what it caught, that runs check_seed
// on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/engine.hpp"

namespace qc::engine {
namespace {

constexpr std::uint64_t kFirstSeed = 1;
constexpr std::uint64_t kPrograms = 200;

struct Generated {
  Program program;
  bool collapse = true;  ///< RunOptions::collapse_measurements.
};

/// `k` disjoint registers of one width w in [1, max_width], at random
/// slots of an n-qubit register.
std::vector<RegRef> disjoint_regs(Rng& rng, qubit_t n, qubit_t k, qubit_t max_width) {
  const auto w = static_cast<qubit_t>(1 + rng.uniform_u64(std::min<qubit_t>(max_width, n / k)));
  const qubit_t slots = n / w;
  std::vector<qubit_t> order(slots);
  for (qubit_t s = 0; s < slots; ++s) order[s] = s;
  for (qubit_t s = slots; s > 1; --s) std::swap(order[s - 1], order[rng.uniform_u64(s)]);
  const auto shift = static_cast<qubit_t>(rng.uniform_u64(n - slots * w + 1));
  std::vector<RegRef> regs;
  for (qubit_t j = 0; j < k; ++j)
    regs.push_back({static_cast<qubit_t>(shift + order[j] * w), w});
  return regs;
}

/// A contiguous register of width in [1, max_width].
RegRef any_reg(Rng& rng, qubit_t n, qubit_t max_width) {
  const auto w = static_cast<qubit_t>(1 + rng.uniform_u64(std::min(max_width, n)));
  return {static_cast<qubit_t>(rng.uniform_u64(n - w + 1)), w};
}

/// get_random_circuit's segment, widened: with probability 0.3 a
/// two-qubit gate on a random pair, else a one-qubit gate.
void random_segment(Program& p, Rng& rng, qubit_t n) {
  constexpr double kPi = 3.14159265358979323846;
  const std::uint64_t length = 1 + rng.uniform_u64(2 * n);
  for (std::uint64_t i = 0; i < length; ++i) {
    const auto a = static_cast<qubit_t>(rng.uniform_u64(n));
    if (rng.uniform() < 0.3) {
      auto b = static_cast<qubit_t>(rng.uniform_u64(n - 1));
      if (b >= a) ++b;
      switch (rng.uniform_u64(4)) {
        case 0: p.cz(a, b); break;
        case 1: p.cnot(a, b); break;
        case 2: p.cr(a, b, 2 * kPi * rng.uniform()); break;
        default: p.swap(a, b); break;
      }
      continue;
    }
    switch (rng.uniform_u64(6)) {
      case 0: p.h(a); break;
      case 1: p.x(a); break;
      case 2: p.rx(a, kPi / 2); break;
      case 3: p.rx(a, -kPi / 2); break;
      // The one block here that is not symmetric: an exchange that mixes
      // up m01 and m10 shows only under it.
      case 4: p.ry(a, 2 * kPi * rng.uniform()); break;
      default: p.rz(a, 2 * kPi * rng.uniform()); break;
    }
  }
}

/// The program of `seed`: 4 to 8 qubits, a leading gate segment (so the
/// high-level ops act on superpositions), then 2 to 5 random ops with at
/// most one measurement, of at most two qubits. A collapse onto an
/// outcome of probability p scales every amplitude error by 1/sqrt(p),
/// and the fp32 bound holds only with that kept short: over 4000 seeds
/// with every measurement collapsing, hpc's largest fp32 error reads
/// 7.4e-7 here, against 2.5e-6 with up to seven ops and any number of
/// measurements.
Generated random_program(std::uint64_t seed) {
  Rng rng(seed);
  const auto n = static_cast<qubit_t>(4 + rng.uniform_u64(5));
  Generated g{Program(n), rng.uniform() < 0.5};
  Program& p = g.program;
  random_segment(p, rng, n);
  const std::uint64_t ops = 2 + rng.uniform_u64(4);
  bool measured = false;
  for (std::uint64_t i = 0; i < ops; ++i) {
    switch (rng.uniform_u64(10)) {
      case 0: random_segment(p, rng, n); break;
      case 1:
        if (rng.uniform() < 0.5) {
          p.qft();
        } else {
          p.qft(any_reg(rng, n, n));
        }
        break;
      case 2:
        if (rng.uniform() < 0.5) {
          p.inverse_qft();
        } else {
          p.inverse_qft(any_reg(rng, n, n));
        }
        break;
      case 3: {
        const auto r = disjoint_regs(rng, n, 2, 3);
        p.add(r[0], r[1]);
        break;
      }
      case 4: {
        const auto r = disjoint_regs(rng, n, 3, 2);
        p.multiply(r[0], r[1], r[2]);
        break;
      }
      case 5: {
        const auto r = disjoint_regs(rng, n, 2, 3);
        const index_t k = rng.uniform_u64(8), c = rng.uniform_u64(8);
        p.apply_function(r[0], r[1], [k, c](index_t x) { return k * x * x + c * x + 1; });
        break;
      }
      case 6: {
        // At most four marked basis states: all but up to two bits fixed.
        index_t mask = bits::low_mask(n);
        for (int j = 0; j < 2; ++j) mask &= ~bits::bit(static_cast<qubit_t>(rng.uniform_u64(n)));
        const index_t value = rng.uniform_u64(dim(n)) & mask;
        p.phase_oracle([mask, value](index_t i) { return (i & mask) == value; });
        break;
      }
      case 7: random_segment(p, rng, n); break;
      case 8:
        if (!measured) {
          p.measure(any_reg(rng, n, 2));
          measured = true;
          break;
        }
        [[fallthrough]];
      default: p.expectation_z(1 + rng.uniform_u64(dim(n) - 1)); break;
    }
  }
  return g;
}

struct Config {
  std::string backend;
  Precision precision = Precision::kF64;
  int ranks = 0;  ///< dist only.
};

/// Every registered backend at both precisions, dist at 1, 2, 4, 8 ranks.
std::vector<Config> configs() {
  std::vector<Config> out;
  for (const Precision precision : {Precision::kF64, Precision::kF32})
    for (const std::string& name : backend_names()) {
      if (name != "dist") {
        out.push_back({name, precision, 0});
        continue;
      }
      for (const int ranks : {1, 2, 4, 8}) out.push_back({name, precision, ranks});
    }
  return out;
}

/// Runs one seed's program across every config; returns "" when every
/// check holds, else one line per failed check.
std::string check_seed(std::uint64_t seed, const std::vector<Config>& matrix) {
  const Generated g = random_program(seed);
  const Engine eng;
  RunOptions base;
  base.seed = seed;
  base.collapse_measurements = g.collapse;
  RunOptions ref_opts = base;
  ref_opts.backend = "hpc";
  const Result ref = eng.run(g.program, ref_opts);
  ref_opts.precision = Precision::kF32;
  const std::vector<index_t> ref32_stream = eng.run(g.program, ref_opts).measurements;

  std::string failures;
  for (const Config& cfg : matrix) {
    RunOptions opts = base;
    opts.backend = cfg.backend;
    opts.precision = cfg.precision;
    if (cfg.ranks > 0) opts.dist_ranks = cfg.ranks;
    const bool f64 = cfg.precision == Precision::kF64;
    const double tol = f64 ? 1e-12 : 1e-6;
    const std::string where = cfg.backend + (cfg.ranks > 0 ? "/" + std::to_string(cfg.ranks) : "") +
                              " " + precision_name(cfg.precision) + ": ";
    try {
      const Result r = eng.run(g.program, opts);
      const double diff = r.state.max_abs_diff(ref.state);
      if (!(diff <= tol)) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3g", diff);
        failures += where + "state differs by " + buf + "\n";
      }
      if (r.measurements != (f64 ? ref.measurements : ref32_stream))
        failures += where + "measurement stream differs\n";
      // <Z> moves by at most 2 ||d psi||_2 <= 2 sqrt(2^n) max |d amp|:
      // the expectation bound the state bound implies.
      const double z_tol = 2 * std::sqrt(static_cast<double>(dim(g.program.qubits()))) * tol;
      bool expectations_agree = r.expectations.size() == ref.expectations.size();
      for (std::size_t i = 0; expectations_agree && i < r.expectations.size(); ++i)
        expectations_agree = std::abs(r.expectations[i] - ref.expectations[i]) <= z_tol;
      if (!expectations_agree) failures += where + "expectations differ\n";
    } catch (const std::exception& e) {
      failures += where + "threw: " + e.what() + "\n";
    }
  }
  if (failures.empty()) return failures;
  return "seed " + std::to_string(seed) + (g.collapse ? " (collapsing)" : " (read-only)") +
         "\n" + g.program.to_string() + failures;
}

TEST(Fuzz, SeededProgramsAgreeWithHpcOnEveryBackendPrecisionAndRankCount) {
  const std::vector<Config> matrix = configs();
  ASSERT_GE(matrix.size(), 8u);
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kPrograms; ++seed) {
    const std::string failures = check_seed(seed, matrix);
    EXPECT_TRUE(failures.empty()) << failures;
  }
}

}  // namespace
}  // namespace qc::engine
