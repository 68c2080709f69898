// bench_suite — the repository's front-door benchmark.
//
// Every workload is an engine::Program generated from --seed and executed
// through engine::Engine::run, the entry point users take; the program
// never sees the seed, only the generated ops. One launch of this binary
// runs one workload as a closed loop with a single caller:
//   1. one cold run — it counts toward setup_s only (main() entry to the
//      return of the first Engine::run: program generation, thread and
//      session spawn, FFT plans, first touch) — and the launch's peak
//      RSS is read when it returns;
//   2. warm untraced runs, each timed around the Engine::run call
//      (the workload's K, or as many as fit in --seconds T), and each
//      followed by a timed host reference pass over a state-sized
//      buffer (HostPass), the unit run_passes counts the run in;
//   3. with --trace, one traced run whose span tree attribute() splits
//      into per-layer self times that sum to the engine.run span.
// Every run passes through the workload's correctness gate; a run that
// throws, misses the gate, degrades or completes on another backend
// counts as failed. The launch prints one JSON line, which
// bench_suite/run_suite.py pools across launches.
//
// Probes run in their own process so they never inflate a launch's peak
// RSS: `--probe triad` measures the host's STREAM-triad bandwidth (the
// denominator of every *_bw_frac), `--probe cells` times the
// layer-isolating micro-cells (state allocation, arb23-style hbench and
// swapbench) through the public sim entry points at one workload's size,
// precision and thread count.
//
// Run: bench_suite --list
//      bench_suite --workload W [--seed 11] [--seconds T] [--trace] [--smoke]
//      bench_suite --probe triad
//      bench_suite --probe cells --workload W
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <numbers>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <malloc.h>
#include <omp.h>

#include "common/aligned.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "engine/engine.hpp"
#include "obs/report.hpp"
#include "sim/kernels.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace qc;

enum class Kind { Qft, Mirror, Grover, Shor };

/// One row of the workload matrix. The sizes were chosen so every
/// workload stresses a different layer (see bench_suite/README.md).
struct Workload {
  const char* name;
  Kind kind;
  const char* backend;
  Precision precision;
  qubit_t qubits;        ///< Full size.
  qubit_t smoke_qubits;  ///< --smoke size.
  int runs;              ///< Warm runs per launch (K) when no --seconds is given.
  int ranks;             ///< "dist" rank count (0: single node).
  int omp_threads;       ///< OMP_NUM_THREADS run_suite.py sets (ranks x threads <= 4).
  double tol;            ///< Correctness gate on check.err.
};

// Grover stays at 16 qubits: its diffusion gate carries n-1 controls, and
// any gate on more than 16 qubits overruns sim::kernels::BitExpander.
// The two 16-qubit workloads run one OpenMP thread: on their 1 MiB state
// every op is a short parallel region, and with 4 threads the fork/join
// latency on a shared host swung their run time far more than the work.
constexpr Workload kWorkloads[] = {
    {"qft_emu", Kind::Qft, "auto", Precision::kF64, 24, 16, 2, 0, 4, 1e-10},
    {"gates_f64", Kind::Mirror, "auto", Precision::kF64, 24, 16, 2, 0, 4, 1e-10},
    {"gates_f32", Kind::Mirror, "auto", Precision::kF32, 24, 16, 2, 0, 4, 1e-5},
    {"grover_emu", Kind::Grover, "auto", Precision::kF64, 16, 10, 8, 0, 1, 1e-2},
    {"shor_sim", Kind::Shor, "hpc", Precision::kF64, 16, 10, 4, 0, 1, 1e-9},
    {"dist_qft", Kind::Qft, "dist", Precision::kF64, 22, 14, 2, 4, 1, 1e-10},
};

constexpr int kMirrorGates = 100;  ///< Random gates before the mirror.
/// The mirror circuit's one structure draw (see mirror_program); at 24
/// qubits its plan mixes 9 sweeps, 9 remaps and 11 global items.
constexpr std::uint64_t kMirrorStructureSeed = 8;
constexpr index_t kShorModulus = 21;
constexpr qubit_t kShorValueBits = 5;  ///< Bits of the value register (21 < 32).

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// --- JSON output ---------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      (out += '\\') += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_obj(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += json_str(k) + ": " + json_num(v);
  }
  return out + "}";
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// --- program generation ----------------------------------------------------

index_t pow_mod(index_t base, index_t e, index_t mod) {
  index_t r = 1 % mod;
  base %= mod;
  while (e > 0) {
    if (e & 1) r = r * base % mod;
    base = base * base % mod;
    e >>= 1;
  }
  return r;
}

/// Everything one launch runs: the generated program, its run options,
/// and what the correctness gate compares against.
struct Instance {
  engine::Program program;
  engine::RunOptions opts;
  index_t marked = 0;                       ///< grover_emu: the marked item.
  std::optional<engine::Result> reference;  ///< shor_sim: the "auto" run.
};

/// Seeded prep rotations -> qft() -> inverse_qft() -> unprep: the exact
/// result is |0...0>. On "auto" both transforms run as FFTs (paper §3.2);
/// a gate-level backend lowers them to the O(n^2) cascade.
engine::Program qft_program(qubit_t n, Rng& rng) {
  std::vector<double> theta(n);
  for (double& t : theta) t = rng.uniform(0.0, 2.0 * std::numbers::pi);
  engine::Program p(n);
  for (qubit_t q = 0; q < n; ++q) p.h(q).rz(q, theta[q]);
  p.qft().inverse_qft();
  for (qubit_t q = 0; q < n; ++q) p.rz(q, -theta[q]).h(q);
  return p;
}

/// em-pyquil's get_random_circuit mirror: random {Rz(theta), Rx(+-pi/2),
/// CZ (p = 0.3)} gates on random qubits, then their inverses in reverse
/// order — one gate segment whose exact result is |0...0>. Which qubits
/// each gate touches, and whether it is CZ, Rz or Rx, comes from one
/// fixed draw: that structure sets the fused blocks and the plan's
/// sweeps, remaps and global items, and a per-seed structure would make
/// the run time depend on the seed. The seed draws the angles and signs.
engine::Program mirror_program(qubit_t n, Rng& rng) {
  Rng shape(kMirrorStructureSeed);
  circuit::Circuit c(n);
  for (int i = 0; i < kMirrorGates; ++i) {
    if (shape.uniform() < 0.3) {
      const auto a = static_cast<qubit_t>(shape.uniform_u64(n));
      auto b = static_cast<qubit_t>(shape.uniform_u64(n - 1));
      if (b >= a) ++b;
      c.cz(a, b);
      continue;
    }
    const auto q = static_cast<qubit_t>(shape.uniform_u64(n));
    if (shape.uniform() < 1.0 / 3.0) {
      c.rz(q, rng.uniform(0.0, 2.0 * std::numbers::pi));
    } else {
      c.rx(q, rng.uniform() < 0.5 ? std::numbers::pi / 2 : -std::numbers::pi / 2);
    }
  }
  const circuit::Circuit undo = c.inverse();
  engine::Program p(n);
  for (const circuit::Gate& g : c.gates()) p.gate(g);
  for (const circuit::Gate& g : undo.gates()) p.gate(g);
  return p;
}

/// Grover search for a seeded marked item: round(pi/4 sqrt(2^n))
/// iterations of phase_oracle + diffusion segment, then one measurement.
engine::Program grover_program(qubit_t n, index_t marked) {
  circuit::Circuit diffusion(n);
  for (qubit_t q = 0; q < n; ++q) diffusion.h(q).x(q);
  circuit::Gate cz = circuit::make_gate(circuit::GateKind::Z, n - 1);
  for (qubit_t q = 0; q + 1 < n; ++q) cz.controls.push_back(q);
  diffusion.append(cz);
  for (qubit_t q = 0; q < n; ++q) diffusion.x(q).h(q);

  const auto iterations = static_cast<int>(
      std::round(std::numbers::pi / 4.0 * std::sqrt(static_cast<double>(dim(n)))));
  engine::Program p(n);
  for (qubit_t q = 0; q < n; ++q) p.h(q);
  for (int it = 0; it < iterations; ++it) {
    p.phase_oracle([marked](index_t i) { return i == marked; });
    p.gates(diffusion);
  }
  p.measure({0, n});
  return p;
}

/// Shor order finding for N = 21 with a seeded base a: H on the
/// exponent register, value += a^e mod N, inverse QFT, measure.
engine::Program shor_program(qubit_t n, index_t a) {
  const qubit_t t = n - kShorValueBits;
  engine::Program p(n);
  for (qubit_t q = 0; q < t; ++q) p.h(q);
  p.apply_function({0, t}, {t, kShorValueBits},
                   [a](index_t e) { return pow_mod(a, e, kShorModulus); });
  p.inverse_qft({0, t});
  p.measure({0, t});
  return p;
}

Instance make_instance(const Workload& w, qubit_t n, std::uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  inst.opts.backend = w.backend;
  inst.opts.precision = w.precision;
  inst.opts.seed = rng.next_u64();  // measurement draws
  if (w.ranks > 0) inst.opts.dist_ranks = w.ranks;
  switch (w.kind) {
    case Kind::Qft: inst.program = qft_program(n, rng); break;
    case Kind::Mirror: inst.program = mirror_program(n, rng); break;
    case Kind::Grover:
      inst.marked = rng.uniform_u64(dim(n));
      inst.program = grover_program(n, inst.marked);
      // Keep the pre-measurement state so the gate can read P(marked).
      inst.opts.collapse_measurements = false;
      break;
    case Kind::Shor: {
      // Only bases of the largest multiplicative order mod N (6 for 21):
      // every seed then finds the same order, and the lowered circuit
      // stays within a few percent of one size.
      std::vector<index_t> bases;
      int best = 0;
      for (index_t a = 2; a < kShorModulus; ++a) {
        if (std::gcd(a, kShorModulus) != 1) continue;
        int order = 1;
        for (index_t x = a; x != 1; x = x * a % kShorModulus) ++order;
        if (order > best) {
          best = order;
          bases.clear();
        }
        if (order == best) bases.push_back(a);
      }
      inst.program = shor_program(n, bases[rng.uniform_u64(bases.size())]);
      break;
    }
  }
  return inst;
}

/// The value the workload's correctness gate tests (check.err); a run
/// passes when it is <= Workload::tol. Infinity marks a wrong outcome.
double check_error(const Workload& w, const Instance& inst, const engine::Result& r) {
  constexpr double kWrong = std::numeric_limits<double>::infinity();
  switch (w.kind) {
    case Kind::Qft:
    case Kind::Mirror:
      return std::abs(1.0 - std::norm(r.state[0]));  // 1 - |<0|psi>|^2
    case Kind::Grover:
      if (r.measurements.size() != 1 || r.measurements[0] != inst.marked) return kWrong;
      return 1.0 - std::norm(r.state[inst.marked]);
    case Kind::Shor:
      if (!inst.reference || r.measurements != inst.reference->measurements) return kWrong;
      return r.state.max_abs_diff(inst.reference->state);
  }
  return kWrong;
}

// --- per-layer attribution of one traced run -------------------------------

/// Layer of a span, by name; "" when the table does not know it.
std::string layer_of(const std::string& name) {
  static const std::map<std::string, std::string> exact = {
      {"engine.run", "engine.residual"}, {"[finalize]", "engine.residual"},
      {"engine.lower", "engine.lower"},   {"phase_oracle", "emu.oracle"},
      {"phase_function", "emu.oracle"},   {"fuse.pass", "fuse.pass"},
      {"fuse.block", "sim.segment"},      {"sched.plan", "sched.plan"},
      {"sched.dist_plan", "sched.plan"},  {"sched.sweep", "sched.sweep"},
      {"sched.remap", "sched.remap"},     {"sched.global", "sched.global"},
      {"dist.scatter", "dist.staging"},   {"dist.gather", "dist.staging"},
      {"dist.checkpoint", "dist.staging"}, {"dist.restore", "dist.staging"},
      {"dist.plan", "dist.local"},        {"dist.local", "dist.local"},
      {"dist.exchange", "dist.exchange"}, {"dist.exchange_pass", "dist.exchange"},
      {"dist.gate", "dist.gate"},         {"cluster.barrier", "cluster.barrier"},
  };
  // Engine op spans are named by Op::label(), e.g. "qft(@0:24)".
  static const std::pair<const char*, const char*> prefixes[] = {
      {"qft(", "emu.fft"},        {"inverse_qft(", "emu.fft"},
      {"add(", "emu.arith"},      {"multiply(", "emu.arith"},
      {"multiply_mod(", "emu.arith"}, {"divide(", "emu.arith"},
      {"apply_function(", "emu.arith"}, {"gates(", "sim.segment"},
      {"measure(", "sim.measure"}, {"expectation_z(", "sim.measure"},
  };
  if (const auto it = exact.find(name); it != exact.end()) return it->second;
  for (const auto& [prefix, layer] : prefixes)
    if (name.rfind(prefix, 0) == 0) return layer;
  return "";
}

bool is_op_layer(const std::string& layer) {
  return layer.rfind("emu.", 0) == 0 || layer == "sim.segment" || layer == "sim.measure";
}

/// Self times and span counts per layer of one traced Engine::run.
struct Attribution {
  std::map<std::string, double> self_s;  ///< Layer -> seconds.
  std::map<std::string, double> count;   ///< Layer -> spans of that layer.
  double run_s = 0;                      ///< engine.run span duration.
  double ops = 0;                        ///< Engine op spans executed.
};

/// Splits the engine.run span into layer self times: a span's self time
/// is its duration minus what its children cover. Rank-lane spans count
/// at 1/R weight (a per-rank mean), so a driver span that waited on
/// cluster jobs keeps only the part of its time not covered by the mean
/// job — charged to "cluster.park", the ranks' idle time at the handoff.
/// By construction the rows sum to engine.run. A cluster.job span and an
/// instant take the layer of their parent. Any other span layer_of()
/// does not know — one renamed or added in src/ — would silently bill
/// its time to its parent's layer, so it throws instead.
Attribution attribute(const obs::TraceData& td) {
  const obs::SpanEvent* root = nullptr;
  std::map<obs::span_id, std::vector<const obs::SpanEvent*>> children;
  std::set<int> rank_lanes;
  for (const obs::SpanEvent& s : td.spans) {
    if (s.name == "engine.run" && s.lane == 0) root = &s;  // last attempt wins
    children[s.parent].push_back(&s);
    if (s.lane > 0 && s.name == "cluster.job") rank_lanes.insert(s.lane);
  }
  if (root == nullptr) throw std::runtime_error("traced run recorded no engine.run span");
  Attribution out;
  out.run_s = root->dur_s;
  const double ranks = std::max(1.0, static_cast<double>(rank_lanes.size()));

  const std::function<void(const obs::SpanEvent&, double, const std::string&)> visit =
      [&](const obs::SpanEvent& s, double weight, const std::string& inherited) {
        std::string layer = layer_of(s.name);
        if (!layer.empty()) {
          out.count[layer] += weight;
          if (s.parent == root->id && is_op_layer(layer)) out.ops += weight;
        } else if (s.name == "cluster.job" || s.dur_s == 0) {
          layer = inherited;
        } else {
          throw std::runtime_error("span '" + s.name +
                                   "' matches no layer; add it to layer_of() in suite.cpp");
        }
        const auto it = children.find(s.id);
        double covered = 0;
        bool waited_on_ranks = false;
        if (it != children.end())
          for (const obs::SpanEvent* c : it->second) {
            if (c->lane == s.lane) {
              covered += c->dur_s;
            } else {
              covered += c->dur_s / ranks;
              waited_on_ranks = true;
            }
          }
        out.self_s[waited_on_ranks ? "cluster.park" : layer] += weight * (s.dur_s - covered);
        if (it != children.end())
          for (const obs::SpanEvent* c : it->second)
            visit(*c, c->lane == s.lane ? weight : weight / ranks, layer);
      };
  visit(*root, 1.0, "engine.residual");
  return out;
}

/// Measured / predicted seconds over the model-report rows whose name
/// starts with `family` (0 when no span carried a prediction).
double drift(const std::vector<obs::ModelRow>& rows, const std::string& family) {
  double measured = 0, predicted = 0;
  for (const obs::ModelRow& r : rows)
    if (r.name.rfind(family, 0) == 0) {
      measured += r.measured_s;
      predicted += r.predicted_s;
    }
  return predicted > 0 ? measured / predicted : 0;
}

/// The per-layer numbers of one traced run, flat, named as in
/// BENCHMARK.json (bandwidth fractions are finished by run_suite.py,
/// which owns the host probe; here they are computed bytes).
std::map<std::string, double> layer_metrics(const Workload& w, qubit_t n,
                                            const engine::Result& r) {
  const obs::TraceData& td = *r.trace_data;
  const Attribution a = attribute(td);
  const auto self = [&](const char* layer) {
    const auto it = a.self_s.find(layer);
    return it != a.self_s.end() ? it->second : 0.0;
  };
  const auto count = [&](const char* layer) {
    const auto it = a.count.find(layer);
    return it != a.count.end() ? it->second : 0.0;
  };
  std::map<std::string, double> m;
  for (const auto& [layer, s] : a.self_s) m["self." + layer] = s;
  m["engine.run_s"] = a.run_s;
  m["engine.residual_frac"] = a.run_s > 0 ? self("engine.residual") / a.run_s : 0;
  m["engine.lower_s"] = self("engine.lower");
  m["engine.ops"] = a.ops;
  m["emu.fft_s"] = self("emu.fft");
  m["emu.oracle_s"] = self("emu.oracle");
  m["fuse.pass_s"] = self("fuse.pass");
  m["fuse.passes"] = count("fuse.pass");
  m["sched.plan_s"] = self("sched.plan");
  m["sched.plans"] = count("sched.plan");
  m["sched.sweep_s"] = self("sched.sweep");
  m["sched.remap_s"] = self("sched.remap");
  m["sched.global_s"] = self("sched.global");
  m["sched.sweeps"] = count("sched.sweep");
  m["sched.remaps"] = count("sched.remap");
  m["sched.globals"] = count("sched.global");
  m["sched.state_passes"] = count("sched.sweep") + count("sched.remap") + count("sched.global");
  m["sim.segment_self_s"] = self("sim.segment");
  m["sim.measure_s"] = self("sim.measure");
  m["dist.staging_s"] = self("dist.staging");
  m["dist.local_s"] = self("dist.local");
  m["dist.exchange_s"] = self("dist.exchange");
  m["dist.gate_s"] = self("dist.gate");
  m["dist.exchanges"] = count("dist.exchange");
  m["dist.net_bytes"] = static_cast<double>(r.net_bytes);
  m["dist.host_bytes"] = static_cast<double>(r.host_bytes);
  m["dist.exchange_gbs"] =
      self("dist.exchange") > 0 ? static_cast<double>(r.net_bytes) / self("dist.exchange") / 1e9
                                : 0;
  m["cluster.barrier_s"] = self("cluster.barrier");
  m["cluster.park_s"] = self("cluster.park");
  m["cluster.imbalance"] = obs::load_imbalance(td);
  const std::vector<obs::ModelRow> rows = obs::model_report(td);
  m["models.sweep_drift"] = drift(rows, "sched.sweep");
  m["models.exchange_drift"] = drift(rows, "dist.exchange");
  // Computed bytes: one read and one write of the whole state per item
  // (a lower bound for the FFT, which makes several passes).
  const double state = static_cast<double>(dim(n));
  const double pass_bytes = 2.0 * state * static_cast<double>(amplitude_bytes(w.precision));
  m["bytes.emu.fft"] = 2.0 * state * sizeof(complex_t) * count("emu.fft");
  m["bytes.sched.sweep"] = pass_bytes * count("sched.sweep");
  m["bytes.sched.remap"] = pass_bytes * count("sched.remap");
  m["bytes.sched.global"] = pass_bytes * count("sched.global");
  return m;
}

// --- one launch --------------------------------------------------------------

struct Tally {
  long attempted = 0;
  long failed = 0;
  double max_err = 0;
  std::vector<std::string> errors;
};

/// One Engine::run; the wall time around the call goes to `seconds`.
/// Exceptions are recorded in the tally (the caller judges the result).
std::optional<engine::Result> attempt(const engine::Engine& eng, const Instance& inst,
                                      const engine::RunOptions& opts, Tally& tally,
                                      double& seconds) {
  ++tally.attempted;
  try {
    const WallTimer t;
    engine::Result r = eng.run(inst.program, opts);
    seconds = t.seconds();
    return r;
  } catch (const std::exception& e) {
    tally.errors.push_back(e.what());
    return std::nullopt;
  }
}

/// Applies the correctness gate; returns whether the run passed.
bool judge(const Workload& w, const Instance& inst, const std::optional<engine::Result>& r,
           Tally& tally) {
  std::string why;
  if (!r) {
    why = "threw";  // message already recorded by attempt()
  } else if (r->degraded || r->backend != inst.opts.backend) {
    why = "completed on '" + r->backend + "' instead of '" + inst.opts.backend + "'";
  } else {
    const double err = check_error(w, inst, *r);
    if (!std::isfinite(err)) {
      why = "correctness gate: wrong measurement outcome";
    } else {
      tally.max_err = std::max(tally.max_err, err);
      if (err > w.tol) why = "correctness gate: err " + json_num(err) + " > " + json_num(w.tol);
    }
  }
  if (why.empty()) return true;
  ++tally.failed;
  if (r) tally.errors.push_back(why);
  return false;
}

/// Share of each warm run's time spent timing the host reference pass
/// right after it (the pass that run_passes divides by).
constexpr double kPassShare = 0.1;

/// The host's reference pass: one read and one write of an fp64 buffer
/// of the workload's state size, rotating every amplitude by a fixed
/// phase, on the workload's threads. fp64 at either precision, because
/// an fp32 run still holds the fp64 state it narrows from. It is the
/// benchmark's own code, so a change to the library never moves it;
/// only the host's speed at that moment does. Holds the buffer across
/// calls so it is touched once.
class HostPass {
 public:
  HostPass(const Workload& w, qubit_t n)
      : values_(2 * dim(n), 1.0), threads_(w.ranks > 0 ? w.ranks : omp_get_max_threads()) {}

  /// Median seconds of one pass, over passes timed until they fill
  /// `budget_s` (at least three).
  double seconds(double budget_s) {
    std::vector<double> secs;
    double spent = 0;
    while (secs.size() < 3 || spent < budget_s) {
      const WallTimer t;
      rotate();
      secs.push_back(t.seconds());
      spent += secs.back();
    }
    return median(secs);
  }

 private:
  /// x <- x * (0.6 + 0.8i) over the interleaved (re, im) pairs; the
  /// factor has modulus 1, so the values stay bounded however many
  /// passes run.
  void rotate() {
    const auto pairs = static_cast<std::int64_t>(values_.size() / 2);
    double* x = values_.data();
    constexpr double c = 0.6, s = 0.8;
#pragma omp parallel for num_threads(threads_) schedule(static)
    for (std::int64_t i = 0; i < pairs; ++i) {
      const double re = x[2 * i], im = x[2 * i + 1];
      x[2 * i] = re * c - im * s;
      x[2 * i + 1] = re * s + im * c;
    }
  }

  std::vector<double> values_;
  int threads_;
};

/// Peak resident set of this process (VmHWM, MiB). Not getrusage's
/// ru_maxrss: Linux carries that across exec, so a child of a larger
/// parent process would report the parent's peak.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

int run_launch(const Workload& w, const Cli& cli, const WallTimer& since_main) {
  const bool smoke = cli.has("smoke");
  const qubit_t n = smoke ? w.smoke_qubits : w.qubits;
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 11));
  const int runs = smoke ? 1 : w.runs;
  const double seconds = cli.get_double("seconds", 0);
  const bool trace = cli.has("trace");

  Instance inst = make_instance(w, n, seed);
  const engine::Engine eng;
  Tally tally;

  double setup_s = 0;
  double peak_rss_mb = 0;
  {
    double cold_s = 0;
    const std::optional<engine::Result> cold = attempt(eng, inst, inst.opts, tally, cold_s);
    setup_s = since_main.seconds();
    // Peak RSS of a fresh process running the program once. Read here,
    // before warm runs: later peaks depend on which freed rank chunks
    // glibc kept in its arenas across runs, not on the program.
    peak_rss_mb = peak_rss_mib();
    if (w.kind == Kind::Shor) {
      // The reference: the same program emulated on "auto", outside every
      // timer and after setup_s.
      engine::RunOptions ref = inst.opts;
      ref.backend = "auto";
      try {
        inst.reference = eng.run(inst.program, ref);
      } catch (const std::exception& e) {
        tally.errors.push_back(std::string("reference run: ") + e.what());
      }
    }
    judge(w, inst, cold, tally);
  }  // frees the cold result before the warm runs allocate theirs

  // Each passing warm run's time, and the host reference pass timed
  // right after it, once the run's state is freed.
  std::vector<double> samples, pass_s;
  HostPass pass(w, n);
  const WallTimer window;
  double last_step_s = 0;  // the previous run and its pass
  for (int k = 0;; ++k) {
    // With --seconds, start a run only if it should end within them.
    if (seconds > 0 ? k > 0 && window.seconds() + last_step_s > seconds : k >= runs) break;
    const WallTimer step;
    double s = 0;
    bool ok = false;
    {
      const std::optional<engine::Result> r = attempt(eng, inst, inst.opts, tally, s);
      ok = judge(w, inst, r, tally);
    }
    if (ok) {
      samples.push_back(s);
      pass_s.push_back(pass.seconds(kPassShare * s));
    }
    last_step_s = step.seconds();
  }

  std::map<std::string, double> layers;
  if (trace) {
    engine::RunOptions traced = inst.opts;
    traced.trace = true;
    double s = 0;
    const std::optional<engine::Result> r = attempt(eng, inst, traced, tally, s);
    if (judge(w, inst, r, tally) && r->trace_data != nullptr) {
      layers = layer_metrics(w, n, *r);
      layers["obs.traced_s"] = s;
      if (!samples.empty()) layers["obs.overhead_frac"] = s / median(samples) - 1.0;
    }
  }
  layers["check.err"] = tally.max_err;

  const auto json_list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (const double x : v) out += (out.size() > 1 ? ", " : "") + json_num(x);
    return out + "]";
  };
  std::string errors = "[";
  for (const std::string& e : tally.errors)
    errors += (errors.size() > 1 ? ", " : "") + json_str(e);
  errors += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"qubits\": %u, \"backend\": %s, "
      "\"precision\": %s, \"ranks\": %d, \"setup_s\": %s, \"run_s\": %s, \"pass_s\": %s, "
      "\"peak_rss_mb\": %s, \"attempted\": %ld, \"failed\": %ld, \"errors\": %s, "
      "\"layers\": %s}\n",
      json_str(w.name).c_str(), static_cast<unsigned long long>(seed), n,
      json_str(w.backend).c_str(), json_str(precision_name(w.precision)).c_str(), w.ranks,
      json_num(setup_s).c_str(), json_list(samples).c_str(), json_list(pass_s).c_str(),
      json_num(peak_rss_mb).c_str(), tally.attempted, tally.failed, errors.c_str(),
      json_obj(layers).c_str());
  return tally.failed == 0 ? 0 : 1;
}

// --- probes --------------------------------------------------------------------

/// Size of the highest-level cache cpu0 reports in sysfs (0 if unknown).
std::uint64_t llc_bytes() {
  int best_level = 0;
  std::uint64_t bytes = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    std::ifstream level_file(dir + "/level"), size_file(dir + "/size");
    int level = 0;
    std::string size;
    if (!(level_file >> level) || !(size_file >> size) || size.empty()) continue;
    std::uint64_t value = std::stoull(size);
    if (size.back() == 'K') value <<= 10;
    if (size.back() == 'M') value <<= 20;
    if (level > best_level) {
      best_level = level;
      bytes = value;
    }
  }
  return bytes;
}

/// STREAM triad a = b + s*c over three arrays of at least 4x the LLC.
int probe_triad() {
  const std::uint64_t llc = llc_bytes();
  const std::uint64_t array_bytes = std::max<std::uint64_t>(4 * llc, std::uint64_t{256} << 20);
  const auto count = static_cast<std::int64_t>(array_bytes / sizeof(double));
  uninit_aligned_vector<double> a(static_cast<std::size_t>(count)),
      b(static_cast<std::size_t>(count)), c(static_cast<std::size_t>(count));
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < count; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  const double scalar = 3.0;
  std::vector<double> secs;
  for (int rep = 0; rep < 6; ++rep) {
    const WallTimer t;
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < count; ++i) a[i] = b[i] + scalar * c[i];
    secs.push_back(t.seconds());
  }
  secs.erase(secs.begin());  // the first pass still faults in pages of a
  const bool ok = a[0] == 7.0 && a[static_cast<std::size_t>(count - 1)] == 7.0;
  std::printf("{\"probe\": \"triad\", \"llc_bytes\": %llu, \"array_bytes\": %llu, "
              "\"threads\": %d, \"triad_gbs\": %s, \"ok\": %s}\n",
              static_cast<unsigned long long>(llc),
              static_cast<unsigned long long>(array_bytes), omp_get_max_threads(),
              json_num(3.0 * static_cast<double>(array_bytes) / median(secs) / 1e9).c_str(),
              ok ? "true" : "false");
  return ok ? 0 : 1;
}

/// Median seconds of `reps` calls of f after one warm-up call.
template <typename F>
double median_seconds(F&& f, int reps) {
  f();
  std::vector<double> secs;
  for (int i = 0; i < reps; ++i) {
    const WallTimer t;
    f();
    secs.push_back(t.seconds());
  }
  return median(secs);
}

/// The layer-isolating micro-cells at one (n, precision): state
/// allocation, H on qubit 0 / n-1 through apply_gate_hpc (arb23 hbench)
/// and the (0, n-1) transposition through apply_qubit_swaps (swapbench).
/// Rates count one read and one write of the state per call.
template <typename T>
std::map<std::string, double> time_cells(qubit_t n) {
  std::map<std::string, double> m;
  m["alloc_s"] = median_seconds(
      [n] {
        sim::BasicStateVector<T> sv(n);
        sv.set_basis(0);
      },
      5);
  sim::BasicStateVector<T> sv(n);
  sv.set_basis(0);
  const double bytes = 2.0 * sizeof(basic_complex_t<T>) * static_cast<double>(dim(n));
  const circuit::Gate h_lo = circuit::make_gate(circuit::GateKind::H, 0);
  const circuit::Gate h_hi = circuit::make_gate(circuit::GateKind::H, n - 1);
  const std::array<std::array<qubit_t, 2>, 1> swap{{{0, n - 1}}};
  m["hbench_lo_gbs"] =
      bytes / median_seconds([&] { sim::apply_gate_hpc<T>(sv.amplitudes(), n, h_lo); }, 7) / 1e9;
  m["hbench_hi_gbs"] =
      bytes / median_seconds([&] { sim::apply_gate_hpc<T>(sv.amplitudes(), n, h_hi); }, 7) / 1e9;
  m["swapbench_gbs"] =
      bytes / median_seconds([&] { sim::kernels::apply_qubit_swaps<T>(sv.amplitudes(), n, swap); },
                             7) /
      1e9;
  return m;
}

/// The micro-cells of one workload; run_suite.py runs this process with
/// the workload's own OMP_NUM_THREADS.
int probe_cells(const Workload& w) {
  const auto cells = w.precision == Precision::kF32 ? time_cells<float>(w.qubits)
                                                     : time_cells<double>(w.qubits);
  std::printf("{\"probe\": \"cells\", \"workload\": %s, \"threads\": %d, \"cells\": %s}\n",
              json_str(w.name).c_str(), omp_get_max_threads(), json_obj(cells).c_str());
  return 0;
}

int list_workloads() {
  std::string out = "{\"workloads\": [";
  for (const Workload& w : kWorkloads) {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"backend\": \"%s\", \"precision\": \"%s\", "
                  "\"qubits\": %u, \"smoke_qubits\": %u, \"runs\": %d, \"ranks\": %d, "
                  "\"omp_threads\": %d, \"tol\": %g}",
                  &w == kWorkloads ? "" : ", ", w.name, w.backend, precision_name(w.precision),
                  w.qubits, w.smoke_qubits, w.runs, w.ranks, w.omp_threads, w.tol);
    out += buf;
  }
  std::printf("%s]}\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const WallTimer since_main;
  // A fixed mmap threshold: every block of 128 KiB or more is mapped on
  // allocation and unmapped on free. glibc otherwise raises the threshold
  // on the first such free, and whether a later rank chunk then comes
  // from an arena or a fresh mapping depends on thread timing, which
  // moved dist_qft's peak RSS in 16 MiB steps from launch to launch.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Cli cli(argc, argv);
  try {
    if (cli.has("list")) return list_workloads();
    const auto probe = cli.get("probe");
    if (probe && *probe == "triad") return probe_triad();
    if (probe && *probe != "cells") {
      std::fprintf(stderr, "bench_suite: unknown probe '%s' (triad, cells)\n", probe->c_str());
      return 2;
    }
    const Workload* w = find_workload(cli.get_string("workload", ""));
    if (w == nullptr) {
      std::fprintf(stderr, "bench_suite: --workload must name one of:");
      for (const Workload& k : kWorkloads) std::fprintf(stderr, " %s", k.name);
      std::fprintf(stderr, " (or pass --list / --probe triad)\n");
      return 2;
    }
    return probe ? probe_cells(*w) : run_launch(*w, cli, since_main);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 1;
  }
}
