// fault_campaign — seeded fault-injection matrix over the dist backend.
//
// Runs one mixed program (gate segments with global-qubit traffic,
// emulated high-level ops, a collapsing measurement, an expectation, a
// trailing measurement) on the "hpc" backend as ground truth, then
// re-runs it on "dist" under a matrix of deterministic fault schedules
// spanning every action (delay / drop / abort / alloc-fail) across the
// instrumented sites the run visits (send / recv / barrier — so every
// fence of a rank data motion — / allgather / job / alloc / exchange /
// exchange pass / scatter / gather), faults inside the emulated ops
// included. Every run starts from one fixed non-zero basis state, so a
// restore that re-initializes the wrong state shows. Every schedule
// runs traced: a core schedule that completes without firing
// ("fault.injected" is 0) tests nothing and counts as a violation;
// seeded schedules that never fire are counted. Seeded schedules are
// drawn from a census — one fault-free run under an injector with no
// rules, whose per-(site, rank) visit counts bound every draw — so each
// names a point the run reaches. The campaign contract, per schedule:
//
//   * the run completes and its final state is bit-identical to the hpc
//     reference (max |amp diff| <= 1e-12, identical measurement
//     outcomes, expectations within 1e-12) — via retry-from-checkpoint
//     or, when retries are exhausted, the engine's dist->cached
//     degradation (still bit-identical: measurement draws are
//     engine-side); or
//   * (--no-degrade) it fails with a *typed* cluster error, after which
//     a clean re-run of the same engine still matches the reference —
//     the recovered-session proof.
//
// Anything else — an untyped exception, a wrong result — is a contract
// violation: counted, reported, nonzero exit.
//
// Also measures two overhead headlines for the BENCH trajectory:
// checkpoint overhead (forced every-segment checkpoints vs checkpoints
// off, no faults) and recovery latency (one injected abort vs clean).
//
// --schedules N adds N seeded schedules, two census-drawn rules each,
// after the deterministic core, which always runs in full.
//
// Run: ./fault_campaign [--qubits 16] [--ranks 4] [--schedules 16]
//      [--seed 1] [--timeout 0.5] [--retries 2] [--no-degrade]
//      [--json out.json] [--trace-out trace.json] [--verbose]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fault.hpp"
#include "common/bits.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "engine/engine.hpp"
#include "obs/report.hpp"

namespace {

using namespace qc;

/// The campaign program: every fault site gets traffic. Global-qubit
/// gates force a swap round and per-gate exchanges; the add (one
/// routed permutation), the phase oracle and the QFT pair (three
/// transposes each) run as emulated ops between checkpoints; the
/// collapsing measure exercises the forced pre-collapse checkpoint, the
/// trailing measure the post-replay path.
engine::Program make_program(qubit_t n) {
  engine::Program p(n);
  for (qubit_t q = 0; q < n; ++q) {
    p.h(q);
    p.rz(q, 0.13 * static_cast<double>(q + 1));
  }
  p.cnot(0, static_cast<qubit_t>(n - 1));
  p.cnot(static_cast<qubit_t>(n - 1), 1);
  p.add({0, 3}, {3, 3});
  p.phase_oracle([](index_t i) { return (i & 0xff) == 0x5a; });
  p.qft();
  p.expectation_z(index_t{0b101});
  p.inverse_qft();
  p.measure({0, 2});
  for (qubit_t q = 0; q < n; ++q) p.rx(q, 0.05 * static_cast<double>(q + 1));
  p.cz(0, static_cast<qubit_t>(n - 1));
  p.measure({static_cast<qubit_t>(n - 2), 2});
  return p;
}

/// The campaign's |initial_basis>, for the reference and every dist run
/// alike: the top qubit puts its one amplitude in the last rank's chunk,
/// so begin()'s initialization and a pre-checkpoint restore's
/// re-initialization both have to land it there.
index_t initial_basis(qubit_t n) {
  return bits::low_mask(n) & (dim(n - 1) | index_t{0b101});
}

/// Max |amplitude difference| between two equal-width states.
double max_amp_diff(const sim::StateVector& a, const sim::StateVector& b) {
  const auto av = a.amplitudes();
  const auto bv = b.amplitudes();
  if (av.size() != bv.size()) return 1e300;
  double max = 0;
  for (std::size_t i = 0; i < av.size(); ++i)
    max = std::max(max, std::abs(av[i] - bv[i]));
  return max;
}

/// Bit-identical-to-reference contract (1e-12 on amplitudes and
/// expectations, exact on measurement outcomes).
bool matches(const engine::Result& r, const engine::Result& ref, std::string* why) {
  if (r.measurements != ref.measurements) {
    *why = "measurement outcomes differ";
    return false;
  }
  if (r.expectations.size() != ref.expectations.size()) {
    *why = "expectation count differs";
    return false;
  }
  for (std::size_t i = 0; i < r.expectations.size(); ++i)
    if (std::abs(r.expectations[i] - ref.expectations[i]) > 1e-12) {
      *why = "expectation value differs";
      return false;
    }
  const double d = max_amp_diff(r.state, ref.state);
  if (d > 1e-12) {
    *why = "state differs (max amp diff " + std::to_string(d) + ")";
    return false;
  }
  return true;
}

/// The deterministic core matrix: every action crossed over the site
/// list, hits/ranks staggered so faults land in different run phases.
/// Each entry must fire in the campaign program. Every rank data motion
/// fences twice, so at the default 16 qubits and 4 ranks the barrier
/// visits run: 0-1 the first segment's swap round, 2-3 the add's route,
/// 4-5 the QFT's restore round, 6-11 its three transposes, 12-17 the
/// inverse QFT's, and 18-21 the last segment's two per-gate exchanges.
std::vector<std::string> core_schedules() {
  return {
      "abort@cluster.job#1",            // mid-run job abort, every rank
      "abort@cluster.job#0/2",          // rank 2's first job
      "abort@cluster.recv#1",           // blocking receive abort
      "abort@dist.exchange#0",          // first chunk exchange
      "abort@dist.exchange_pass#0",     // remap pass abort
      "abort@dist.scatter#0/1",         // initialization abort on rank 1
      "abort@dist.gather#0",            // gather abort at finalize
      "drop@cluster.send#1",            // lost message -> peer timeout
      "drop@cluster.send#2/1",          // rank 1 loses its 3rd send
      "delay@cluster.job#1/0:150",      // slow rank, inside deadline
      "delay@cluster.barrier#6:150",    // slow transpose arrival, inside deadline
      "abort@cluster.allgather#0",      // collective abort (measurement path)
      "delay@cluster.allgather#0:100",  // slow allgather arrival, inside deadline
      "allocfail@dist.alloc#0/1",       // rank 1 chunk allocation fails
      "abort@cluster.barrier#3/1",      // the add's route, at rank 1's second fence
      "abort@cluster.barrier#9",        // the first QFT's second transpose, second fence
      "abort@cluster.barrier#18/2",     // a per-gate exchange, at rank 2's first fence
      "abort@cluster.barrier#19",       // the same exchange, at its second fence
      "abort@dist.exchange_pass#3/2",   // rank 2, the first QFT's first transpose
      // Cascade: every recovery attempt is itself aborted until the
      // retry budget runs out — the degradation ladder's deterministic
      // demonstration (completes bit-identical on "cached").
      "abort@cluster.job#1;abort@cluster.job#2;abort@cluster.job#3;abort@cluster.job#4",
  };
}

/// Visits per (site, rank) of one fault-free run.
using Census = std::map<std::pair<std::string, int>, std::uint64_t>;

/// A seeded schedule of `count` rules drawn only from what `census`
/// saw: each names a visited (site, rank) and a hit below its visit
/// count, so it fires — a faulted run retries, which only adds visits.
/// Alloc-fail lands only where something is allocated; every other
/// site draws delay, drop or abort. Same seed, same schedule.
std::string seeded_from(const Census& census, std::uint64_t seed, std::size_t count,
                        double delay_s) {
  const std::vector<std::pair<std::pair<std::string, int>, std::uint64_t>> points(
      census.begin(), census.end());
  Rng rng(seed);
  std::vector<cluster::FaultRule> rules;
  for (std::size_t i = 0; i < count && !points.empty(); ++i) {
    const auto& [where, visits] = points[rng.uniform_u64(points.size())];
    cluster::FaultRule rule;
    rule.site = where.first;
    rule.rank = where.second;
    rule.hit = rng.uniform_u64(visits);
    if (rule.site == "dist.alloc") {
      rule.action = cluster::FaultAction::AllocFail;
    } else {
      constexpr cluster::FaultAction kActions[] = {
          cluster::FaultAction::Delay, cluster::FaultAction::Drop, cluster::FaultAction::Abort};
      rule.action = kActions[rng.uniform_u64(3)];
    }
    rule.delay_s = delay_s;
    rules.push_back(std::move(rule));
  }
  return cluster::FaultInjector(std::move(rules)).to_string();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n = static_cast<qubit_t>(cli.get_int("qubits", 16));
  const int ranks = static_cast<int>(cli.get_int("ranks", 4));
  const auto extra = static_cast<std::uint64_t>(std::max(0L, cli.get_int("schedules", 16)));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double timeout_s = cli.get_double("timeout", 0.5);
  const int retries = static_cast<int>(cli.get_int("retries", 2));
  const bool degrade = !cli.has("no-degrade");
  const bool verbose = cli.has("verbose");
  const std::string json_path = cli.get_string("json", "");
  const std::string trace_path = cli.get_string("trace-out", "");

  const engine::Program program = make_program(n);
  const engine::Engine eng;

  engine::RunOptions ref_opts;
  ref_opts.backend = "hpc";
  ref_opts.seed = seed;
  ref_opts.initial_basis = initial_basis(n);
  const engine::Result ref = eng.run(program, ref_opts);

  engine::RunOptions base;
  base.backend = "dist";
  base.seed = seed;
  base.initial_basis = ref_opts.initial_basis;
  base.dist_ranks = ranks;
  base.dist_timeout_s = timeout_s;
  base.dist_max_retries = retries;
  base.degrade = degrade;

  // Clean dist run first: the matrix is meaningless if the fault-free
  // path is already broken.
  {
    const engine::Result clean = eng.run(program, base);
    std::string why;
    if (!matches(clean, ref, &why)) {
      std::fprintf(stderr, "fault_campaign: clean dist run violates reference: %s\n",
                   why.c_str());
      return 1;
    }
  }

  // The census: the same run under an injector with no rules, which
  // only counts visits. Checkpoints arm exactly as in a faulted run.
  Census census;
  {
    cluster::FaultInjector counter;
    const cluster::ScopedFaultInjector scoped(&counter);
    (void)eng.run(program, base);
    census = counter.visits();
  }

  // The whole deterministic core, then `extra` seeded schedules drawn
  // from the census — same --seed, same matrix, forever.
  std::vector<std::string> schedules = core_schedules();
  const std::size_t core = schedules.size();
  for (std::uint64_t i = 0; i < extra; ++i)
    schedules.push_back(seeded_from(census, seed + 1000 + i, 2, 0.1));

  std::size_t completed = 0, degraded = 0, failed_typed = 0, violations = 0, unfired = 0;
  double recovery_latency_s = 0;
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    engine::RunOptions opts = base;
    opts.fault_spec = schedules[i];
    opts.trace = true;  // its "fault.injected" counter shows the schedule fired
    std::string outcome;
    std::string why;
    WallTimer t;
    try {
      const engine::Result r = eng.run(program, opts);
      const bool fired = r.trace_data->counters.count("fault.injected") > 0;
      if (!matches(r, ref, &why)) {
        ++violations;
        outcome = "VIOLATION: completed but " + why;
      } else if (!fired && i < core) {
        ++violations;
        outcome = "VIOLATION: completed but the core schedule never fired";
      } else {
        ++completed;
        if (r.degraded) ++degraded;
        if (!fired) ++unfired;
        outcome = r.degraded ? "degraded (" + r.degrade_reason + ")"
                             : fired ? "completed" : "completed, never fired";
      }
    } catch (const cluster::ClusterError& e) {
      // Typed failure: legal iff the next, fault-free run is clean —
      // the session/process recovered.
      ++failed_typed;
      outcome = std::string("failed typed (") + e.what() + ")";
      try {
        const engine::Result again = eng.run(program, base);
        if (!matches(again, ref, &why)) {
          ++violations;
          outcome += "; VIOLATION: recovery run " + why;
        }
      } catch (const std::exception& e2) {
        ++violations;
        outcome += std::string("; VIOLATION: recovery run threw: ") + e2.what();
      }
    } catch (const std::exception& e) {
      ++violations;
      outcome = std::string("VIOLATION: untyped exception: ") + e.what();
    }
    if (verbose || outcome.find("VIOLATION") != std::string::npos)
      std::fprintf(stderr, "  [%2zu] %-44s -> %s (%.3fs)\n", i, schedules[i].c_str(),
                   outcome.c_str(), t.seconds());
  }

  // Headline 1: checkpoint overhead — forced every-segment checkpoints
  // vs checkpoints off, no faults injected.
  double t_ckpt_off = 0, t_ckpt_on = 0;
  {
    engine::RunOptions off = base;
    off.dist_checkpoint_interval = -1;
    engine::RunOptions on = base;
    on.dist_checkpoint_interval = 1;
    t_ckpt_off = eng.run(program, off).total_seconds;
    t_ckpt_off = std::min(t_ckpt_off, eng.run(program, off).total_seconds);
    t_ckpt_on = eng.run(program, on).total_seconds;
    t_ckpt_on = std::min(t_ckpt_on, eng.run(program, on).total_seconds);
  }

  // Headline 2: recovery latency — one mid-run abort (retried from
  // checkpoint) vs the checkpointing clean run.
  {
    engine::RunOptions faulty = base;
    faulty.dist_checkpoint_interval = 1;
    faulty.fault_spec = "abort@dist.exchange#1";
    const double t_faulty = eng.run(program, faulty).total_seconds;
    recovery_latency_s = std::max(0.0, t_faulty - t_ckpt_on);
  }

  if (!trace_path.empty()) {
    // One traced faulty run for check_trace.py --fault-model: forced
    // checkpoints plus a retryable abort exercise every fault counter
    // and the checkpoint/restore spans.
    engine::RunOptions traced = base;
    traced.dist_checkpoint_interval = 1;
    traced.fault_spec = "abort@dist.exchange#1";
    traced.trace = true;
    const engine::Result r = eng.run(program, traced);
    std::ofstream out(trace_path);
    if (r.trace_data != nullptr) out << obs::chrome_trace_json(*r.trace_data);
  }

  const double overhead = t_ckpt_off > 0 ? t_ckpt_on / t_ckpt_off - 1.0 : 0.0;
  std::string json;
  json += "{\n";
  json += "  \"bench\": \"fault_campaign\",\n";
  json += "  \"qubits\": " + std::to_string(n) + ",\n";
  json += "  \"ranks\": " + std::to_string(ranks) + ",\n";
  json += "  \"seed\": " + std::to_string(seed) + ",\n";
  json += "  \"schedules_total\": " + std::to_string(schedules.size()) + ",\n";
  json += "  \"schedules_completed\": " + std::to_string(completed) + ",\n";
  json += "  \"schedules_degraded\": " + std::to_string(degraded) + ",\n";
  json += "  \"schedules_failed_typed\": " + std::to_string(failed_typed) + ",\n";
  json += "  \"seeded_unfired\": " + std::to_string(unfired) + ",\n";
  json += "  \"contract_violations\": " + std::to_string(violations) + ",\n";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", t_ckpt_off);
  json += "  \"clean_seconds\": " + std::string(buf) + ",\n";
  std::snprintf(buf, sizeof buf, "%.6f", t_ckpt_on);
  json += "  \"checkpointed_seconds\": " + std::string(buf) + ",\n";
  std::snprintf(buf, sizeof buf, "%.4f", overhead);
  json += "  \"checkpoint_overhead\": " + std::string(buf) + ",\n";
  std::snprintf(buf, sizeof buf, "%.6f", recovery_latency_s);
  json += "  \"recovery_latency_s\": " + std::string(buf) + "\n";
  json += "}\n";

  std::printf("%s", json.c_str());
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json;
  }

  if (violations > 0) {
    std::fprintf(stderr, "fault_campaign: FAIL: %zu contract violation(s)\n", violations);
    return 1;
  }
  std::fprintf(stderr,
               "fault_campaign: OK: %zu schedules (%zu completed, %zu degraded, "
               "%zu failed typed with clean recovery; %zu seeded never fired)\n",
               schedules.size(), completed, degraded, failed_typed, unfired);
  return 0;
}
