// Backend registry — one namespace for every way this library can
// execute a Program.
//
// A Backend owns the run's state, at the run's precision, from begin()
// until Engine::run takes it back once with take_state(). In between it
// executes the *unitary* ops of a Program; Measure / ExpectationZ ops
// are routed through the measurement virtuals below with an
// engine-supplied uniform draw, so the recorded streams stay
// backend-independent for one seed. Two families:
//
//  * gate-level backends ("hpc", "fused", "cached", "qhipster-like",
//    "liquid-like", and the distributed "dist") only ever see gate
//    segments — Engine::run lowers high-level ops first;
//  * emulating backends ("auto") report emulates() == true and execute
//    high-level ops at their mathematical description (emu::Emulator),
//    dispatching gate segments to the cache-blocked executor — the
//    paper's §3 contract expressed as one dispatch rule.
//
// Every single-node backend holds a BasicStateVector<T> (T from
// RunOptions::precision) and runs segments through a span-level
// executor: sim::apply_circuit_hpc / apply_gate_generic, or
// sched::execute_blocked on an all-Global or a blocked plan. "dist"
// holds per-rank chunks at T. The registry maps each name to a
// BackendFactory; tests, benches and examples pick a backend through
// make_backend().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/program.hpp"
#include "fuse/fusion.hpp"
#include "sched/schedule.hpp"
#include "sim/state_vector.hpp"

namespace qc::engine {

/// Per-run knobs carried into Engine::run and the backend factories.
struct RunOptions {
  /// Registered backend name ("auto", "hpc", "fused", ...).
  std::string backend = "auto";
  /// Seed for measurement sampling (one uniform draw per Measure op, in
  /// program order — identical draw sequence on every backend).
  std::uint64_t seed = 1;
  /// Gate-fusion options for backends that fuse ("auto", "fused",
  /// "cached").
  fuse::FusionOptions fusion;
  /// Cache-blocking options for backends that sweep-schedule ("auto",
  /// "cached").
  sched::ScheduleOptions sched;
  /// Amplitude precision the backend holds the state at. kF64 (default)
  /// is the reference. kF32 runs the float-instantiated kernels on a
  /// float state (on the dist backend's ranks too, halving exchange
  /// bytes); "auto" emulates high-level ops at fp64 on a widened copy,
  /// and Result.state is widened once at the end. Measurement sampling
  /// and reductions stay double either way. Accuracy is bounded by the
  /// precision-drift test gate (fp32 vs fp64 <= 1e-6 max amplitude
  /// error on deep QFT/random circuits).
  Precision precision = Precision::kF64;
  /// Initial computational basis state |initial_basis> of the *program*
  /// register (lowering ancillas always start at |0>).
  index_t initial_basis = 0;
  /// Collapse the measured register after each Measure op (off: record
  /// the sampled outcome but leave the state untouched).
  bool collapse_measurements = true;
  /// Lowering options used when the backend is gate-level.
  LowerOptions lower;
  /// Rank count for the "dist" backend — a power of two; the in-process
  /// cluster spawns this many rank threads (clamped so every rank holds
  /// at least one amplitude of the run's register).
  int dist_ranks = 2;
  /// Collect a structured trace of the run (obs::Tracer): hierarchical
  /// spans across every layer — engine op, fusion, sweep scheduling,
  /// chunk sweeps, dist exchanges, per-rank cluster jobs — returned in
  /// Result.trace_data for the Chrome-trace / metrics / model-report
  /// exporters (obs/report.hpp). Off (default): instrumentation costs
  /// one relaxed atomic load per site.
  bool trace = false;

  // --- failure domain (see README "Failure model") ----------------------

  /// Deadline budget (seconds) for the dist backend's cluster session:
  /// a blocking recv/barrier that waits longer aborts the cluster and
  /// raises cluster::TimeoutError; sync() runs a watchdog at a grace
  /// multiple of the same budget. <= 0: deadlines off (unless
  /// QC_CLUSTER_TIMEOUT_S arms them process-wide).
  double dist_timeout_s = 0;
  /// Segment-granular checkpoint policy for the dist backend:
  ///   -1   off — a fault in a job that mutates the chunks (a gate
  ///        segment, a collapsing measure, the gather's restore rounds)
  ///        cannot replay, so the run degrades or fails instead; jobs
  ///        that leave the chunks intact still retry;
  ///    0   auto (default) — checkpoint when the predicted replay cost
  ///        of the uncheckpointed segment log exceeds a few checkpoints
  ///        (models::checkpoint_due), armed only while a fault source
  ///        exists (an installed FaultInjector or a timeout budget), so
  ///        fault-free runs pay nothing;
  ///    N>0 checkpoint every N gate segments, unconditionally.
  int dist_checkpoint_interval = 0;
  /// Retry budget per cluster job for retryable faults (timeout,
  /// injected fault, allocation failure): each retry re-runs the job,
  /// first restoring the last checkpoint and replaying the segment log
  /// when the job mutates the chunks. 0: faults propagate immediately.
  int dist_max_retries = 2;
  /// Deterministic fault-injection schedule installed for the whole run
  /// (cluster::FaultInjector::parse grammar, e.g.
  /// "abort@cluster.barrier#2;drop@cluster.send#1/0"). Empty: the
  /// QC_FAULTS environment variable, if set.
  std::string fault_spec;
  /// Degradation ladder: on an unrecoverable cluster error mid-run,
  /// restart the program on the single-node "cached" backend (recorded
  /// in Result.degraded and the trace) instead of failing. Off: the
  /// typed error propagates to the caller.
  bool degrade = true;
};

/// Monotone byte counters a backend exposes for the per-op engine
/// trace. `host_bytes` is data staged from rank chunks into a host
/// state (the dist backend's gather in take_state()); `net_bytes` is
/// data moved between ranks. Engine::run records per-op deltas, so a
/// dist run shows host bytes only on the trailing "[finalize]" row.
struct BackendCounters {
  std::uint64_t host_bytes = 0;
  std::uint64_t net_bytes = 0;
};

class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// True if this backend executes high-level ops natively; false means
  /// Engine::run must lower() the program to gates first.
  [[nodiscard]] virtual bool emulates() const { return false; }

  /// Starts a run: allocates the n-qubit state, written once at
  /// |initial_basis>. Engine::run calls it once, after lowering.
  virtual void begin(qubit_t n, index_t initial_basis) = 0;

  /// Executes a gate segment on the owned state. Every built-in backend
  /// throws std::invalid_argument when `c` is not as wide as the state
  /// begin() made, empty segments included.
  virtual void run_gates(const circuit::Circuit& c) = 0;

  /// Executes a high-level unitary op. Default throws std::logic_error —
  /// gate-level backends never see one.
  virtual void run_highlevel(const Op& op);

  /// Samples a measurement outcome of register `r` using the
  /// engine-supplied uniform draw `u` (exactly one per Measure op, so
  /// the recorded stream is identical across backends for one seed),
  /// optionally collapsing the register.
  virtual index_t measure_register(RegRef r, double u, bool collapse) = 0;

  /// <Z_mask> of the owned state.
  virtual double expectation_z(index_t mask) = 0;

  /// Ends the run: hands the final state back as fp64, once, and leaves
  /// the backend without one until the next begin().
  virtual sim::StateVector take_state() = 0;

  /// Monotone counters behind the engine trace's per-op byte columns.
  /// Default: all zero (purely host-side backends move nothing).
  [[nodiscard]] virtual BackendCounters counters() const { return {}; }
};

/// The norm invariant (a QC_CHECK: armed builds only): |psi|^2 within
/// 1e-12 * 2^n + 1e-9 of 1, plus 2^-22 per fp32 gate, segment and
/// high-level op run so far (`fp32_steps`). `what` leads the message.
template <typename T>
void check_norm(const sim::BasicStateVector<T>& sv, std::size_t fp32_steps, const char* what);

using BackendFactory = std::function<std::unique_ptr<Backend>(const RunOptions&)>;

/// Registers a backend under `name`. Throws std::invalid_argument on an
/// empty name, a null factory or a duplicate name.
void register_backend(const std::string& name, BackendFactory factory);

/// Sorted names of every registered backend (builtins plus user
/// registrations).
[[nodiscard]] std::vector<std::string> backend_names();

/// Instantiates a registered backend; unknown names throw
/// std::invalid_argument listing backend_names().
[[nodiscard]] std::unique_ptr<Backend> make_backend(const std::string& name,
                                                    const RunOptions& opts = {});

}  // namespace qc::engine
