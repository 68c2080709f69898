// Engine — the library's single front door.
//
// Engine::run(Program, RunOptions) executes one Program end to end on
// any registered backend and returns the final state, recorded
// measurement outcomes, requested expectation values, and a per-op
// wall-clock trace (the raw datapoints behind models/perf_model and the
// BENCH json series). The backend holds the state at the run's
// precision from begin() until the one take_state() at the end; the
// engine allocates one only to project away a lowered run's ancillas.
//
// Dispatch rule (the paper's §3 contract as one API):
//   * backend->emulates()  — high-level ops run at their mathematical
//     description ("auto" on one node, "dist" on its rank chunks), gate
//     segments on the cache-blocked executor (per rank on "dist");
//   * gate-level backend   — the program is lower()ed to elementary
//     gates first (work ancillas appended above the program register and
//     projected away again at the end).
// Measure and ExpectationZ ops route through the backend's measurement
// virtuals with an engine-drawn uniform (one per Measure op), so the
// recorded outcomes are backend-independent given one seed — the "dist"
// backend measures collectively against its distributed state.
#pragma once

#include <memory>

#include "engine/backend.hpp"
#include "engine/program.hpp"
#include "obs/trace.hpp"
#include "sim/state_vector.hpp"

namespace qc::engine {

/// One per-op timing sample of a run. The byte columns are deltas of
/// the backend's monotone counters around this op: a dist run shows
/// host_bytes only on the trailing "[finalize]" row that gathered.
struct OpTrace {
  std::string op;       ///< Op::label() of the executed node.
  double seconds = 0;   ///< Wall-clock time of this node.
  std::uint64_t host_bytes = 0;  ///< Rank->host staging bytes this op moved.
  std::uint64_t net_bytes = 0;   ///< Rank<->rank bytes this op moved.
};

struct Result {
  /// Final state on the *program's* qubits (lowering ancillas verified
  /// clean and projected away), fp64 at either run precision.
  sim::StateVector state{0};
  /// Sampled outcome of each Measure op, in program order.
  std::vector<index_t> measurements;
  /// Value of each ExpectationZ op, in program order.
  std::vector<double> expectations;
  /// Per-op wall-clock trace (of the lowered program when lowering ran).
  /// A backend whose take_state() moves bytes (dist's gather) adds one
  /// trailing "[finalize]" row covering it. With
  /// RunOptions.trace enabled these rows are the flat view over the
  /// root op spans of `trace_data` — same columns, same totals.
  std::vector<OpTrace> trace;
  /// Full structured trace of the run (null unless RunOptions.trace):
  /// the span tree — engine.run -> per-op spans -> per-rank cluster
  /// jobs -> dist plan items -> sweeps/exchanges — plus counters. Feed
  /// to obs::chrome_trace_json / metrics_json / model_report.
  std::shared_ptr<const obs::TraceData> trace_data;
  /// Backend name the run actually *completed* on. Normally
  /// RunOptions.backend; differs when the degradation ladder fired.
  std::string backend;
  /// True when an unrecoverable cluster error mid-run made the engine
  /// restart the program on the single-node "cached" backend
  /// (RunOptions.degrade). The result is then bit-identical to a plain
  /// cached run of the same seed — measurement draws are engine-side.
  bool degraded = false;
  std::string degraded_from;   ///< Backend the degraded run abandoned.
  std::string degrade_reason;  ///< what() of the error that forced it.
  qubit_t run_qubits = 0;   ///< Qubits actually simulated (incl. ancillas).
  double total_seconds = 0; ///< End-to-end wall-clock time.
  /// Whole-run totals of the backend byte counters (equal to the sums
  /// of the trace columns): rank->host staging and rank<->rank
  /// communication volume.
  std::uint64_t host_bytes = 0;
  std::uint64_t net_bytes = 0;
};

class Engine {
 public:
  /// Runs `p` from |opts.initial_basis> on the named backend.
  [[nodiscard]] Result run(const Program& p, const RunOptions& opts = {}) const;
};

}  // namespace qc::engine
