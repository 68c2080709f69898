#include "engine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "cluster/fault.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"
#include "sim/kernels_dispatch.hpp"

namespace qc::engine {

namespace {

/// One end-to-end attempt of the program on one backend. Throws
/// whatever the backend throws; the degradation ladder in Engine::run
/// decides whether a cluster error gets a second attempt elsewhere.
Result run_attempt(const Program& p, const RunOptions& opts,
                   const std::string& backend_name) {
  const std::unique_ptr<Backend> backend = make_backend(backend_name, opts);
  obs::Span run_span("engine.run");
  // Record the kernel dispatch decision this run executes under: the
  // runtime-selected SIMD tier (CPUID + QC_SIMD, see kernels_dispatch)
  // and the amplitude precision. Decoded by obs::summary_table /
  // model_report into "isa=... fp=32/64".
  obs::instant("engine.dispatch",
               {{"isa", static_cast<double>(sim::kernels::active_isa())},
                {"fp_bits", static_cast<double>(precision_bits(opts.precision))}});

  Program lowered;
  const Program* prog = &p;
  if (!backend->emulates() && p.needs_lowering()) {
    obs::Span sp("engine.lower");
    lowered = lower(p, opts.lower);
    sp.arg("ops_in", static_cast<double>(p.size()));
    sp.arg("ops_out", static_cast<double>(lowered.size()));
    prog = &lowered;
  }

  backend->begin(prog->qubits(), opts.initial_basis);  // ancillas (high qubits) stay |0>
  Rng rng(opts.seed);

  Result res;
  res.backend = backend_name;
  res.run_qubits = prog->qubits();
  res.trace.reserve(prog->size());
  WallTimer total;
  BackendCounters before = backend->counters();
  const bool fp32 = opts.precision == Precision::kF32;
  std::size_t fp32_steps = 0;
  for (const Op& op : prog->ops()) {
    const std::string label = op.label();
    WallTimer t;
    obs::Span op_span(label);
    switch (op.kind) {
      case OpKind::Measure:
        // The engine draws the uniform (one per Measure op, in program
        // order) so the recorded stream is seed-deterministic on every
        // backend; the backend maps it to an outcome (§3.4 — the "dist"
        // backend does so collectively against the distributed state).
        res.measurements.push_back(
            backend->measure_register(op.a, rng.uniform(), opts.collapse_measurements));
        break;
      case OpKind::ExpectationZ:
        res.expectations.push_back(backend->expectation_z(op.mask));
        break;
      case OpKind::GateSegment:
        backend->run_gates(op.gates);
        if (fp32) fp32_steps += op.gates.size() + 1;
        break;
      default:
        backend->run_highlevel(op);
        if (fp32) ++fp32_steps;
    }
    const BackendCounters after = backend->counters();
    op_span.arg("host_bytes", static_cast<double>(after.host_bytes - before.host_bytes));
    op_span.arg("net_bytes", static_cast<double>(after.net_bytes - before.net_bytes));
    op_span.end();
    res.trace.push_back({label, t.seconds(), after.host_bytes - before.host_bytes,
                         after.net_bytes - before.net_bytes});
    before = after;
  }
  // The backend hands its state back exactly once, here; bytes it stages
  // doing so (dist's gather) get their own trailing trace row so the
  // per-run staging count stays auditable.
  WallTimer fin;
  obs::Span fin_span("[finalize]");
  sim::StateVector sv = backend->take_state();
  check_norm(sv, fp32_steps, "run left a non-normalized state");
  const BackendCounters after = backend->counters();
  fin_span.arg("host_bytes", static_cast<double>(after.host_bytes - before.host_bytes));
  fin_span.arg("net_bytes", static_cast<double>(after.net_bytes - before.net_bytes));
  fin_span.end();
  if (after.host_bytes != before.host_bytes || after.net_bytes != before.net_bytes)
    res.trace.push_back({"[finalize]", fin.seconds(), after.host_bytes - before.host_bytes,
                         after.net_bytes - before.net_bytes});
  res.host_bytes = after.host_bytes;
  res.net_bytes = after.net_bytes;
  res.total_seconds = total.seconds();

  if (prog->qubits() == p.qubits()) {
    res.state = std::move(sv);
    return res;
  }
  // Lowering ran on a widened register: every work ancilla must be back
  // at |0>, which confines the state to the first 2^n amplitudes.
  const index_t keep = dim(p.qubits());
  double kept_norm = 0;
  for (index_t i = 0; i < keep; ++i) kept_norm += std::norm(sv[i]);
  if (std::abs(kept_norm - sv.norm_sq()) > 1e-9)
    throw std::logic_error("Engine::run: lowering left work ancillas dirty");
  res.state = sim::StateVector(p.qubits());
  std::copy(sv.amplitudes().begin(), sv.amplitudes().begin() + static_cast<std::ptrdiff_t>(keep),
            res.state.amplitudes().begin());
  return res;
}

}  // namespace

Result Engine::run(const Program& p, const RunOptions& opts) const {
  if (opts.initial_basis >= dim(p.qubits()))
    throw std::invalid_argument("Engine::run: initial_basis outside the register");

  // Deterministic fault injection is per-run: an explicit schedule in
  // the options wins, else the QC_FAULTS environment variable, else no
  // injector (fault_point sites cost one relaxed atomic load each).
  std::unique_ptr<cluster::FaultInjector> injector;
  std::string spec = opts.fault_spec;
  if (spec.empty())
    if (const char* env = std::getenv("QC_FAULTS"); env != nullptr) spec = env;
  if (!spec.empty())
    injector = std::make_unique<cluster::FaultInjector>(cluster::FaultInjector::parse(spec));
  const cluster::ScopedFaultInjector scoped_faults(injector.get());

  // Tracing is per-run: the tracer is installed process-wide for the
  // run's duration so every layer down to the rank threads records into
  // it, and collected into Result.trace_data before the backend (and
  // with it any cluster session) is torn down. It outlives a degraded
  // first attempt, so one TraceData shows the failed attempt, the
  // degrade marker and the rerun.
  std::unique_ptr<obs::Tracer> tracer;
  if (opts.trace) tracer = std::make_unique<obs::Tracer>();
  const obs::ScopedTracer scoped_tracer(tracer.get());

  WallTimer total;
  std::string backend_name = opts.backend;
  std::string degraded_from;
  std::string degrade_reason;
  for (int attempt = 0;; ++attempt) {
    try {
      Result res = run_attempt(p, opts, backend_name);
      if (!degraded_from.empty()) {
        res.degraded = true;
        res.degraded_from = degraded_from;
        res.degrade_reason = degrade_reason;
        res.trace.insert(res.trace.begin(), OpTrace{"[degrade]", 0, 0, 0});
        res.total_seconds = total.seconds();  // include the failed attempt
      }
      if (tracer != nullptr)
        res.trace_data = std::make_shared<const obs::TraceData>(tracer->collect());
      return res;
    } catch (const cluster::ClusterError& e) {
      // Only the typed cluster taxonomy degrades: a QC_CHECK failure or
      // any other logic error means wrong *results*, not a lost session,
      // and must keep propagating. One rung on the ladder: dist-like ->
      // "cached"; a cluster error out of "cached" is impossible by
      // construction but would propagate too.
      if (!opts.degrade || attempt > 0 || backend_name == "cached") throw;
      obs::counter_add("engine.degrade", 1);
      obs::instant("engine.degrade");
      degraded_from = backend_name;
      degrade_reason = e.what();
      backend_name = "cached";
    }
  }
}

}  // namespace qc::engine
