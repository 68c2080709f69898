#include "engine/backend.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "cluster/cluster.hpp"
#include "cluster/fault.hpp"
#include "common/check.hpp"
#include "emu/dist_emu.hpp"
#include "emu/observables.hpp"
#include "models/perf_model.hpp"
#include "obs/trace.hpp"
#include "sched/cached_simulator.hpp"
#include "sched/dist_schedule.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"

namespace qc::engine {

void Backend::run_highlevel(const Op& op) {
  throw std::logic_error("backend '" + name() + "' is gate-level and cannot run '" +
                         op.label() + "'; lower() the program first");
}

template <typename T>
void check_norm([[maybe_unused]] const sim::BasicStateVector<T>& sv,
                [[maybe_unused]] std::size_t fp32_steps, [[maybe_unused]] const char* what) {
#if QC_ENABLE_CHECKS
  const double norm_sq = sv.norm_sq();
  const double tolerance = 1e-12 * static_cast<double>(dim(sv.qubits())) + 1e-9 +
                           std::ldexp(static_cast<double>(fp32_steps), -22);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", norm_sq);
  QC_CHECK_MSG(std::abs(norm_sq - 1.0) < tolerance, std::string(what) + ": |psi|^2 = " + buf);
#endif
}

template void check_norm<float>(const sim::BasicStateVector<float>&, std::size_t, const char*);
template void check_norm<double>(const sim::BasicStateVector<double>&, std::size_t,
                                 const char*);

namespace {

/// The width check every built-in backend runs before a segment touches
/// an amplitude, empty segments included.
void check_width(const std::string& backend, const circuit::Circuit& c, qubit_t n) {
  if (c.qubits() != n)
    throw std::invalid_argument("backend '" + backend + "': " + std::to_string(c.qubits()) +
                                "-qubit segment on a " + std::to_string(n) + "-qubit state");
}

// Span-level segment executors, each callable at T = float and double.

/// "qhipster-like" (parallel) / "liquid-like" (serial): every gate
/// through the generic masked 2x2 kernel.
struct GenericExec {
  bool parallel = true;
  template <typename T>
  void operator()(std::span<basic_complex_t<T>> a, const circuit::Circuit& c) const {
    for (const circuit::Gate& g : c.gates())
      sim::apply_gate_generic<T>(a, c.qubits(), g, parallel);
  }
};

/// "fused": one full-state pass per fused op — the blocked executor on
/// an all-Global plan, at the uncapped fusion width.
struct FusedExec {
  fuse::FusionOptions fusion;
  template <typename T>
  void operator()(std::span<basic_complex_t<T>> a, const circuit::Circuit& c) const {
    sched::execute_blocked<T>(a, sched::global_plan(fuse::fuse_circuit(c, fusion)));
  }
};

/// "cached" and the gate segments of "auto": fusion capped at the
/// in-cache block width, then cache-blocked sweeps.
struct BlockedExec {
  fuse::FusionOptions fusion;
  sched::ScheduleOptions blocking;
  template <typename T>
  void operator()(std::span<basic_complex_t<T>> a, const circuit::Circuit& c) const {
    sched::execute_blocked<T>(a, sched::plan(c, fusion, blocking));
  }
};

/// A single-node backend: the state at precision T plus a span-level
/// executor, width- and norm-checked per segment. Measurement reads the
/// owned state, squaring in double at fp32 (what a widened copy gives).
template <typename Exec, typename T>
class GateBackend : public Backend {
 public:
  GateBackend(std::string name, Exec exec) : name_(std::move(name)), exec_(std::move(exec)) {}

  [[nodiscard]] std::string name() const override { return name_; }

  void begin(qubit_t n, index_t initial_basis) override {
    state_ = sim::BasicStateVector<T>(n, initial_basis);
    fp32_steps_ = 0;
  }

  void run_gates(const circuit::Circuit& c) override {
    check_width(name_, c, state_.qubits());
    if (c.empty()) return;
    exec_(state_.amplitudes(), c);
    if constexpr (std::is_same_v<T, float>) fp32_steps_ += c.size() + 1;
    check_norm(state_, fp32_steps_, "gate segment broke norm preservation");
  }

  index_t measure_register(RegRef r, double u, bool collapse) override {
    // §3.4: one distribution pass, one uniform draw — through the shared
    // sampler, which never picks a zero-probability outcome.
    const std::vector<double> dist = state_.register_distribution(r.offset, r.width);
    const index_t outcome = sim::SampleCdf::from_weights(dist).sample(u);
    if (collapse)
      for (qubit_t j = 0; j < r.width; ++j)
        state_.collapse(r.offset + j, bits::test(outcome, j) ? 1 : 0);
    return outcome;
  }

  double expectation_z(index_t mask) override { return emu::expectation_z_string(state_, mask); }

  /// fp64 moves the state out; fp32 widens it, once.
  sim::StateVector take_state() override {
    sim::BasicStateVector<T> out = std::exchange(state_, sim::BasicStateVector<T>(0));
    if constexpr (std::is_same_v<T, double>) return out;
    else return out.template cast<double>();
  }

 protected:
  sim::BasicStateVector<T> state_{0};
  std::size_t fp32_steps_ = 0;  ///< fp32 gates + segments (+ high-level ops) since begin().

 private:
  std::string name_;
  Exec exec_;
};

template <typename Exec>
std::unique_ptr<Backend> gate_backend(std::string name, const RunOptions& opts, Exec exec) {
  if (opts.precision == Precision::kF32)
    return std::make_unique<GateBackend<Exec, float>>(std::move(name), std::move(exec));
  return std::make_unique<GateBackend<Exec, double>>(std::move(name), std::move(exec));
}

/// The paper's dispatch rule as a backend: high-level ops through the
/// emu::Emulator shortcuts, gate segments through the "cached"
/// executor. The Emulator and FFT are fp64 only, so at fp32 each
/// high-level op runs on a widened fp64 copy that is narrowed back in
/// place: two conversion passes and an fp64 temporary per op.
template <typename T>
class AutoBackend final : public GateBackend<BlockedExec, T> {
 public:
  explicit AutoBackend(const RunOptions& opts)
      : GateBackend<BlockedExec, T>("auto", BlockedExec{opts.fusion, opts.sched}) {
    if constexpr (std::is_same_v<T, double>)
      emulator_ = std::make_unique<emu::Emulator>(this->state_);
  }

  AutoBackend(const AutoBackend&) = delete;  // emulator_ binds state_ by address
  AutoBackend& operator=(const AutoBackend&) = delete;

  [[nodiscard]] bool emulates() const override { return true; }

  void run_highlevel(const Op& op) override {
    if constexpr (std::is_same_v<T, double>) {
      emulate(*emulator_, op);
    } else {
      sim::StateVector wide = this->state_.template cast<double>();
      emu::Emulator em(wide);
      emulate(em, op);
      this->state_.convert_from(wide);
      ++this->fp32_steps_;
    }
  }

 private:
  static void emulate(emu::Emulator& em, const Op& op) {
    switch (op.kind) {
      case OpKind::Add: em.add(op.a, op.b); return;
      case OpKind::Multiply: em.multiply(op.a, op.b, op.c); return;
      case OpKind::MultiplyMod: em.multiply_mod(op.a, op.k, op.modulus); return;
      case OpKind::Divide: em.divide(op.a, op.b, op.c); return;
      case OpKind::ApplyFunction: em.apply_function(op.a, op.b, op.func); return;
      case OpKind::PhaseFunction: em.apply_phase_function(op.phase_fn); return;
      case OpKind::PhaseOracle: em.apply_phase_oracle(op.predicate); return;
      case OpKind::Qft: em.qft(op.a); return;
      case OpKind::InverseQft: em.inverse_qft(op.a); return;
      default:
        throw std::logic_error("auto backend: unexpected op '" + op.label() + "'");
    }
  }

  /// fp64: bound once to state_. Its state-sized scratch stays lazy
  /// (Emulator::ensure_scratch), so gate-only runs never allocate it.
  std::unique_ptr<emu::Emulator> emulator_;
};

/// The distributed execution backend ("dist"), built around a
/// persistent cluster::ClusterSession. begin() opens the session (rank
/// threads spawned once, parked on the job queue) and builds every
/// rank's DistStateVector chunk at |initial_basis> in place. Every gate
/// segment, exchange pass, Measure, ExpectationZ and collapse is then
/// submitted as a job against those chunks: gate segments chain their
/// logical->physical qubit permutation forward (dist_schedule's
/// perm_io) instead of restoring logical order between segments, and
/// the measurement surface reads straight through the live permutation.
/// take_state() gathers once — the run's only host staging (counters()
/// reports the bytes into the engine trace). Measurement ops still
/// consume the engine's uniform draw, so recorded streams match the
/// serial backends seed for seed.
///
/// Every job goes through run_job, the one retry primitive, under one
/// of two recovery classes (Recovery).
///
/// Templated on the chunk amplitude scalar T: under fp32 the ranks hold
/// float chunks (widened at the gather), so every chunk exchange,
/// checkpoint and the gather move exactly half the fp64 bytes on the
/// same plan — Result.net_bytes and the model predictions both reflect
/// sizeof(value_type).
template <typename T>
class DistBackendT final : public Backend {
 public:
  using value_type = basic_complex_t<T>;

  explicit DistBackendT(const RunOptions& opts)
      : ranks_(opts.dist_ranks),
        timeout_s_(opts.dist_timeout_s),
        ckpt_interval_(opts.dist_checkpoint_interval),
        max_retries_(opts.dist_max_retries) {
    if (ranks_ < 1 || !bits::is_pow2(static_cast<index_t>(ranks_)))
      throw std::invalid_argument("dist backend: rank count must be a power of two >= 1");
    dopts_.fusion = opts.fusion;
    dopts_.sched = opts.sched;
  }

  /// Drops the chunks without gathering; the session destructor joins
  /// the parked rank threads.
  ~DistBackendT() override { release_slots(); }

  [[nodiscard]] std::string name() const override { return "dist"; }

  /// Opens (or reuses, at the same clamped rank count) the session and
  /// builds the chunks at |initial_basis> in one job — job 0 of the
  /// run, under the dist.scatter span and fault site.
  void begin(qubit_t n, index_t initial_basis) override {
    const int eff = effective_ranks(n);
    if (session_ == nullptr || session_->ranks() != eff)
      session_ = std::make_unique<cluster::ClusterSession>(eff);
    if (timeout_s_ > 0) session_->set_timeout(timeout_s_);
    release_slots();
    slots_.resize(static_cast<std::size_t>(eff));
    slot_bytes_seen_.assign(static_cast<std::size_t>(eff), 0);
    n_ = n;
    initial_basis_ = initial_basis;
    perm_ = sched::identity_perm(n);
    ckpt_valid_ = false;
    ckpt_chunks_.clear();
    ckpt_perm_.clear();
    replay_log_.clear();
    replay_pred_s_ = 0;
    segments_since_ckpt_ = 0;
    obs::Span scatter_span("dist.scatter");
    // Each attempt rebuilds every chunk from scratch.
    run_job(Recovery::kInPlace, [this](cluster::Comm& comm) {
      cluster::fault_point("dist.scatter", comm.rank());
      auto& s = slots_[static_cast<std::size_t>(comm.rank())];
      s.reset();  // a retry frees the failed attempt's chunk first
      s = std::make_unique<sim::BasicDistStateVector<T>>(comm, n_);
      s->set_basis(initial_basis_);
    });
  }

  void run_gates(const circuit::Circuit& c) override {
    check_width(name(), c, n_);
    if (c.empty()) return;
    // Checkpoint *before* planning, so the segment about to run joins
    // the replay log of the checkpoint it would restore to.
    maybe_checkpoint();
    // Planned once: a replayed retry restarts from the same permutation.
    const auto nl = static_cast<qubit_t>(n_ - session_global_qubits());
    std::vector<qubit_t> perm_after = perm_;
    sched::DistPlan plan = sched::dist_schedule(c, nl, dopts_, &perm_after);
    run_job(Recovery::kReplay, [this, &plan](cluster::Comm& comm) {
      sched::run_dist_plan(slot(comm), plan);
    });
    perm_ = std::move(perm_after);
    if (checkpoints_enabled()) {
      replay_pred_s_ += sched::predicted_seconds(plan, {});
      ++segments_since_ckpt_;
      replay_log_.push_back({std::move(plan), perm_});
    }
  }

  index_t measure_register(RegRef r, double u, bool collapse) override {
    // Collapse destroys the pre-measurement state, and — unlike a gate
    // segment — cannot be replayed from the plan log. Force a checkpoint
    // of the pre-collapse state so a mid-collapse fault can retry.
    if (collapse) maybe_checkpoint(/*force=*/true);
    // Measure through the live permutation: bit j of the outcome reads
    // the physical position of logical qubit offset+j. No restore pass.
    std::vector<qubit_t> phys(r.width);
    for (qubit_t j = 0; j < r.width; ++j) phys[j] = perm_[r.offset + j];
    index_t outcome = 0;
    run_job(collapse ? Recovery::kReplay : Recovery::kInPlace,
            [this, &phys, u, collapse, &outcome](cluster::Comm& comm) {
              auto& dsv = slot(comm);
              const std::vector<double> dist =
                  dsv.register_distribution(std::span<const qubit_t>(phys));
              const index_t o = sim::SampleCdf::from_weights(dist).sample(u);
              if (comm.rank() == 0) outcome = o;
              if (!collapse) return;  // read-only: chunks untouched
              for (std::size_t j = 0; j < phys.size(); ++j)
                dsv.collapse(phys[j], bits::test(o, static_cast<qubit_t>(j)) ? 1 : 0);
            });
    // The collapsed state is a new point of no return the plan log
    // cannot reach; re-checkpoint it so later segment retries restore
    // *post*-measurement state.
    if (collapse && checkpoints_enabled()) take_checkpoint();
    return outcome;
  }

  double expectation_z(index_t mask) override {
    // <Z_mask> is permutation-covariant: map the logical mask to the
    // physical bit positions and reduce in place.
    index_t pmask = 0;
    for (qubit_t q = 0; mask >> q; ++q)
      if (bits::test(mask, q)) pmask = bits::set(pmask, perm_[q]);
    double value = 0;
    run_job(Recovery::kInPlace, [this, pmask, &value](cluster::Comm& comm) {
      const double v = emu::expectation_z_string(slot(comm), pmask);
      if (comm.rank() == 0) value = v;
    });
    return value;
  }

  /// The one gather: restores physical qubit order (the only restore of
  /// the whole run — segments deferred theirs via perm_io), copies the
  /// chunks into a fresh fp64 state and drops them. The session stays
  /// open for reuse. The restore rounds and the copy-out are separate
  /// jobs, so a fault in the copy-out retries in place.
  sim::StateVector take_state() override {
    obs::Span gather_span("dist.gather");
    gather_span.arg("host_bytes",
                    static_cast<double>(models::staging_bytes(n_, sizeof(value_type))));
    gather_span.arg("pred_s", models::t_host_staging_seconds(n_, {}, sizeof(value_type)));
    const auto rounds = sched::restore_rounds(perm_);
    run_job(Recovery::kReplay, [this, &rounds](cluster::Comm& comm) {
      cluster::fault_point("dist.gather", comm.rank());
      for (const auto& swaps : rounds) slot(comm).apply_qubit_swaps(swaps);
    });
    sim::StateVector out(n_);
    run_job(Recovery::kInPlace, [this, &out](cluster::Comm& comm) {
      const auto& local = slot(comm).local();
      const auto base = static_cast<std::ptrdiff_t>(comm.rank()) *
                        static_cast<std::ptrdiff_t>(local.size());
      std::transform(local.begin(), local.end(), out.amplitudes().begin() + base,
                     [](const value_type& z) { return static_cast<complex_t>(z); });
    });
    gather_span.end();
    release_slots();
    host_bytes_ += models::staging_bytes(n_, sizeof(value_type));
    return out;
  }

  /// Counters are *snapshots taken at op boundaries* (snapshot_net after
  /// every sync), not live reads of the per-rank DistStateVector
  /// counters — a live read could fold bytes a later submission is
  /// already accumulating into the wrong op's trace row.
  [[nodiscard]] BackendCounters counters() const override {
    return {host_bytes_, net_bytes_};
  }

 private:
  /// How a job that failed with a retryable fault is made safe to re-run.
  enum class Recovery {
    /// The job leaves the chunks as it found them, or rebuilds them from
    /// an intact source: re-run it as is. begin()'s initialization, the
    /// expectation, the read-only measure, the checkpoint copy, the
    /// restore and the gather's copy-out.
    kInPlace,
    /// The job mutates the chunks: restore the checkpoint and replay the
    /// segment log first. The gate segment, the collapsing measure and
    /// the gather's restore rounds. With checkpoints off there is no way
    /// back, so the fault propagates (the engine may degrade).
    kReplay,
  };

  /// The one retry primitive: submits `job` to every rank, syncs and
  /// snapshots the net counters. On a retryable fault it backs off,
  /// recovers as `recovery` says and re-runs the job, up to
  /// max_retries_ times; any other error, or a fault past the budget,
  /// propagates as thrown. Throws std::logic_error outside a
  /// begin() ... take_state() run.
  void run_job(Recovery recovery, const std::function<void(cluster::Comm&)>& job) {
    if (slots_.empty()) throw std::logic_error("dist backend: no state; call begin() first");
    for (int attempt = 0;; ++attempt) {
      try {
        session_->submit(job);
        session_->sync();
        snapshot_net();
        return;
      } catch (...) {
        if (!cluster::retryable_fault(std::current_exception()) || attempt >= max_retries_ ||
            (recovery == Recovery::kReplay && !checkpoints_enabled()))
          throw;
        note_retry(attempt);
        if (recovery == Recovery::kReplay) restore_and_replay();
      }
    }
  }

  [[nodiscard]] sim::BasicDistStateVector<T>& slot(const cluster::Comm& comm) {
    return *slots_[static_cast<std::size_t>(comm.rank())];
  }

  /// Every rank must keep at least one *local* qubit (the distributed
  /// planner schedules within the local block), so the rank count clamps
  /// to 2^(n-1) for narrow registers (lowered programs can be tiny).
  [[nodiscard]] int effective_ranks(qubit_t n) const {
    if (n <= 1) return 1;
    return static_cast<int>(
        std::min<index_t>(static_cast<index_t>(ranks_), dim(static_cast<qubit_t>(n - 1))));
  }

  [[nodiscard]] qubit_t session_global_qubits() const {
    return static_cast<qubit_t>(
        bits::log2_floor(static_cast<index_t>(session_->ranks())));
  }

  // --- failure domain: checkpoint / restore / retry ---------------------

  /// Whether segment checkpointing is armed. interval -1 disables it
  /// outright; 0 ("auto") arms it only while a fault source exists — an
  /// installed FaultInjector or a deadline budget — so the default
  /// fault-free configuration pays zero checkpoint overhead.
  [[nodiscard]] bool checkpoints_enabled() const {
    if (ckpt_interval_ < 0) return false;
    if (ckpt_interval_ > 0) return true;
    return timeout_s_ > 0 || session_timeout() > 0 ||
           cluster::current_injector() != nullptr;
  }

  [[nodiscard]] double session_timeout() const {
    return session_ != nullptr ? session_->timeout() : 0.0;
  }

  /// Counts a retry and sleeps an exponential backoff (capped well under
  /// a second — the cluster is in-process, the backoff only prevents a
  /// hot retry loop against a still-unhealthy session).
  void note_retry(int attempt) {
    obs::instant("fault.retry");
    obs::counter_add("fault.retries", 1);
    const double backoff_s = 0.0005 * std::ldexp(1.0, std::min(attempt, 8));
    obs::counter_add("fault.backoff_ms", backoff_s * 1e3);
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
  }

  /// Checkpoint policy gate. Unforced: every ckpt_interval_ segments, or
  /// (auto) when the predicted replay cost of the uncheckpointed segment
  /// log exceeds a few checkpoint costs (models::checkpoint_due).
  /// Forced (pre-collapse): whenever the current state is not already
  /// captured by checkpoint + replay log... i.e. always capturable, so a
  /// force only spends a checkpoint when it shortens the restore path.
  void maybe_checkpoint(bool force = false) {
    if (!checkpoints_enabled()) return;
    bool due = false;
    if (force) {
      due = !ckpt_valid_ || !replay_log_.empty();
    } else if (ckpt_interval_ > 0) {
      due = segments_since_ckpt_ >= static_cast<std::size_t>(ckpt_interval_);
    } else {
      due = models::checkpoint_due(replay_pred_s_, n_, {});
    }
    if (due) take_checkpoint();
  }

  /// Copies every rank's chunk (and the carried permutation)
  /// into host-side checkpoint storage. The copy job is communication-
  /// free but still runs on the rank threads, so injected cluster.job
  /// faults exercise checkpoint failure too. The old checkpoint's
  /// buffers are reused as storage, so it is marked invalid for the
  /// duration of the copy.
  void take_checkpoint() {
    obs::Span span("dist.checkpoint");
    span.arg("bytes", static_cast<double>(
                          models::staging_bytes(n_, sizeof(value_type))));
    ckpt_valid_ = false;
    ckpt_chunks_.resize(slots_.size());
    run_job(Recovery::kInPlace, [this](cluster::Comm& comm) {
      const auto& local = slot(comm).local();
      ckpt_chunks_[static_cast<std::size_t>(comm.rank())].assign(local.begin(), local.end());
    });
    ckpt_perm_ = perm_;
    ckpt_valid_ = true;
    replay_log_.clear();
    replay_pred_s_ = 0;
    segments_since_ckpt_ = 0;
    obs::counter_add("checkpoint.count", 1);
    obs::counter_add("checkpoint.bytes",
                     static_cast<double>(
                         models::staging_bytes(n_, sizeof(value_type))));
  }

  /// Restores the last checkpoint (or re-initializes |initial_basis>,
  /// when no checkpoint was taken yet) and replays the logged segments,
  /// in one job that rebuilds the chunks from that intact source — so a
  /// fault inside it retries in place. Leaves chunks and perm_ exactly
  /// as before the failed op.
  void restore_and_replay() {
    obs::Span span("dist.restore");
    span.arg("segments", static_cast<double>(replay_log_.size()));
    obs::counter_add("checkpoint.restores", 1);
    run_job(Recovery::kInPlace, [this](cluster::Comm& comm) {
      auto& dsv = slot(comm);
      if (ckpt_valid_) {
        const auto& saved = ckpt_chunks_[static_cast<std::size_t>(comm.rank())];
        std::copy(saved.begin(), saved.end(), dsv.local().begin());
      } else {
        dsv.set_basis(initial_basis_);
      }
      for (const SegmentLog& s : replay_log_) sched::run_dist_plan(dsv, s.plan);
    });
    if (!replay_log_.empty()) {
      perm_ = replay_log_.back().perm_after;
    } else if (ckpt_valid_) {
      perm_ = ckpt_perm_;
    } else {
      perm_ = sched::identity_perm(n_);
    }
  }

  /// Folds the *delta* of every rank's communication counter since the
  /// previous snapshot into net_bytes_. Called after each sync, so the
  /// engine's per-op counter reads see bytes attributed to the op that
  /// actually moved them (not lumped into whichever op released the
  /// slots) — including the bytes a failed attempt moved before it
  /// aborted, which the next successful sync folds in.
  void snapshot_net() {
    for (std::size_t r = 0; r < slots_.size(); ++r)
      if (slots_[r] != nullptr) {
        const std::uint64_t seen = slots_[r]->bytes_communicated();
        net_bytes_ += seen - slot_bytes_seen_[r];
        slot_bytes_seen_[r] = seen;
      }
  }

  /// Takes a final snapshot and frees the chunks (host-side:
  /// DistStateVector's destructor does not communicate).
  void release_slots() {
    snapshot_net();
    slots_.clear();
    slot_bytes_seen_.clear();
  }

  int ranks_;
  sched::DistScheduleOptions dopts_;

  std::unique_ptr<cluster::ClusterSession> session_;
  std::vector<std::unique_ptr<sim::BasicDistStateVector<T>>> slots_;  ///< One per rank.
  /// Per-rank bytes_communicated() value at the last snapshot_net —
  /// deltas against these attribute communication to the right op.
  std::vector<std::uint64_t> slot_bytes_seen_;
  qubit_t n_ = 0;                ///< begin()'s register width.
  index_t initial_basis_ = 0;    ///< begin()'s |initial_basis>, for a restore.
  std::vector<qubit_t> perm_;  ///< Logical->physical, carried across segments.
  std::uint64_t host_bytes_ = 0;
  std::uint64_t net_bytes_ = 0;

  // Failure domain (see README "Failure model").
  double timeout_s_ = 0;   ///< RunOptions::dist_timeout_s.
  int ckpt_interval_ = 0;  ///< RunOptions::dist_checkpoint_interval.
  int max_retries_ = 2;    ///< RunOptions::dist_max_retries.
  /// One executed gate segment since the last checkpoint: enough to
  /// replay it (the plan) and to land on the right permutation after.
  struct SegmentLog {
    sched::DistPlan plan;
    std::vector<qubit_t> perm_after;
  };
  std::vector<SegmentLog> replay_log_;
  double replay_pred_s_ = 0;  ///< Predicted replay cost of replay_log_ (model s).
  std::size_t segments_since_ckpt_ = 0;
  std::vector<std::vector<value_type>> ckpt_chunks_;  ///< Per-rank chunk copies.
  std::vector<qubit_t> ckpt_perm_;                   ///< perm_ at checkpoint time.
  bool ckpt_valid_ = false;
};

std::map<std::string, BackendFactory>& registry() {
  static std::map<std::string, BackendFactory> reg{
      {"hpc",  // the paper's simulator, one kernel per gate
       [](const RunOptions& o) {
         return gate_backend("hpc", o, [](auto a, const auto& c) { sim::apply_circuit_hpc(a, c); });
       }},
      {"qhipster-like",
       [](const RunOptions& o) { return gate_backend("qhipster-like", o, GenericExec{true}); }},
      {"liquid-like",
       [](const RunOptions& o) { return gate_backend("liquid-like", o, GenericExec{false}); }},
      {"fused", [](const RunOptions& o) { return gate_backend("fused", o, FusedExec{o.fusion}); }},
      {"cached",
       [](const RunOptions& o) {
         return gate_backend("cached", o, BlockedExec{o.fusion, o.sched});
       }},
      {"auto",
       [](const RunOptions& o) -> std::unique_ptr<Backend> {
         if (o.precision == Precision::kF32) return std::make_unique<AutoBackend<float>>(o);
         return std::make_unique<AutoBackend<double>>(o);
       }},
      {"dist",
       [](const RunOptions& o) -> std::unique_ptr<Backend> {
         if (o.precision == Precision::kF32) return std::make_unique<DistBackendT<float>>(o);
         return std::make_unique<DistBackendT<double>>(o);
       }},
  };
  return reg;
}

}  // namespace

void register_backend(const std::string& name, BackendFactory factory) {
  if (name.empty() || !factory)
    throw std::invalid_argument("register_backend: empty name or null factory");
  if (!registry().emplace(name, std::move(factory)).second)
    throw std::invalid_argument("register_backend: '" + name + "' already registered");
}

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& entry : registry()) names.push_back(entry.first);
  return names;  // std::map iterates sorted
}

std::unique_ptr<Backend> make_backend(const std::string& name, const RunOptions& opts) {
  const auto it = registry().find(name);
  if (it == registry().end()) {
    std::string names;
    for (const std::string& n : backend_names()) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    throw std::invalid_argument("make_backend: unknown backend '" + name + "' (valid: " +
                                names + ")");
  }
  return it->second(opts);
}

}  // namespace qc::engine
