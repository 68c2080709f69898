// Failure model of the cluster runtime: typed errors + deterministic
// fault injection.
//
// The paper's headline runs are multi-node jobs where a hung rank or a
// failed allocation costs hours; before the in-process mailboxes ever
// grow a real multi-node transport, the failure *contract* has to exist
// and be testable. This header defines both halves:
//
//  * the error taxonomy every cluster-facing layer throws and catches —
//    ClusterError with a retryable() bit, so the distributed backend can
//    decide between replay-from-checkpoint (timeouts, injected faults,
//    allocation failures) and giving up (logic errors, invariant
//    violations);
//
//  * a deterministic FaultInjector: a schedule of rules, each naming an
//    instrumented *site* ("cluster.send", "dist.exchange", ...), a rank,
//    a hit index and an action (delay / drop / abort / alloc-fail).
//    Sites call fault_point(site, rank); the injector counts visits per
//    (site, rank) and fires a rule exactly when its hit index comes up,
//    so a schedule reproduces the same fault at the same point of the
//    same run regardless of thread interleaving.
//
// Installation mirrors obs::Tracer: a process-global pointer behind an
// atomic, RAII-scoped by ScopedFaultInjector. With no injector installed
// a fault_point is one acquire atomic load and a branch (the acquire
// pairs with the installer's release store, so rank threads that see
// the pointer see the rules; free on x86, cheap everywhere) — cheap
// enough to stay compiled into the communication hot paths (the
// Release bench contract is <3% with injection compiled in but
// disabled).
//
// Sites instrumented today (new cluster code must name its own — see
// CONTRIBUTING):
//
//   cluster.send        eager send (drop-capable: message is lost)
//   cluster.recv        blocking receive
//   cluster.sendrecv    symmetric exchange entry
//   cluster.barrier     barrier entry
//   cluster.broadcast   broadcast entry (root fan-out / leaf receive)
//   cluster.allgather   allgather entry (all-to-all block exchange)
//   cluster.alltoall    block-transpose alltoall entry
//   cluster.alltoallv   variable alltoallv entry (payload phase)
//   cluster.alltoallv.counts  alltoallv count-exchange phase
//   cluster.job         rank worker, before the job closure runs
//   dist.alloc          DistStateVector chunk allocation
//   dist.exchange       combine-with-paired-chunk exchange
//   dist.exchange_pass  global-swap chunk permutation pass
//   dist.scatter        chunk initialization job at begin() (DistBackend)
//   dist.gather         gather job at take_state() (DistBackend)
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qc::cluster {

/// Base of every cluster-runtime failure. retryable() answers the one
/// question recovery code asks: is the session expected to be healthy
/// again after abort + recovery, so that replaying from a checkpoint
/// can succeed?
struct ClusterError : std::runtime_error {
  using std::runtime_error::runtime_error;
  [[nodiscard]] virtual bool retryable() const noexcept { return false; }
};

/// A deadline expired on a blocking operation (recv, barrier, or the
/// sync() watchdog). The thrower has already aborted the cluster, so
/// peers unwind and the session recovers; the operation itself may be
/// retried from a checkpoint.
struct TimeoutError : ClusterError {
  explicit TimeoutError(const std::string& what) : ClusterError(what) {}
  [[nodiscard]] bool retryable() const noexcept override { return true; }
};

/// A FaultInjector rule fired with action Abort (or Drop at a site that
/// cannot drop). Stands in for any transient transport-level failure.
struct InjectedFault : ClusterError {
  explicit InjectedFault(const std::string& what) : ClusterError(what) {}
  [[nodiscard]] bool retryable() const noexcept override { return true; }
};

/// A (real or injected) allocation failure while building rank-local
/// state. Retryable: the next attempt may allocate less or elsewhere.
struct AllocFailure : ClusterError {
  explicit AllocFailure(const std::string& what) : ClusterError(what) {}
  [[nodiscard]] bool retryable() const noexcept override { return true; }
};

/// True when `e` holds a retryable ClusterError.
[[nodiscard]] bool retryable_fault(const std::exception_ptr& e) noexcept;

/// What an injected rule does when it fires at a site.
enum class FaultAction {
  Delay,      ///< sleep delay_s, then proceed (models a slow link/rank)
  Drop,       ///< send sites: silently lose the message (peer times out)
  Abort,      ///< throw InjectedFault (models a transport error)
  AllocFail,  ///< throw AllocFailure (models a failed allocation)
};

/// One scheduled fault: fires when the (site, rank) visit counter
/// reaches `hit` (0 = the first visit). rank == -1 matches any rank.
/// Disruptive rules (abort/drop/alloc-fail) are one-shot — the first
/// rank to reach `hit` fires them and spends them, so one scheduled
/// fault is one fault event even when its abort keeps peers from ever
/// reaching their own hit. Delay rules fire once *per rank*, at each
/// rank's own hit-th visit (a delayed rank never disturbs the others).
struct FaultRule {
  std::string site;
  int rank = -1;
  std::uint64_t hit = 0;
  FaultAction action = FaultAction::Abort;
  double delay_s = 0.05;  ///< Delay action only.
};

/// Deterministic fault schedule. Visit counters are per (site, rank),
/// so which rule fires — and when — depends only on each rank's own
/// visit sequence, never on cross-rank interleaving.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(std::vector<FaultRule> rules)
      : rules_(std::move(rules)), rule_fired_(rules_.size(), 0) {}

  /// Movable so parse()/seeded() results can be stored (the mutex is
  /// not moved; the source must not be visited concurrently).
  FaultInjector(FaultInjector&& other) noexcept
      : rules_(std::move(other.rules_)),
        visits_(std::move(other.visits_)),
        rule_fired_(std::move(other.rule_fired_)),
        fired_(other.fired_) {}
  FaultInjector& operator=(FaultInjector&&) = delete;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Parses a schedule spec (used by RunOptions.fault_spec and the
  /// QC_FAULTS environment variable). Grammar, entries ';'-separated:
  ///
  ///   action@site[#hit][/rank][:delay_ms]
  ///
  ///   abort@cluster.barrier#2          3rd barrier visit, every rank
  ///   drop@cluster.send#1/0            rank 0's 2nd send is lost
  ///   delay@cluster.job#0/1:250        rank 1's 1st job delayed 250 ms
  ///   allocfail@dist.alloc             first chunk allocation fails
  ///
  /// or the whole spec may be `seeded:seed=S,count=N[,ranks=R]
  /// [,delay_ms=D]` for a seeded random schedule (see seeded()).
  /// Throws std::invalid_argument on a malformed spec.
  static FaultInjector parse(std::string_view spec);

  /// Seeded random schedule of `count` rules drawn over the instrumented
  /// site list: same seed, same schedule, forever. `ranks` bounds the
  /// rank draw (each rule targets one rank in [0, ranks) or all ranks).
  static FaultInjector seeded(std::uint64_t seed, std::size_t count, int ranks = 4,
                              double delay_s = 0.2);

  [[nodiscard]] const std::vector<FaultRule>& rules() const noexcept { return rules_; }

  /// Bumps the (site, rank) visit counter; returns the action of the
  /// rule that fires at this visit, if any (writes its delay to
  /// *delay_s for Delay). Thread-safe.
  [[nodiscard]] std::optional<FaultAction> visit(std::string_view site, int rank,
                                                 double* delay_s);

  /// Total rules fired so far (a schedule asserts it actually hit).
  [[nodiscard]] std::uint64_t fired() const noexcept;

  /// Zeroes the visit counters: the same schedule replays against a
  /// fresh run.
  void reset();

  /// Round-trips through the parse() grammar (one entry per rule).
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<FaultRule> rules_;
  mutable std::mutex mutex_;
  std::map<std::pair<std::string, int>, std::uint64_t> visits_;
  std::vector<std::uint64_t> rule_fired_;  ///< Per-rule fire counts (one-shot gate).
  std::uint64_t fired_ = 0;
};

/// The process-wide installed injector (nullptr = injection disabled).
/// One acquire atomic load — the only cost a fault_point pays when
/// injection is off.
[[nodiscard]] FaultInjector* current_injector() noexcept;

/// Installs/clears the current injector (nullptr disables injection).
void set_current_injector(FaultInjector* inj) noexcept;

/// Installs `inj` for the scope, restoring the previous injector on
/// exit (mirrors obs::ScopedTracer).
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* inj) : prev_(current_injector()) {
    set_current_injector(inj);
  }
  ~ScopedFaultInjector() { set_current_injector(prev_); }
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

 private:
  FaultInjector* prev_;
};

/// The instrumentation hook every named site calls. No-op (one acquire
/// atomic load) without an installed injector. When a rule fires:
/// Delay sleeps and proceeds; Abort throws InjectedFault; AllocFail
/// throws AllocFailure; Drop returns true when `can_drop` (the send
/// path discards the message — the receiver's deadline converts the
/// loss into a TimeoutError) and otherwise escalates to InjectedFault.
/// Fired rules bump the obs counter "fault.injected".
bool fault_point(std::string_view site, int rank, bool can_drop = false);

/// The sites instrumented in this repo, for seeded schedules and docs.
[[nodiscard]] const std::vector<std::string>& known_fault_sites();

}  // namespace qc::cluster
