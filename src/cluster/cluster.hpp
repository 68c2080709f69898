// In-process SPMD runtime (the distributed-memory substrate).
//
// The paper runs its distributed experiments with MPI on the Stampede
// supercomputer. This machine has neither MPI nor an interconnect, so the
// library ships its own rank-based SPMD runtime: a Cluster spawns R rank
// threads, each owning a private memory partition, that communicate
// exclusively through Comm. The API mirrors MPI naming (per the LLNL MPI
// guide) so the algorithms read like their MPI originals.
//
// Rank data motion is one-sided, the pattern MPI-3 gives ranks that
// share memory (MPI_Win_allocate_shared read between two fences):
//
//   comm.expose<V>(chunk);  // publish this rank's buffer
//   comm.barrier();         // fence 1: every rank's exposure is visible
//   ...                     // pull: read comm.window<V>(r) of any rank r,
//                           // write only memory no rank exposed
//   comm.barrier();         // fence 2: every pull is done
//
// So every byte crosses ranks in one copy, straight from the owner's
// buffer into the reader's, and the reader may gather strided blocks or
// combine on the way. No rank writes an exposed buffer between the
// fences; the distributed state vector pulls into its scratch and only
// swaps chunk and scratch after fence 2, so a motion that aborts leaves
// every chunk as it was. A multi-node transport would implement the
// same contract with MPI RMA.
//
// Eager point-to-point messages (send/recv with tag matching) remain
// only under the small collectives the measurement and norm paths use:
// allgather and allreduce_*.
//
// Semantics:
//  * send() is buffered (eager): it copies the payload and returns; no
//    rendezvous, so symmetric exchange patterns cannot deadlock.
//  * recv() blocks until a message from `src` with a matching tag
//    arrives; messages between a fixed (src, dst) pair are delivered in
//    send order (MPI's non-overtaking rule).
//  * If any rank throws, the cluster aborts: every blocked call wakes and
//    throws ClusterAborted, and Cluster::run rethrows the original error.
//  * Blocking operations honor a per-session deadline (set_timeout /
//    QC_CLUSTER_TIMEOUT_S): a recv or barrier that waits past the
//    budget aborts the cluster and throws TimeoutError, and sync()
//    runs a watchdog that converts a wedge (no job completing within a
//    grace multiple of the budget) into the same clean abort. A rank
//    hung in pure *compute* cannot be preempted — the same limitation
//    real MPI has — but every communication wait is bounded.
//  * Named fault-injection sites (cluster.send/recv/barrier/allgather/
//    job) call cluster::fault_point, so a deterministic FaultInjector
//    (fault.hpp) can exercise all of the above on demand. A fence is a
//    barrier, so every fence is a place the campaign can fail; the
//    motions built on expose/fence/pull name their own sites before
//    they expose (enforced by tools/qc_analyze rule fault-site).
//
// The runtime is persistent: a ClusterSession spawns its rank threads
// once and parks them on a job queue. submit() enqueues a closure that
// every rank executes against rank-local state that *survives between
// submissions* — the distributed state vector stays resident across a
// whole Engine::run instead of being scattered and gathered per op.
// Cluster is a thin synchronous wrapper (run = submit + sync) kept for
// the one-shot callers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "cluster/fault.hpp"
#include "obs/trace.hpp"

namespace qc::cluster {

/// Thrown in blocked ranks when a peer rank failed. The secondary
/// wake-up, never the root cause — and not retryable on its own (the
/// peer's root-cause error decides whether the batch can be retried).
struct ClusterAborted : ClusterError {
  ClusterAborted() : ClusterError("cluster aborted by peer failure") {}
};

namespace detail {

struct Message {
  int tag = 0;
  std::vector<std::byte> data;
};

struct Mailbox {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Message> queue;
};

struct Barrier {
  std::mutex mutex;
  std::condition_variable cv;
  int waiting = 0;
  std::uint64_t generation = 0;
};

/// One rank's exposed buffer (Comm::expose).
struct Window {
  const std::byte* data = nullptr;
  std::size_t bytes = 0;
};

struct SharedState {
  explicit SharedState(int size)
      : size(size),
        boxes(static_cast<std::size_t>(size) * size),
        windows(static_cast<std::size_t>(size)) {}

  int size;
  std::vector<Mailbox> boxes;  // index: src * size + dst
  /// Index: rank. Written by its own rank only, read by peers between
  /// the fences that follow the write (the barrier orders both).
  std::vector<Window> windows;
  Barrier barrier;
  std::atomic<bool> aborted{false};
  /// Deadline budget for blocking operations, seconds; <= 0 disables.
  std::atomic<double> timeout_s{0};

  Mailbox& box(int src, int dst) {
    return boxes[static_cast<std::size_t>(src) * size + dst];
  }

  void abort_all();
};

/// Identifies the session (if any) whose worker thread we are on, so
/// submit()/sync() can reject calls made from inside a job — a job runs
/// on *every* rank, so a nested submit would enqueue once per rank and
/// a nested sync would deadlock against the job-completion barrier.
inline thread_local const void* session_worker = nullptr;

}  // namespace detail

/// Per-rank communicator handle. Valid only inside Cluster::run.
class Comm {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return state_->size; }

  /// Eager (buffered) send of raw bytes.
  void send_bytes(int dst, std::span<const std::byte> data, int tag = 0);

  /// Blocking receive; the payload must be exactly data.size() bytes.
  void recv_bytes(int src, std::span<std::byte> data, int tag = 0);

  template <typename T>
  void send(int dst, std::span<const T> data, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, std::as_bytes(data), tag);
  }

  template <typename T>
  void recv(int src, std::span<T> data, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    recv_bytes(src, std::as_writable_bytes(data), tag);
  }

  /// All ranks block until every rank has arrived. Also the fence of
  /// expose/fence/pull.
  void barrier();

  /// Publishes `data` as this rank's window: after the next fence every
  /// rank may read it through window(), until the fence after that.
  /// The caller keeps `data` alive and unwritten over that span.
  /// Collective: every rank exposes (an empty span is a valid window).
  template <typename T>
  void expose(std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::span<const std::byte> bytes = std::as_bytes(data);
    state_->windows[static_cast<std::size_t>(rank_)] = {bytes.data(), bytes.size()};
  }

  /// Rank `r`'s window, as exposed with the same T; valid between the
  /// two fences that follow its expose().
  template <typename T>
  [[nodiscard]] std::span<const T> window(int r) const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (r < 0 || r >= size()) throw std::invalid_argument("window: bad rank");
    const detail::Window& w = state_->windows[static_cast<std::size_t>(r)];
    if (w.bytes % sizeof(T) != 0) throw std::invalid_argument("window: size is not a whole T");
    return {reinterpret_cast<const T*>(w.data), w.bytes / sizeof(T)};
  }

  /// Each rank contributes `block` elements; every rank receives all
  /// blocks concatenated in rank order (size() * block elements).
  template <typename T>
  void allgather(std::span<const T> local, std::span<T> all) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t block = local.size();
    if (all.size() != block * static_cast<std::size_t>(size()))
      throw std::invalid_argument("allgather: output size mismatch");
    fault_point("cluster.allgather", rank_);
    const int tag = next_collective_tag();
    for (int r = 0; r < size(); ++r)
      if (r != rank_) send<T>(r, local, tag);
    std::memcpy(all.data() + static_cast<std::size_t>(rank_) * block, local.data(),
                block * sizeof(T));
    for (int r = 0; r < size(); ++r)
      if (r != rank_) recv<T>(r, all.subspan(static_cast<std::size_t>(r) * block, block), tag);
  }

  /// Sum of `local` over all ranks, available on all ranks.
  template <typename T>
  T allreduce_sum(T local) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> all(static_cast<std::size_t>(size()));
    allgather<T>(std::span<const T>(&local, 1), std::span<T>(all));
    T acc{};
    for (const T& v : all) acc = acc + v;
    return acc;
  }

  /// Maximum of `local` over all ranks.
  double allreduce_max(double local);

 private:
  friend class Cluster;
  friend class ClusterSession;
  Comm(int rank, detail::SharedState* state) : rank_(rank), state_(state) {}

  static constexpr int kCollectiveTag = -7771;

  /// Each collective of a job gets its own tag at or below
  /// kCollectiveTag. Every rank runs a job's collectives in the same
  /// order, so the tags agree, and a message lost in one collective can
  /// never be matched by the next one's: the receiver's deadline turns
  /// the loss into a TimeoutError instead. Numbering restarts with each
  /// job, so ranks that a failed job left at different collectives
  /// agree again.
  int next_collective_tag() noexcept {
    return kCollectiveTag - static_cast<int>(collective_seq_++ % (1u << 20));
  }

  int rank_;
  detail::SharedState* state_;
  std::uint32_t collective_seq_ = 0;
};

/// Persistent SPMD execution context: owns the rank threads and the
/// shared mailbox state for its whole lifetime. Rank threads are
/// spawned once by the constructor and park on a job queue; each
/// submitted closure runs on every rank, in submission order, with one
/// full-stop completion barrier between jobs (the barrier and mailboxes
/// are shared, so jobs must not overlap). Rank-local state captured by
/// the closures — e.g. each rank's DistStateVector chunk — therefore
/// survives between submissions, which is what lets the distributed
/// backend keep the state resident across a whole Engine::run.
///
/// Failure semantics, preserved from the one-shot Cluster::run: a rank
/// throwing inside job k aborts the cluster (peers blocked in
/// communication wake with ClusterAborted and finish job k), the jobs
/// queued behind k in the same batch are skipped, and sync() rethrows
/// the root-cause error. The session then *recovers*: the abort flag is
/// cleared, mailboxes drained and the barrier reset before the next
/// job starts, so a session is usable again after sync() — though any
/// rank-local user state is the caller's to rebuild.
class ClusterSession {
 public:
  /// `ranks` >= 1. `omp_threads_per_rank` <= 0 divides the machine's
  /// OpenMP threads evenly among ranks (so nested kernels do not
  /// oversubscribe); pass 1 for strictly serial ranks. Spawns the rank
  /// threads immediately; they park until the first submit().
  explicit ClusterSession(int ranks, int omp_threads_per_rank = 0);

  /// Joins the parked rank threads (after draining queued jobs).
  ~ClusterSession();

  ClusterSession(const ClusterSession&) = delete;
  ClusterSession& operator=(const ClusterSession&) = delete;

  [[nodiscard]] int ranks() const noexcept { return ranks_; }

  /// Deadline budget for blocking operations (recv, barrier) and the
  /// sync() watchdog, in seconds; <= 0 disables deadlines (the
  /// default, unless QC_CLUSTER_TIMEOUT_S set one at construction). A
  /// wait that exceeds the budget aborts the cluster and throws
  /// TimeoutError on the waiting rank; the session recovers exactly as
  /// for any other abort.
  void set_timeout(double seconds) noexcept;
  [[nodiscard]] double timeout() const noexcept;

  /// Enqueues `fn` to run on every rank; returns immediately. Throws
  /// std::logic_error when called from inside a job (nested submit).
  void submit(std::function<void(Comm&)> fn);

  /// Blocks until every submitted job completed on every rank, then
  /// rethrows the first root-cause failure of the batch (if any) and
  /// re-arms the session for further submissions.
  void sync();

  /// One-shot convenience: submit(fn) + sync().
  void run(const std::function<void(Comm&)>& fn);

 private:
  /// One queued closure plus the trace context it was submitted under:
  /// the submitting thread's open span becomes the parent of every
  /// rank's "cluster.job" span, stitching rank-lane work under the
  /// engine op that caused it.
  struct Job {
    std::function<void(Comm&)> fn;
    obs::span_id parent = 0;
  };

  void worker(int rank);
  /// Post-failure cleanup (session mutex held, all ranks parked): clear
  /// the abort flag, drain every mailbox, close every window, reset the
  /// barrier.
  void recover_locked();

  int ranks_;
  int omp_threads_per_rank_;
  std::unique_ptr<detail::SharedState> state_;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable cv_;
  /// Append-only job log. A deque, not a vector: workers invoke
  /// jobs_[j] outside the mutex, and deque push_back never invalidates
  /// references to existing elements while a concurrent submit() grows
  /// the log.
  std::deque<Job> jobs_;
  std::size_t completed_ = 0;  ///< Jobs finished (all ranks + recovery).
  int done_in_current_ = 0;    ///< Ranks done with job `completed_`.
  bool failed_batch_ = false;  ///< Skip queued jobs until the next sync().
  bool stop_ = false;
  std::exception_ptr error_;   ///< First root-cause error of the batch.
  bool error_is_aborted_ = true;
};

/// One-shot synchronous view of the runtime, kept for callers that want
/// the original scoped semantics. Backed by a persistent ClusterSession,
/// so repeated run() calls reuse the same parked rank threads.
class Cluster {
 public:
  explicit Cluster(int ranks, int omp_threads_per_rank = 0)
      : session_(ranks, omp_threads_per_rank) {}

  /// Executes fn on every rank concurrently; returns when all complete.
  /// Rethrows the first rank failure (after aborting the others).
  void run(const std::function<void(Comm&)>& fn) { session_.run(fn); }

  [[nodiscard]] int ranks() const noexcept { return session_.ranks(); }

  /// The persistent session behind this cluster.
  [[nodiscard]] ClusterSession& session() noexcept { return session_; }

 private:
  ClusterSession session_;
};

}  // namespace qc::cluster
