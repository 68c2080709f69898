// In-process message-passing runtime (the distributed-memory substrate).
//
// The paper runs its distributed experiments with MPI on the Stampede
// supercomputer. This machine has neither MPI nor an interconnect, so the
// library ships its own rank-based SPMD runtime: a Cluster spawns R rank
// threads, each owning a private memory partition, that communicate
// exclusively through Comm — point-to-point eager sends with tag
// matching, plus the collectives the distributed state vector and
// distributed FFT need (barrier, broadcast, allgather, alltoall,
// allreduce). The API deliberately mirrors MPI naming (per the LLNL MPI
// guide) so the algorithms read like their MPI originals and could be
// ported back to real MPI by swapping this header.
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
//  * Named fault-injection sites (cluster.send/recv/sendrecv/barrier/
//    broadcast/allgather/alltoall/alltoallv[.counts]/job) call
//    cluster::fault_point, so a deterministic FaultInjector (fault.hpp)
//    can exercise all of the above on demand — every communication
//    entry point is a place the campaign can fail (enforced by
//    tools/qc_analyze rule fault-site).
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

struct SharedState {
  explicit SharedState(int size)
      : size(size), boxes(static_cast<std::size_t>(size) * size) {}

  int size;
  std::vector<Mailbox> boxes;  // index: src * size + dst
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

  /// Symmetric exchange with `peer` (send our buffer, receive theirs).
  /// Safe under eager sends regardless of ordering.
  template <typename T>
  void sendrecv(int peer, std::span<const T> out, std::span<T> in, int tag = 0) {
    fault_point("cluster.sendrecv", rank_);
    send(peer, out, tag);
    recv(peer, in, tag);
  }

  /// All ranks block until every rank has arrived.
  void barrier();

  /// Root's buffer is copied to all ranks.
  template <typename T>
  void broadcast(int root, std::span<T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    fault_point("cluster.broadcast", rank_);
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r)
        if (r != root) send<T>(r, data, kCollectiveTag);
    } else {
      recv<T>(root, data, kCollectiveTag);
    }
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
    for (int r = 0; r < size(); ++r)
      if (r != rank_) send<T>(r, local, kCollectiveTag);
    std::memcpy(all.data() + static_cast<std::size_t>(rank_) * block, local.data(),
                block * sizeof(T));
    for (int r = 0; r < size(); ++r)
      if (r != rank_) recv<T>(r, all.subspan(static_cast<std::size_t>(r) * block, block),
                              kCollectiveTag);
  }

  /// Block-transpose exchange: block j of `out` goes to rank j; block r
  /// of `in` comes from rank r. All blocks have out.size()/size()
  /// elements. This is the communication primitive of the distributed
  /// FFT's three transposition steps (paper Eq. 5 charges 3 all-to-alls).
  /// `out` and `in` may be the same buffer (in place): every outgoing
  /// block is copied into its message before any block is received, and
  /// the self block stays where it is. Any other overlap is undefined.
  template <typename T>
  void alltoall(std::span<const T> out, std::span<T> in) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int p = size();
    if (out.size() != in.size() || out.size() % static_cast<std::size_t>(p) != 0)
      throw std::invalid_argument("alltoall: sizes must match and divide rank count");
    fault_point("cluster.alltoall", rank_);
    const std::size_t block = out.size() / p;
    for (int r = 0; r < p; ++r)
      if (r != rank_) send<T>(r, out.subspan(static_cast<std::size_t>(r) * block, block),
                              kCollectiveTag);
    // The explicit bound check keeps GCC's -Wstringop-overflow inliner
    // analysis from inventing a huge copy size on impossible paths.
    if (out.data() != in.data() && block > 0 && block <= out.size()) {
      std::memcpy(in.data() + static_cast<std::size_t>(rank_) * block,
                  out.data() + static_cast<std::size_t>(rank_) * block, block * sizeof(T));
    }
    for (int r = 0; r < p; ++r)
      if (r != rank_) recv<T>(r, in.subspan(static_cast<std::size_t>(r) * block, block),
                              kCollectiveTag);
  }

  /// Variable-size all-to-all: rank r's `sendbuf` holds size() blocks
  /// back to back, block j of send_counts[j] elements destined for rank
  /// j. Returns the concatenation of the blocks received (in rank
  /// order) and writes their sizes to `recv_counts`. This is the
  /// exchange primitive of distributed classical-function emulation,
  /// where each rank's amplitudes scatter to arbitrary destination
  /// ranks (paper §4.2: "one global permutation of the (distributed)
  /// state vector").
  template <typename T>
  std::vector<T> alltoallv(std::span<const T> sendbuf,
                           std::span<const std::size_t> send_counts,
                           std::vector<std::size_t>& recv_counts) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int p = size();
    if (send_counts.size() != static_cast<std::size_t>(p))
      throw std::invalid_argument("alltoallv: need one count per rank");
    std::size_t total = 0;
    for (const std::size_t c : send_counts) total += c;
    if (sendbuf.size() != total)
      throw std::invalid_argument("alltoallv: counts do not match buffer size");
    fault_point("cluster.alltoallv", rank_);

    // Exchange counts with a fixed-size alltoall, then the payloads.
    recv_counts.assign(static_cast<std::size_t>(p), 0);
    comm_alltoall_counts(send_counts, recv_counts);
    std::size_t offset = 0;
    for (int r = 0; r < p; ++r) {
      const std::size_t c = send_counts[static_cast<std::size_t>(r)];
      if (r != rank_ && c > 0) send<T>(r, sendbuf.subspan(offset, c), kCollectiveTag);
      offset += c;
    }
    std::size_t recv_total = 0;
    for (const std::size_t c : recv_counts) recv_total += c;
    std::vector<T> out(recv_total);
    std::size_t in_offset = 0;
    std::size_t self_offset = 0;
    for (int r = 0; r < rank_; ++r) self_offset += send_counts[static_cast<std::size_t>(r)];
    for (int r = 0; r < p; ++r) {
      const std::size_t c = recv_counts[static_cast<std::size_t>(r)];
      if (c > 0) {
        if (r == rank_) {
          std::memcpy(out.data() + in_offset, sendbuf.data() + self_offset, c * sizeof(T));
        } else {
          recv<T>(r, std::span<T>(out.data() + in_offset, c), kCollectiveTag);
        }
      }
      in_offset += c;
    }
    return out;
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

  /// Count exchange for alltoallv (non-template helper).
  void comm_alltoall_counts(std::span<const std::size_t> send,
                            std::span<std::size_t> recv);

  static constexpr int kCollectiveTag = -7771;

  int rank_;
  detail::SharedState* state_;
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
  /// the abort flag, drain every mailbox, reset the barrier.
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
