#include "cluster/cluster.hpp"

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common/parallel.hpp"
#include "common/timer.hpp"

namespace qc::cluster {

namespace detail {

void SharedState::abort_all() {
  aborted.store(true, std::memory_order_seq_cst);
  for (auto& b : boxes) {
    std::lock_guard lock(b.mutex);
    b.cv.notify_all();
  }
  {
    std::lock_guard lock(barrier.mutex);
    barrier.cv.notify_all();
  }
}

}  // namespace detail

void Comm::send_bytes(int dst, std::span<const std::byte> data, int tag) {
  if (dst < 0 || dst >= size()) throw std::invalid_argument("send: bad destination rank");
  if (state_->aborted.load(std::memory_order_relaxed)) throw ClusterAborted{};
  // Drop-capable site: a fired Drop rule loses the message here, and the
  // receiver's deadline turns the loss into a TimeoutError.
  if (fault_point("cluster.send", rank_, /*can_drop=*/true)) return;
  detail::Mailbox& box = state_->box(rank_, dst);
  detail::Message msg;
  msg.tag = tag;
  msg.data.assign(data.begin(), data.end());
  {
    std::lock_guard lock(box.mutex);
    box.queue.push_back(std::move(msg));
  }
  box.cv.notify_all();
}

void Comm::recv_bytes(int src, std::span<std::byte> data, int tag) {
  if (src < 0 || src >= size()) throw std::invalid_argument("recv: bad source rank");
  fault_point("cluster.recv", rank_);
  detail::Mailbox& box = state_->box(src, rank_);
  // Deadline snapshot taken on entry: a budget change mid-wait applies
  // to the next blocking call.
  const double budget_s = state_->timeout_s.load(std::memory_order_relaxed);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(budget_s > 0 ? budget_s : 0));
  std::unique_lock lock(box.mutex);
  for (;;) {
    if (state_->aborted.load(std::memory_order_relaxed)) throw ClusterAborted{};
    // First message with a matching tag; same-tag messages stay ordered.
    const auto it = std::find_if(box.queue.begin(), box.queue.end(),
                                 [tag](const detail::Message& m) { return m.tag == tag; });
    if (it != box.queue.end()) {
      if (it->data.size() != data.size())
        throw std::runtime_error("recv: payload size mismatch");
      std::copy(it->data.begin(), it->data.end(), data.begin());
      box.queue.erase(it);
      return;
    }
    if (budget_s <= 0) {
      box.cv.wait(lock);
    } else if (box.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
      // Re-check under the lock before declaring a timeout: the message
      // or the abort may have raced the deadline.
      if (state_->aborted.load(std::memory_order_relaxed)) throw ClusterAborted{};
      const bool arrived =
          std::find_if(box.queue.begin(), box.queue.end(), [tag](const detail::Message& m) {
            return m.tag == tag;
          }) != box.queue.end();
      if (arrived) continue;
      // abort_all locks every mailbox, including this one.
      lock.unlock();
      obs::instant("cluster.timeout");
      obs::counter_add("fault.timeouts", 1);
      state_->abort_all();
      throw TimeoutError("recv from rank " + std::to_string(src) + " (tag " +
                         std::to_string(tag) + ") timed out after " +
                         std::to_string(budget_s) + " s");
    }
  }
}

void Comm::barrier() {
  // Barrier wait is where load imbalance hides: the per-lane sum of
  // these spans is the time this rank spent waiting for slower peers.
  obs::Span wait_span("cluster.barrier");
  fault_point("cluster.barrier", rank_);
  detail::Barrier& b = state_->barrier;
  const double budget_s = state_->timeout_s.load(std::memory_order_relaxed);
  std::unique_lock lock(b.mutex);
  if (state_->aborted.load(std::memory_order_relaxed)) throw ClusterAborted{};
  const std::uint64_t gen = b.generation;
  if (++b.waiting == state_->size) {
    b.waiting = 0;
    ++b.generation;
    b.cv.notify_all();
    return;
  }
  const auto released = [&] {
    return b.generation != gen || state_->aborted.load(std::memory_order_relaxed);
  };
  if (budget_s <= 0) {
    b.cv.wait(lock, released);
  } else if (!b.cv.wait_for(lock, std::chrono::duration<double>(budget_s), released)) {
    // Deadline expired with peers still missing. The barrier count we
    // contributed is reset by recover_locked once all ranks unwind.
    lock.unlock();
    obs::counter_add("fault.timeouts", 1);
    state_->abort_all();
    throw TimeoutError("barrier timed out after " + std::to_string(budget_s) + " s");
  }
  if (state_->aborted.load(std::memory_order_relaxed)) throw ClusterAborted{};
}

double Comm::allreduce_max(double local) {
  std::vector<double> all(static_cast<std::size_t>(size()));
  allgather<double>(std::span<const double>(&local, 1), std::span<double>(all));
  return *std::max_element(all.begin(), all.end());
}

namespace {

/// The sync() watchdog fires only after this many timeout budgets pass
/// with no job completing: individual recv/barrier waits are already
/// bounded by one budget each, so the watchdog is the backstop for a
/// rank wedged *outside* any instrumented wait.
constexpr double kSyncGraceFactor = 4.0;

/// True when `e` is (exactly) the secondary ClusterAborted wake-up —
/// used to prefer reporting a root-cause error from a peer rank.
bool is_cluster_aborted(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const ClusterAborted&) {
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

ClusterSession::ClusterSession(int ranks, int omp_threads_per_rank) : ranks_(ranks) {
  if (ranks < 1) throw std::invalid_argument("ClusterSession: need at least one rank");
  if (omp_threads_per_rank <= 0) {
    omp_threads_per_rank_ = std::max(1, max_threads() / ranks);
  } else {
    omp_threads_per_rank_ = omp_threads_per_rank;
  }
  state_ = std::make_unique<detail::SharedState>(ranks_);
  // Deadlines default off; QC_CLUSTER_TIMEOUT_S arms them process-wide
  // (e.g. for a whole CI leg) without touching call sites.
  if (const char* env = std::getenv("QC_CLUSTER_TIMEOUT_S")) {
    const double v = std::atof(env);
    if (v > 0) state_->timeout_s.store(v, std::memory_order_relaxed);
  }
  threads_.reserve(static_cast<std::size_t>(ranks_));
  for (int r = 0; r < ranks_; ++r) threads_.emplace_back([this, r] { worker(r); });
}

void ClusterSession::set_timeout(double seconds) noexcept {
  state_->timeout_s.store(seconds > 0 ? seconds : 0, std::memory_order_relaxed);
}

double ClusterSession::timeout() const noexcept {
  return state_->timeout_s.load(std::memory_order_relaxed);
}

ClusterSession::~ClusterSession() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ClusterSession::worker(int rank) {
  // Each rank gets its own OpenMP thread budget so nested parallel
  // kernels divide rather than oversubscribe the machine.
  omp_set_num_threads(omp_threads_per_rank_);
  detail::session_worker = this;
  obs::set_thread_lane(rank + 1);  // lane 0 = driver, rank r = lane r+1
  Comm comm(rank, state_.get());
  for (std::size_t j = 0;; ++j) {
    bool skip = false;
    const Job* job = nullptr;
    // Park time is measured unconditionally (one steady-clock read) and
    // emitted *retroactively* once a job arrives and a tracer is known
    // to be installed — a parked rank never holds an open span, so a
    // Tracer can be collected and destroyed while ranks are parked.
    WallTimer park;
    {
      std::unique_lock lock(mutex_);
      // Jobs run in lockstep: job j starts only once job j-1 finished
      // on every rank AND any failure recovery ran — the barrier and
      // mailboxes are shared, so overlapping jobs would corrupt them.
      cv_.wait(lock, [&] { return completed_ == j && (j < jobs_.size() || stop_); });
      if (j >= jobs_.size()) return;  // stop requested, queue drained
      // Element pointer taken under the lock: deque push_back (a
      // concurrent submit) never invalidates it.
      job = &jobs_[j];
      skip = failed_batch_;
    }
    obs::emit_interval("cluster.park", park.seconds(), 0);
    std::exception_ptr err;
    if (!skip) {
      // Parented under the span the *submitting* thread had open — the
      // cross-thread stitch that nests rank work under its engine op.
      obs::Span job_span("cluster.job", job->parent);
      job_span.arg("job", static_cast<double>(j));
      job_span.arg("rank", static_cast<double>(rank));
      comm.collective_seq_ = 0;
      try {
        fault_point("cluster.job", rank);
        (job->fn)(comm);
      } catch (...) {
        err = std::current_exception();
        state_->abort_all();
      }
    }
    {
      std::lock_guard lock(mutex_);
      if (err != nullptr) {
        failed_batch_ = true;
        const bool aborted = is_cluster_aborted(err);
        if (error_ == nullptr || (error_is_aborted_ && !aborted)) {
          error_ = err;
          error_is_aborted_ = aborted;
        }
      }
      if (++done_in_current_ == ranks_) {
        done_in_current_ = 0;
        if (state_->aborted.load(std::memory_order_relaxed)) recover_locked();
        ++completed_;
        cv_.notify_all();
      }
    }
  }
}

void ClusterSession::recover_locked() {
  // All ranks are parked between jobs here, so no mailbox or barrier
  // lock is held by anyone; reset the substrate for the next job.
  state_->aborted.store(false, std::memory_order_seq_cst);
  for (auto& b : state_->boxes) {
    std::lock_guard lock(b.mutex);
    b.queue.clear();
  }
  // A failed motion's windows may point at buffers its job freed.
  std::fill(state_->windows.begin(), state_->windows.end(), detail::Window{});
  {
    std::lock_guard lock(state_->barrier.mutex);
    state_->barrier.waiting = 0;
    ++state_->barrier.generation;
  }
}

void ClusterSession::submit(std::function<void(Comm&)> fn) {
  if (!fn) throw std::invalid_argument("ClusterSession::submit: null job");
  // Only *self*-submission is rejected: a job running a different,
  // inner session (the pre-session Cluster-inside-Cluster pattern)
  // stays legal.
  if (detail::session_worker == this)
    throw std::logic_error(
        "ClusterSession::submit: nested submit from inside a job (every rank "
        "would enqueue a copy)");
  {
    std::lock_guard lock(mutex_);
    // Capture the submitter's open span so every rank's job span nests
    // under the engine op (or whatever) that submitted the work.
    jobs_.push_back(Job{std::move(fn), obs::current_span()});
  }
  cv_.notify_all();
}

void ClusterSession::sync() {
  if (detail::session_worker == this)
    throw std::logic_error("ClusterSession::sync: called from inside this session's job");
  std::unique_lock lock(mutex_);
  const double budget_s = state_->timeout_s.load(std::memory_order_relaxed);
  bool watchdog_fired = false;
  if (budget_s <= 0) {
    cv_.wait(lock, [&] { return completed_ == jobs_.size(); });
  } else {
    // Watchdog: when no job completes for a whole grace window, assume
    // a wedged rank and abort the cluster — peers blocked in
    // communication wake with ClusterAborted, the job finishes on every
    // rank, the session recovers, and the batch fails with
    // TimeoutError. A rank hung in pure compute still cannot be
    // preempted (same as MPI); its eventual return completes the wait.
    const auto grace = std::chrono::duration<double>(budget_s * kSyncGraceFactor);
    std::size_t last_progress = completed_;
    while (completed_ != jobs_.size()) {
      const bool moved = cv_.wait_for(lock, grace, [&] {
        return completed_ == jobs_.size() || completed_ != last_progress;
      });
      if (moved) {
        last_progress = completed_;
        continue;
      }
      if (!watchdog_fired) {
        watchdog_fired = true;
        obs::instant("cluster.timeout");
        obs::counter_add("fault.timeouts", 1);
        // Lock order stays mutex_ -> mailbox/barrier, matching the
        // recover_locked path; workers never hold both in reverse.
        state_->abort_all();
      }
    }
  }
  failed_batch_ = false;  // re-arm: jobs submitted after sync() run again
  const std::exception_ptr e = error_;
  const bool only_aborted = error_is_aborted_;
  error_ = nullptr;
  error_is_aborted_ = true;
  lock.unlock();
  // The watchdog's own abort shows up in the ranks as ClusterAborted;
  // surface the root cause (the wedge) as a TimeoutError unless a rank
  // recorded a more specific error of its own.
  if (watchdog_fired && (e == nullptr || only_aborted))
    throw TimeoutError("sync watchdog: no job progress within " +
                       std::to_string(budget_s * kSyncGraceFactor) +
                       " s; cluster aborted");
  if (e != nullptr) std::rethrow_exception(e);
}

void ClusterSession::run(const std::function<void(Comm&)>& fn) {
  submit(fn);
  sync();
}

}  // namespace qc::cluster
