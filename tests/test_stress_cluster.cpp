// Concurrency stress tests — written for the TSan leg of the CI matrix.
//
// These tests exist to give the race detector coverage of the paths
// where threads hand data to each other: ClusterSession's abort /
// recovery cycle (a failing rank aborts peers mid-communication, the
// session drains mailboxes, closes windows and re-arms), pulls from a
// peer's exposed buffer between two fences, the submit-while-running job
// queue, oversubscribed rank counts (more rank threads than cores, so
// preemption lands mid-protocol), and the Tracer's cross-thread span
// parenting (rank threads record into per-thread logs while the
// submitting thread's current span becomes their parent). They assert
// functional outcomes too, so they still earn their keep under ASan and
// plain Release runs — but their real job is to make TSan look at the
// handoffs, many times, under scheduling pressure.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/trace.hpp"

namespace qc {
namespace {

using cluster::ClusterAborted;
using cluster::ClusterSession;
using cluster::Comm;

/// Pulls the ring neighbour's rank id through expose/fence/pull.
int ring_pull(Comm& comm) {
  const int token = comm.rank();
  comm.expose<int>(std::span<const int>(&token, 1));
  comm.barrier();
  const int next = comm.window<int>((comm.rank() + 1) % comm.size())[0];
  comm.barrier();
  return next;
}

TEST(StressCluster, RepeatedAbortRecoveryCycles) {
  constexpr int kRanks = 4;
  constexpr int kCycles = 30;
  ClusterSession session(kRanks, 1);
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    // One rank fails while its peers are blocked at the fence of a
    // ring pull; everyone must unwind (ClusterAborted in the peers), the
    // root cause must surface from sync(), and the session must be
    // usable again immediately.
    const int victim = cycle % kRanks;
    session.submit([victim](Comm& comm) {
      if (comm.rank() == victim) throw std::runtime_error("rank failure");
      // Blocks at the fence against the failing rank; must wake aborted.
      (void)ring_pull(comm);  // lint:allow(collective-divergence) -- divergence is the subject: the victim never reaches the fence
    });
    try {
      session.sync();
      FAIL() << "sync did not rethrow the rank failure";
    } catch (const std::runtime_error& e) {
      // Root cause, not the secondary ClusterAborted.
      EXPECT_STREQ(e.what(), "rank failure");
    }
    // Recovery proof: a full collective over freshly-drained mailboxes.
    std::atomic<int> sum{0};
    session.submit([&sum](Comm& comm) {
      sum += comm.allreduce_sum(comm.rank());
    });
    session.sync();
    EXPECT_EQ(sum.load(), kRanks * (kRanks * (kRanks - 1) / 2));
  }
}

TEST(StressCluster, AbortDuringQueuedBatchSkipsRestOfBatch) {
  constexpr int kRanks = 3;
  ClusterSession session(kRanks, 1);
  for (int cycle = 0; cycle < 20; ++cycle) {
    std::atomic<int> ran_after_failure{0};
    session.submit([](Comm&) {});  // healthy leading job
    session.submit([](Comm& comm) {
      if (comm.rank() == 1) throw std::logic_error("mid-batch failure");
      comm.barrier();  // lint:allow(collective-divergence) -- divergence is the subject: abort must wake the barrier
    });
    session.submit([&ran_after_failure](Comm&) { ran_after_failure += 1; });
    EXPECT_THROW(session.sync(), std::logic_error);
    // The job queued behind the failure must have been skipped on every
    // rank — running it against half-recovered state would be a race.
    EXPECT_EQ(ran_after_failure.load(), 0);
  }
}

TEST(StressCluster, OversubscribedRanksExchangeUnderPressure) {
  // More rank threads than this machine has cores: preemption lands in
  // the middle of the mailbox protocol, which is exactly where TSan
  // wants to look. Every rank pushes a block around a ring and checks
  // what arrives.
  const int kRanks = static_cast<int>(std::thread::hardware_concurrency()) + 6;
  constexpr int kRounds = 10;
  constexpr std::size_t kBlock = 256;
  ClusterSession session(kRanks, 1);
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> ok{0};
    session.submit([&ok, round](Comm& comm) {
      std::vector<int> out(kBlock, comm.rank() + round);
      std::vector<int> in(kBlock, -1);
      const int next = (comm.rank() + 1) % comm.size();
      const int prev = (comm.rank() + comm.size() - 1) % comm.size();
      comm.send<int>(next, out, round);
      comm.recv<int>(prev, in, round);
      bool good = true;
      for (const int v : in) good = good && v == prev + round;
      if (good) ok += 1;
      comm.barrier();
    });
    session.sync();
    EXPECT_EQ(ok.load(), kRanks);
  }
}

TEST(StressCluster, OversubscribedPullsThenSwapUnderPressure) {
  // The expose/fence/pull handoff TSan must see ordered: each round every
  // rank pulls its ring neighbour's chunk into its own scratch between
  // two fences, then swaps chunk and scratch — so the buffer a peer read
  // in round k is the one its owner overwrites in round k+1.
  const int kRanks = static_cast<int>(std::thread::hardware_concurrency()) + 6;
  constexpr int kRounds = 10;
  constexpr std::size_t kBlock = 256;
  ClusterSession session(kRanks, 1);
  std::vector<std::vector<int>> chunks(static_cast<std::size_t>(kRanks));
  std::vector<std::vector<int>> scratches(static_cast<std::size_t>(kRanks),
                                          std::vector<int>(kBlock));
  for (int r = 0; r < kRanks; ++r) chunks[static_cast<std::size_t>(r)].assign(kBlock, r);
  std::atomic<int> ok{0};
  session.submit([&](Comm& comm) {
    auto& chunk = chunks[static_cast<std::size_t>(comm.rank())];
    auto& scratch = scratches[static_cast<std::size_t>(comm.rank())];
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    int expect = comm.rank();
    bool good = true;
    for (int round = 0; round < kRounds; ++round) {
      comm.expose<int>(chunk);
      comm.barrier();
      const std::span<const int> w = comm.window<int>(prev);
      std::copy(w.begin(), w.end(), scratch.begin());
      comm.barrier();
      chunk.swap(scratch);
      expect = (expect + comm.size() - 1) % comm.size();
      for (const int v : chunk) good = good && v == expect;
    }
    if (good) ok += 1;
  });
  session.sync();
  EXPECT_EQ(ok.load(), kRanks);
}

TEST(StressCluster, ConcurrentSubmittersOneSession) {
  // submit() is called from two threads while workers are draining the
  // queue — exercises the job-log handoff (deque growth vs. workers
  // reading elements outside the mutex).
  constexpr int kRanks = 2;
  constexpr int kJobsPerThread = 25;
  ClusterSession session(kRanks, 1);
  std::atomic<int> executed{0};
  const auto submitter = [&] {
    for (int j = 0; j < kJobsPerThread; ++j)
      session.submit([&executed](Comm& comm) {
        comm.barrier();
        executed += 1;
      });
  };
  std::thread a(submitter), b(submitter);
  a.join();
  b.join();
  session.sync();
  EXPECT_EQ(executed.load(), 2 * kJobsPerThread * kRanks);
}

TEST(StressTrace, RankSpansParentAcrossThreadsUnderAborts) {
  // Spans recorded on rank threads must stitch under the submitting
  // thread's open span, across repeated abort/recovery cycles, without
  // a data race on the tracer handoff (Tracer::current's acquire load
  // pairs with ScopedTracer's release publish).
  constexpr int kRanks = 3;
  constexpr int kCycles = 12;
  obs::Tracer tracer;
  const obs::ScopedTracer scoped(&tracer);
  ClusterSession session(kRanks, 1);
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    obs::Span op_span("stress.op");
    session.submit([cycle](Comm& comm) {
      obs::Span span("stress.rank_work");
      span.arg("rank", static_cast<double>(comm.rank()));
      if (cycle % 3 == 0 && comm.rank() == 0)
        throw std::runtime_error("traced failure");
      comm.barrier();  // lint:allow(collective-divergence) -- divergence is the subject: traced abort path
    });
    if (cycle % 3 == 0) {
      EXPECT_THROW(session.sync(), std::runtime_error);
    } else {
      session.sync();
    }
    op_span.end();
  }
  const obs::TraceData data = tracer.collect();
  // Every completed rank span must have a "stress.op" ancestor: the
  // rank's span nests under its thread's cluster.job span, which the
  // session parents under the submitting thread's open op span.
  std::map<obs::span_id, const obs::SpanEvent*> by_id;
  for (const auto& ev : data.spans) by_id.emplace(ev.id, &ev);
  std::size_t rank_spans = 0, parented = 0;
  for (const auto& ev : data.spans) {
    if (ev.name != "stress.rank_work") continue;
    ++rank_spans;
    for (obs::span_id p = ev.parent; p != 0;) {
      const auto it = by_id.find(p);
      if (it == by_id.end()) break;
      if (it->second->name == "stress.op") {
        ++parented;
        break;
      }
      p = it->second->parent;
    }
  }
  EXPECT_GT(rank_spans, 0u);
  EXPECT_EQ(parented, rank_spans);
}

TEST(StressCluster, DestructorUnderInFlightTimedOutJob) {
  // Tears a session down while a submitted job is still blocked past
  // its deadline, without ever calling sync(). The dtor must stop and
  // join the rank threads: the blocked receivers wake via the deadline
  // (TimeoutError -> abort_all, peers unwind with ClusterAborted), the
  // workers record the failures into the never-collected job slot, park,
  // see stop_ and exit. TSan watches the teardown handoff; the loop
  // varies the interleaving between the timeout firing and the join.
  for (int i = 0; i < 10; ++i) {
    ClusterSession session(4, 1);
    session.set_timeout(0.02);
    session.submit([](Comm& comm) {
      if (comm.rank() == 0) return;  // never sends: peers block, then time out
      int v = 0;
      comm.recv<int>(0, std::span<int>(&v, 1));  // lint:allow(p2p-unmatched) -- starved on purpose: teardown under timeout
    });
    if (i % 2 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // Destructor runs here with the job in flight (or mid-unwind).
  }
}

TEST(StressCluster, DestructorWithoutTimeoutAfterAbort) {
  // Same teardown shape, but the in-flight job dies by abort rather
  // than deadline: rank 0 throws immediately, the peers' blocked recvs
  // wake with ClusterAborted, and the dtor joins without a sync().
  for (int i = 0; i < 10; ++i) {
    ClusterSession session(4, 1);
    session.submit([](Comm& comm) {
      if (comm.rank() == 0) throw std::runtime_error("die before sending");
      int v = 0;
      comm.recv<int>(0, std::span<int>(&v, 1));  // lint:allow(p2p-unmatched) -- starved on purpose: teardown after abort
    });
  }
}

}  // namespace
}  // namespace qc
