// Tests for the in-process SPMD runtime: point-to-point semantics, tag
// matching, ordering, collectives, barrier, expose/fence/pull, and abort
// propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"

namespace qc::cluster {
namespace {

TEST(Cluster, RanksSeeCorrectIds) {
  Cluster cluster(4);
  std::vector<int> seen(4, -1);
  cluster.run([&](Comm& comm) {
    EXPECT_EQ(comm.size(), 4);
    seen[static_cast<std::size_t>(comm.rank())] = comm.rank();
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)], r);
}

TEST(Cluster, SingleRankWorks) {
  Cluster cluster(1);
  int count = 0;
  cluster.run([&](Comm& comm) {
    EXPECT_EQ(comm.size(), 1);
    comm.barrier();
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(Cluster, RejectsZeroRanks) { EXPECT_THROW(Cluster(0), std::invalid_argument); }

TEST(Comm, PointToPointRoundTrip) {
  Cluster cluster(2);
  cluster.run([](Comm& comm) {
    std::vector<double> buf{1.5, 2.5, 3.5};
    if (comm.rank() == 0) {
      comm.send<double>(1, buf);
      std::vector<double> back(3);
      comm.recv<double>(1, back);
      EXPECT_EQ(back[0], 3.0);
    } else {
      std::vector<double> in(3);
      comm.recv<double>(0, in);
      EXPECT_EQ(in[2], 3.5);
      std::vector<double> reply{3.0, 2.0, 1.0};
      comm.send<double>(0, reply);
    }
  });
}

TEST(Comm, MessagesBetweenPairStayOrdered) {
  Cluster cluster(2);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 100; ++i) {
        const int v = i;
        comm.send<int>(1, std::span<const int>(&v, 1));
      }
    } else {
      for (int i = 0; i < 100; ++i) {
        int v = -1;
        comm.recv<int>(0, std::span<int>(&v, 1));
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(Comm, TagMatchingSkipsNonMatching) {
  Cluster cluster(2);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const int a = 10, b = 20;
      comm.send<int>(1, std::span<const int>(&a, 1), /*tag=*/1);
      comm.send<int>(1, std::span<const int>(&b, 1), /*tag=*/2);
    } else {
      int v = 0;
      comm.recv<int>(0, std::span<int>(&v, 1), /*tag=*/2);
      EXPECT_EQ(v, 20);
      comm.recv<int>(0, std::span<int>(&v, 1), /*tag=*/1);
      EXPECT_EQ(v, 10);
    }
  });
}

TEST(Comm, ExposeFencePullSymmetricExchange) {
  Cluster cluster(2);
  cluster.run([](Comm& comm) {
    std::vector<int> mine(4, comm.rank());
    std::vector<int> theirs(4, -1);
    comm.expose<int>(mine);
    comm.barrier();
    const std::span<const int> peer = comm.window<int>(1 - comm.rank());
    ASSERT_EQ(peer.size(), 4u);
    std::copy(peer.begin(), peer.end(), theirs.begin());
    comm.barrier();
    for (int v : theirs) EXPECT_EQ(v, 1 - comm.rank());
  });
}

TEST(Comm, BarrierSynchronizes) {
  Cluster cluster(8);
  std::atomic<int> before{0}, after{0};
  cluster.run([&](Comm& comm) {
    ++before;
    comm.barrier();
    // Every rank must have incremented `before` before any rank passes.
    EXPECT_EQ(before.load(), 8);
    ++after;
    comm.barrier();
    EXPECT_EQ(after.load(), 8);
  });
}

TEST(Comm, PullFromEveryRoot) {
  // One rank's window read by all: a broadcast as a pull.
  Cluster cluster(4);
  cluster.run([](Comm& comm) {
    for (int root = 0; root < comm.size(); ++root) {
      std::vector<int> data(3, comm.rank() == root ? 42 + root : -1);
      comm.expose<int>(data);
      comm.barrier();
      std::vector<int> got(3, -1);
      const std::span<const int> w = comm.window<int>(root);
      std::copy(w.begin(), w.end(), got.begin());
      comm.barrier();
      for (int v : got) EXPECT_EQ(v, 42 + root);
    }
  });
}

TEST(Comm, AllgatherConcatenatesInRankOrder) {
  Cluster cluster(4);
  cluster.run([](Comm& comm) {
    std::vector<int> mine{comm.rank() * 2, comm.rank() * 2 + 1};
    std::vector<int> all(8, -1);
    comm.allgather<int>(mine, all);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
  });
}

TEST(Comm, PullTransposesBlocks) {
  // The all-to-all pattern: rank r pulls block r of every rank's window.
  const int p = 4;
  Cluster cluster(p);
  cluster.run([p](Comm& comm) {
    // Element j of rank r's exposed buffer encodes (r, j).
    std::vector<int> out(static_cast<std::size_t>(p) * 2);
    for (int j = 0; j < p; ++j) {
      out[static_cast<std::size_t>(2 * j)] = comm.rank() * 100 + j * 10;
      out[static_cast<std::size_t>(2 * j) + 1] = comm.rank() * 100 + j * 10 + 1;
    }
    std::vector<int> in(out.size(), -1);
    comm.expose<int>(out);
    comm.barrier();
    for (int r = 0; r < p; ++r) {
      const std::span<const int> w = comm.window<int>(r);
      in[static_cast<std::size_t>(2 * r)] = w[static_cast<std::size_t>(2 * comm.rank())];
      in[static_cast<std::size_t>(2 * r) + 1] = w[static_cast<std::size_t>(2 * comm.rank()) + 1];
    }
    comm.barrier();
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(in[static_cast<std::size_t>(2 * r)], r * 100 + comm.rank() * 10);
      EXPECT_EQ(in[static_cast<std::size_t>(2 * r) + 1], r * 100 + comm.rank() * 10 + 1);
    }
  });
}

TEST(Comm, PullIntoScratchThenSwap) {
  // One buffer per rank before and after, at every rank count: pull into
  // a private scratch between the fences, adopt it after the second.
  for (const int p : {1, 2, 4, 8}) {
    Cluster cluster(p);
    cluster.run([p](Comm& comm) {
      std::vector<int> buf(static_cast<std::size_t>(p) * 3);
      for (int j = 0; j < p; ++j)
        for (int e = 0; e < 3; ++e)
          buf[static_cast<std::size_t>(3 * j + e)] = comm.rank() * 1000 + j * 10 + e;
      std::vector<int> scratch(buf.size(), -1);
      comm.expose<int>(buf);
      comm.barrier();
      for (int r = 0; r < p; ++r) {
        const std::span<const int> w = comm.window<int>(r);
        std::copy_n(w.begin() + 3 * comm.rank(), 3, scratch.begin() + 3 * r);
      }
      comm.barrier();
      buf.swap(scratch);
      for (int r = 0; r < p; ++r)
        for (int e = 0; e < 3; ++e)
          EXPECT_EQ(buf[static_cast<std::size_t>(3 * r + e)], r * 1000 + comm.rank() * 10 + e)
              << "ranks=" << p;
    });
  }
}

/// Variable blocks behind a header, as the arithmetic route lays out its
/// outbox: element r <= size() is where destination r's block starts.
std::vector<int> pull_variable_blocks(Comm& comm, const std::vector<int>& outbox) {
  comm.expose<int>(outbox);
  comm.barrier();
  std::vector<int> in;
  const auto me = static_cast<std::size_t>(comm.rank());
  for (int r = 0; r < comm.size(); ++r) {
    const std::span<const int> w = comm.window<int>(r);
    in.insert(in.end(), w.begin() + w[me], w.begin() + w[me + 1]);
  }
  comm.barrier();
  return in;
}

TEST(Comm, PullVariableBlocks) {
  const int p = 4;
  Cluster cluster(p);
  cluster.run([p](Comm& comm) {
    // Rank r sends r+j+1 elements to rank j, each tagged (r*100 + j).
    std::vector<int> outbox(static_cast<std::size_t>(p) + 1);
    for (int j = 0; j < p; ++j) {
      outbox[static_cast<std::size_t>(j)] = static_cast<int>(outbox.size());
      for (int k = 0; k < comm.rank() + j + 1; ++k) outbox.push_back(comm.rank() * 100 + j);
    }
    outbox[static_cast<std::size_t>(p)] = static_cast<int>(outbox.size());
    const std::vector<int> in = pull_variable_blocks(comm, outbox);
    std::size_t offset = 0;
    for (int r = 0; r < p; ++r) {
      const auto c = static_cast<std::size_t>(r + comm.rank() + 1);
      for (std::size_t k = 0; k < c; ++k) EXPECT_EQ(in[offset + k], r * 100 + comm.rank());
      offset += c;
    }
    EXPECT_EQ(offset, in.size());
  });
}

TEST(Comm, PullEmptyBlocks) {
  Cluster cluster(3);
  cluster.run([](Comm& comm) {
    // Only rank 0 sends, and only to rank 2.
    std::vector<int> outbox{4, 4, 4, 4};
    if (comm.rank() == 0) outbox = {4, 4, 4, 6, 15, 25};
    const std::vector<int> in = pull_variable_blocks(comm, outbox);
    if (comm.rank() == 2) {
      EXPECT_EQ(in, (std::vector<int>{15, 25}));
    } else {
      EXPECT_TRUE(in.empty());
    }
  });
}

TEST(Comm, WindowValidatesRankAndSize) {
  Cluster cluster(2);
  EXPECT_THROW(cluster.run([](Comm& comm) {
                 std::vector<char> odd(3);
                 comm.expose<char>(odd);
                 comm.barrier();
                 (void)comm.window<int>(comm.rank());  // 3 bytes are not whole ints
               }),
               std::invalid_argument);
  EXPECT_THROW(cluster.run([](Comm& comm) { (void)comm.window<int>(7); }),
               std::invalid_argument);
}

TEST(ClusterSession, RecoveryClosesEveryWindow) {
  // A motion that aborts between its fences leaves windows pointing at
  // buffers its job may have freed; the recovered session must not
  // hand them out.
  ClusterSession session(2, 1);
  std::vector<std::vector<int>> bufs(2, std::vector<int>(8, 1));
  session.submit([&bufs](Comm& comm) {
    comm.expose<int>(bufs[static_cast<std::size_t>(comm.rank())]);
    if (comm.rank() == 1) throw std::runtime_error("abort between the fences");
    comm.barrier();  // lint:allow(collective-divergence) -- divergence is the subject: the abort must wake the fence
  });
  EXPECT_THROW(session.sync(), std::runtime_error);
  std::vector<std::size_t> seen(2, 99);
  session.submit([&seen](Comm& comm) {
    seen[static_cast<std::size_t>(comm.rank())] = comm.window<int>(1 - comm.rank()).size();
  });
  session.sync();
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 0}));
}

TEST(Comm, AllreduceSumAndMax) {
  Cluster cluster(6);
  cluster.run([](Comm& comm) {
    const double sum = comm.allreduce_sum(static_cast<double>(comm.rank() + 1));
    EXPECT_DOUBLE_EQ(sum, 21.0);  // 1+2+...+6
    const double mx = comm.allreduce_max(static_cast<double>(comm.rank()));
    EXPECT_DOUBLE_EQ(mx, 5.0);
    const std::uint64_t usum = comm.allreduce_sum(std::uint64_t{1});
    EXPECT_EQ(usum, 6u);
  });
}

TEST(Comm, RecvSizeMismatchThrows) {
  Cluster cluster(2);
  EXPECT_THROW(cluster.run([](Comm& comm) {
                 if (comm.rank() == 0) {
                   std::vector<int> v(3);
                   comm.send<int>(1, v);
                   std::vector<int> sink(1);
                   comm.recv<int>(1, sink);  // never satisfied; peer throws
                 } else {
                   std::vector<int> w(5);
                   comm.recv<int>(0, w);  // size mismatch -> throws
                 }
               }),
               std::runtime_error);
}

TEST(Comm, InvalidRankThrows) {
  Cluster cluster(2);
  EXPECT_THROW(cluster.run([](Comm& comm) {
                 std::vector<int> v(1);
                 comm.send<int>(7, v);  // lint:allow(p2p-unmatched) -- invalid-rank send must throw before delivery
               }),
               std::invalid_argument);
}

TEST(Cluster, PeerFailureAbortsBlockedRanks) {
  Cluster cluster(3);
  EXPECT_THROW(cluster.run([](Comm& comm) {
                 if (comm.rank() == 0) throw std::runtime_error("rank0 died");
                 // Other ranks block forever unless aborted.
                 std::vector<int> v(1);
                 comm.recv<int>(0, v);  // lint:allow(p2p-unmatched) -- deliberately unanswered: abort must wake it
               }),
               std::runtime_error);
}

TEST(Cluster, ReusableForMultipleRuns) {
  Cluster cluster(2);
  for (int iter = 0; iter < 3; ++iter) {
    int total = 0;
    cluster.run([&](Comm& comm) {
      const int x = comm.allreduce_sum(1);
      if (comm.rank() == 0) total = x;
    });
    EXPECT_EQ(total, 2);
  }
}

TEST(Cluster, ManyRanksStress) {
  Cluster cluster(16, /*omp_threads_per_rank=*/1);
  cluster.run([](Comm& comm) {
    // Ring pass: each rank sends its id around the ring.
    int token = comm.rank();
    for (int step = 0; step < comm.size(); ++step) {
      const int next = (comm.rank() + 1) % comm.size();
      const int prev = (comm.rank() + comm.size() - 1) % comm.size();
      comm.send<int>(next, std::span<const int>(&token, 1));
      comm.recv<int>(prev, std::span<int>(&token, 1));
    }
    EXPECT_EQ(token, comm.rank());  // full circle
  });
}

// --- persistent session lifecycle --------------------------------------

TEST(ClusterSession, RankLocalStateSurvivesAcrossJobs) {
  // Three submissions against the same parked ranks; each rank's slot
  // accumulates across jobs — the residency contract DistBackend
  // builds on.
  const int p = 4;
  ClusterSession session(p, 1);
  std::vector<int> slots(static_cast<std::size_t>(p), 0);
  session.submit([&](Comm& comm) { slots[static_cast<std::size_t>(comm.rank())] = comm.rank(); });
  session.submit([&](Comm& comm) { slots[static_cast<std::size_t>(comm.rank())] += 10; });
  int total = -1;
  session.submit([&](Comm& comm) {
    const int x = comm.allreduce_sum(slots[static_cast<std::size_t>(comm.rank())]);
    if (comm.rank() == 0) total = x;
  });
  session.sync();
  EXPECT_EQ(total, 0 + 1 + 2 + 3 + 4 * 10);
  for (int r = 0; r < p; ++r) EXPECT_EQ(slots[static_cast<std::size_t>(r)], r + 10);
}

TEST(ClusterSession, SubmitReturnsBeforeExecution) {
  ClusterSession session(2, 1);
  std::atomic<bool> go{false};
  std::atomic<int> ran{0};
  session.submit([&](Comm& comm) {
    while (!go.load()) std::this_thread::yield();
    comm.barrier();
    ++ran;
  });
  // submit() returned while every rank is still spinning on `go`.
  EXPECT_EQ(ran.load(), 0);
  go.store(true);
  session.sync();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ClusterSession, AbortInOneJobLeavesSessionUsable) {
  ClusterSession session(3, 1);
  session.submit([](Comm& comm) {
    if (comm.rank() == 0) throw std::runtime_error("job1 died");
    // Peers block until the abort wakes them with ClusterAborted.
    std::vector<int> v(1);
    comm.recv<int>(0, v);  // lint:allow(p2p-unmatched) -- deliberately unanswered: abort must wake it
  });
  EXPECT_THROW(session.sync(), std::runtime_error);
  // The session recovered: the next job runs on a clean substrate
  // (abort flag cleared, mailboxes drained, barrier reset).
  int total = -1;
  session.submit([&](Comm& comm) {
    comm.barrier();
    const int x = comm.allreduce_sum(1);
    if (comm.rank() == 0) total = x;
  });
  session.sync();
  EXPECT_EQ(total, 3);
}

TEST(ClusterSession, JobsQueuedBehindAFailureAreSkipped) {
  ClusterSession session(2, 1);
  std::atomic<int> ran{0};
  session.submit([](Comm&) { throw std::logic_error("boom"); });
  session.submit([&](Comm&) { ++ran; });  // same batch: must not execute
  EXPECT_THROW(session.sync(), std::logic_error);
  EXPECT_EQ(ran.load(), 0);
  session.submit([&](Comm&) { ++ran; });  // next batch: runs again
  session.sync();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ClusterSession, SyncPrefersRootCauseOverClusterAborted) {
  ClusterSession session(4, 1);
  session.submit([](Comm& comm) {
    if (comm.rank() == 2) throw std::invalid_argument("root cause");
    comm.barrier();  // lint:allow(collective-divergence) -- divergence is the subject: peers must die of ClusterAborted
  });
  EXPECT_THROW(session.sync(), std::invalid_argument);
}

TEST(ClusterSession, NestedSubmitThrows) {
  ClusterSession session(2, 1);
  session.submit([&](Comm&) {
    // Inside a job every rank would enqueue a copy — must throw, and
    // the throw aborts the batch like any job failure.
    session.submit([](Comm&) {});
  });
  EXPECT_THROW(session.sync(), std::logic_error);
}

TEST(ClusterSession, NestedSyncThrows) {
  ClusterSession session(2, 1);
  session.submit([&](Comm&) { session.sync(); });
  EXPECT_THROW(session.sync(), std::logic_error);
}

TEST(ClusterSession, DestructorJoinsParkedRanks) {
  // Never-submitted, submitted-but-unsynced, and failed-but-unsynced
  // sessions must all join their parked ranks without deadlock.
  { ClusterSession idle(8, 1); }
  {
    ClusterSession busy(4, 1);
    busy.submit([](Comm& comm) { comm.barrier(); });
  }
  {
    ClusterSession failed(2, 1);
    failed.submit([](Comm&) { throw std::runtime_error("dropped on the floor"); });
  }
  SUCCEED();
}

TEST(ClusterSession, OversubscribedSessionReuse) {
  // More ranks than any test machine has cores, reused across jobs.
  const int p = 32;
  ClusterSession session(p, 1);
  for (int job = 0; job < 3; ++job) {
    int sum = -1;
    session.submit([&, job](Comm& comm) {
      const int x = comm.allreduce_sum(comm.rank() + job);
      if (comm.rank() == 0) sum = x;
    });
    session.sync();
    EXPECT_EQ(sum, p * (p - 1) / 2 + p * job);
  }
}

TEST(Cluster, OversubscribedRanksStress) {
  // Far more ranks than any test machine has cores: the runtime must
  // stay correct under heavy thread contention (the CI matrix runs this
  // suite explicitly for exactly that reason).
  const int p = 32;
  Cluster cluster(p, 1);
  cluster.run([p](Comm& comm) {
    comm.barrier();
    EXPECT_EQ(comm.allreduce_sum(comm.rank()), p * (p - 1) / 2);
    // Symmetric neighbor exchange around the ring.
    const int next = (comm.rank() + 1) % p;
    const int prev = (comm.rank() + p - 1) % p;
    int out = comm.rank(), in = -1;
    comm.send<int>(next, std::span<const int>(&out, 1));
    comm.recv<int>(prev, std::span<int>(&in, 1));
    EXPECT_EQ(in, prev);
    comm.barrier();
  });
}

}  // namespace
}  // namespace qc::cluster
