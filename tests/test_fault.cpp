// Failure-domain tests: the deterministic fault injector (spec grammar,
// one-shot semantics, seeded schedules), deadline-aware collectives
// (recv/barrier timeouts, the sync watchdog), checkpoint/restart inside
// the dist backend (retry-from-checkpoint bit-identity against "hpc"),
// and the engine's dist->cached degradation ladder.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/fault.hpp"
#include "engine/engine.hpp"
#include "models/perf_model.hpp"
#include "obs/report.hpp"

namespace qc {
namespace {

using cluster::ClusterAborted;
using cluster::ClusterSession;
using cluster::Comm;
using cluster::FaultAction;
using cluster::FaultInjector;
using cluster::InjectedFault;
using cluster::ScopedFaultInjector;
using cluster::TimeoutError;

// --- spec grammar ------------------------------------------------------

TEST(FaultSpec, ParsesEveryField) {
  const FaultInjector inj =
      FaultInjector::parse("abort@cluster.barrier#2;drop@cluster.send#1/0;"
                           "delay@cluster.job#0/1:250;allocfail@dist.alloc");
  ASSERT_EQ(inj.rules().size(), 4u);
  EXPECT_EQ(inj.rules()[0].action, FaultAction::Abort);
  EXPECT_EQ(inj.rules()[0].site, "cluster.barrier");
  EXPECT_EQ(inj.rules()[0].hit, 2u);
  EXPECT_EQ(inj.rules()[0].rank, -1);
  EXPECT_EQ(inj.rules()[1].action, FaultAction::Drop);
  EXPECT_EQ(inj.rules()[1].rank, 0);
  EXPECT_EQ(inj.rules()[2].action, FaultAction::Delay);
  EXPECT_NEAR(inj.rules()[2].delay_s, 0.25, 1e-12);
  EXPECT_EQ(inj.rules()[3].action, FaultAction::AllocFail);
  EXPECT_EQ(inj.rules()[3].hit, 0u);
}

TEST(FaultSpec, RoundTripsThroughToString) {
  const std::string spec =
      "abort@cluster.barrier#2;drop@cluster.send#1/0;delay@cluster.job#0/1:250";
  EXPECT_EQ(FaultInjector::parse(FaultInjector::parse(spec).to_string()).to_string(),
            FaultInjector::parse(spec).to_string());
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultInjector::parse(""), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("abort"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("explode@cluster.job"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("abort@"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("abort@cluster.job#x"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("seeded:count"), std::invalid_argument);
}

TEST(FaultSpec, SeededSchedulesAreDeterministic) {
  EXPECT_EQ(FaultInjector::seeded(7, 5).to_string(), FaultInjector::seeded(7, 5).to_string());
  EXPECT_NE(FaultInjector::seeded(7, 5).to_string(), FaultInjector::seeded(8, 5).to_string());
  // The seeded: spec form resolves to the same schedule.
  EXPECT_EQ(FaultInjector::parse("seeded:seed=7,count=5").to_string(),
            FaultInjector::seeded(7, 5, 4, 0.2).to_string());
}

// --- visit semantics ---------------------------------------------------

TEST(FaultInjectorVisit, FiresAtTheHitThVisitOfTheMatchingRank) {
  FaultInjector inj = FaultInjector::parse("abort@cluster.job#2/1");
  double d = 0;
  EXPECT_FALSE(inj.visit("cluster.job", 0, &d).has_value());  // rank 0, visit 0
  EXPECT_FALSE(inj.visit("cluster.job", 1, &d).has_value());  // rank 1, visit 0
  EXPECT_FALSE(inj.visit("cluster.job", 1, &d).has_value());  // rank 1, visit 1
  EXPECT_FALSE(inj.visit("cluster.barrier", 1, &d).has_value());
  const auto fired = inj.visit("cluster.job", 1, &d);  // rank 1, visit 2
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(*fired, FaultAction::Abort);
  EXPECT_EQ(inj.fired(), 1u);
}

TEST(FaultInjectorVisit, DisruptiveRulesAreOneShot) {
  // rank -1 matches any rank, but the rule is spent by the first rank
  // that reaches the hit — the second rank's own hit-th visit passes.
  FaultInjector inj = FaultInjector::parse("abort@cluster.job#0");
  double d = 0;
  EXPECT_TRUE(inj.visit("cluster.job", 0, &d).has_value());
  EXPECT_FALSE(inj.visit("cluster.job", 1, &d).has_value());
  inj.reset();
  EXPECT_TRUE(inj.visit("cluster.job", 1, &d).has_value());
}

TEST(FaultInjectorVisit, DelayRulesFireOncePerRank) {
  FaultInjector inj = FaultInjector::parse("delay@cluster.job#0:50");
  double d = 0;
  EXPECT_TRUE(inj.visit("cluster.job", 0, &d).has_value());
  EXPECT_NEAR(d, 0.05, 1e-12);
  EXPECT_TRUE(inj.visit("cluster.job", 1, &d).has_value());
  EXPECT_FALSE(inj.visit("cluster.job", 0, &d).has_value());  // visit 1: no rule
  EXPECT_EQ(inj.fired(), 2u);
}

TEST(FaultPoint, NoOpWithoutAnInstalledInjector) {
  ASSERT_EQ(cluster::current_injector(), nullptr);
  EXPECT_FALSE(cluster::fault_point("cluster.job", 0));
}

TEST(FaultPoint, ScopedInstallRestoresPrevious) {
  FaultInjector outer = FaultInjector::parse("abort@a#0");
  FaultInjector inner = FaultInjector::parse("abort@b#0");
  {
    const ScopedFaultInjector s1(&outer);
    EXPECT_EQ(cluster::current_injector(), &outer);
    {
      const ScopedFaultInjector s2(&inner);
      EXPECT_EQ(cluster::current_injector(), &inner);
    }
    EXPECT_EQ(cluster::current_injector(), &outer);
  }
  EXPECT_EQ(cluster::current_injector(), nullptr);
}

TEST(FaultTaxonomy, RetryabilityFlags) {
  EXPECT_TRUE(InjectedFault("x").retryable());
  EXPECT_TRUE(TimeoutError("x").retryable());
  EXPECT_TRUE(cluster::AllocFailure("x").retryable());
  EXPECT_FALSE(ClusterAborted().retryable());
  EXPECT_TRUE(cluster::retryable_fault(std::make_exception_ptr(TimeoutError("x"))));
  EXPECT_FALSE(cluster::retryable_fault(std::make_exception_ptr(std::runtime_error("x"))));
  EXPECT_FALSE(cluster::retryable_fault(nullptr));
}

TEST(FaultSites, KnownSiteListIsStable) {
  const auto& sites = cluster::known_fault_sites();
  EXPECT_GE(sites.size(), 10u);
  for (const char* s : {"cluster.send", "cluster.barrier", "cluster.job", "dist.alloc",
                        "dist.exchange", "dist.scatter", "dist.gather"})
    EXPECT_NE(std::find(sites.begin(), sites.end(), s), sites.end()) << s;
}

// --- injected faults against a live session ----------------------------

TEST(FaultSession, InjectedBarrierAbortSurfacesAndSessionRecovers) {
  FaultInjector inj = FaultInjector::parse("abort@cluster.barrier#0");
  const ScopedFaultInjector scoped(&inj);
  ClusterSession session(4, 1);
  session.submit([](Comm& comm) { comm.barrier(); });
  EXPECT_THROW(session.sync(), InjectedFault);
  EXPECT_EQ(inj.fired(), 1u);
  // Recovered: the next job runs a full collective cleanly.
  std::atomic<int> sum{0};
  session.submit([&sum](Comm& comm) { sum += comm.allreduce_sum(comm.rank()); });
  session.sync();
  EXPECT_EQ(sum.load(), 4 * 6);  // each rank adds 0+1+2+3
}

TEST(FaultSession, RecvDeadlineRaisesTimeoutErrorAndSessionRecovers) {
  ClusterSession session(2, 1);
  session.set_timeout(0.05);
  EXPECT_NEAR(session.timeout(), 0.05, 1e-12);
  session.submit([](Comm& comm) {
    if (comm.rank() == 0) return;  // never sends
    int v = 0;
    comm.recv<int>(0, std::span<int>(&v, 1));  // lint:allow(p2p-unmatched) -- starved on purpose: deadline must fire
  });
  EXPECT_THROW(session.sync(), TimeoutError);
  session.set_timeout(0);
  std::atomic<int> sum{0};
  session.submit([&sum](Comm& comm) { sum += comm.allreduce_sum(1); });
  session.sync();
  EXPECT_EQ(sum.load(), 4);
}

TEST(FaultSession, DroppedSendTimesOutTheReceiver) {
  FaultInjector inj = FaultInjector::parse("drop@cluster.send#0/0");
  const ScopedFaultInjector scoped(&inj);
  ClusterSession session(2, 1);
  session.set_timeout(0.05);
  session.submit([](Comm& comm) {
    int v = comm.rank();
    if (comm.rank() == 0) {
      comm.send<int>(1, std::span<const int>(&v, 1));  // dropped
    } else {
      comm.recv<int>(0, std::span<int>(&v, 1));  // waits forever -> timeout
    }
  });
  EXPECT_THROW(session.sync(), TimeoutError);
  EXPECT_EQ(inj.fired(), 1u);
}

TEST(FaultSession, DelayedJobInsideDeadlineStillCompletes) {
  FaultInjector inj = FaultInjector::parse("delay@cluster.job#0/1:50");
  const ScopedFaultInjector scoped(&inj);
  ClusterSession session(2, 1);
  session.set_timeout(5.0);
  std::atomic<int> ran{0};
  session.submit([&ran](Comm& comm) {
    comm.barrier();
    ++ran;
  });
  session.sync();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(inj.fired(), 1u);
}

// --- engine-level recovery and degradation -----------------------------

engine::Program failure_program(qubit_t n) {
  engine::Program p(n);
  for (qubit_t q = 0; q < n; ++q) {
    p.h(q);
    p.rz(q, 0.17 * static_cast<double>(q + 1));
  }
  p.cnot(0, static_cast<qubit_t>(n - 1));
  p.qft();
  // One gate on each rank qubit (at 4 ranks): too few to pay for a
  // remap, so each is a per-gate chunk exchange (dist.exchange).
  p.h(static_cast<qubit_t>(n - 1)).h(static_cast<qubit_t>(n - 2));
  p.measure({0, 2});
  p.inverse_qft();
  p.expectation_z(index_t{0b11});
  p.measure({static_cast<qubit_t>(n - 2), 2});
  return p;
}

/// Options for a traced 4-rank "dist" run of the failure program under
/// `fault_spec`. The timeout arms auto checkpoints (interval 0).
engine::RunOptions faulty_dist_opts(const std::string& fault_spec, bool collapse,
                                    int checkpoint_interval) {
  engine::RunOptions opts;
  opts.backend = "dist";
  opts.seed = 11;
  opts.collapse_measurements = collapse;
  opts.dist_ranks = 4;
  opts.dist_timeout_s = 2.0;
  opts.dist_checkpoint_interval = checkpoint_interval;
  opts.fault_spec = fault_spec;
  opts.trace = true;
  return opts;
}

/// Runs the failure program on "dist" with the given fault spec and
/// expects bit-identical agreement with the fault-free "hpc" run. A run
/// not expected to degrade has the ladder off, so an unrecovered fault
/// surfaces as its typed error.
void expect_recovers_identically(const std::string& fault_spec, bool expect_degraded,
                                 bool collapse = true, int checkpoint_interval = 0) {
  const engine::Program p = failure_program(10);
  engine::RunOptions ref_opts;
  ref_opts.backend = "hpc";
  ref_opts.seed = 11;
  ref_opts.collapse_measurements = collapse;
  const engine::Engine eng;
  const engine::Result ref = eng.run(p, ref_opts);

  engine::RunOptions opts = faulty_dist_opts(fault_spec, collapse, checkpoint_interval);
  opts.degrade = expect_degraded;
  const engine::Result r = eng.run(p, opts);
  ASSERT_NE(r.trace_data, nullptr);
  EXPECT_GE(r.trace_data->counters.count("fault.injected"), 1u) << fault_spec << ": never fired";
  EXPECT_EQ(r.degraded, expect_degraded) << fault_spec;
  EXPECT_LT(r.state.max_abs_diff(ref.state), 1e-12) << fault_spec;
  EXPECT_EQ(r.measurements, ref.measurements) << fault_spec;
  ASSERT_EQ(r.expectations.size(), ref.expectations.size());
  for (std::size_t i = 0; i < r.expectations.size(); ++i)
    EXPECT_NEAR(r.expectations[i], ref.expectations[i], 1e-12) << fault_spec;
}

TEST(FaultRecovery, SegmentAbortRetriesFromCheckpointBitIdentically) {
  expect_recovers_identically("abort@cluster.job#1", /*expect_degraded=*/false);
}

TEST(FaultRecovery, ExchangeAbortRetriesBitIdentically) {
  expect_recovers_identically("abort@dist.exchange#0", /*expect_degraded=*/false);
}

TEST(FaultRecovery, AllocFailureRetriesScatter) {
  expect_recovers_identically("allocfail@dist.alloc#0/1", /*expect_degraded=*/false);
}

TEST(FaultRecovery, GatherAbortReplaysAndFlushes) {
  expect_recovers_identically("abort@dist.gather#0", /*expect_degraded=*/false);
}

TEST(FaultRecovery, TransposeAbortInsideTheFftRetriesBitIdentically) {
  // The QFT's second transpose fails at its second fence: the FFT's job
  // restores the checkpoint taken before the op and runs restore + FFT
  // again. Every motion fences twice, so the barrier visits run: 0-1 the
  // first segment's swap round, 2-3 the QFT's restore round, 4-5, 6-7
  // and 8-9 its three transposes.
  expect_recovers_identically("abort@cluster.barrier#7", /*expect_degraded=*/false);
}

TEST(FaultRecovery, FaultAtEveryClusterJobRecoversBitIdentically) {
  // abort@cluster.job#k fails the k-th job of the run. With auto
  // checkpoints the failure program runs sixteen: the initialization (0,
  // begin()'s job under the dist.scatter span), two gate segments (1,
  // 5), the QFT's forced checkpoint (2), its restore + FFT (3) and the
  // checkpoint after it (4), the pre- and post-collapse checkpoints (6,
  // 8, 13), two collapsing measures (7, 12), the inverse QFT (9) and
  // the checkpoint after it (10), the expectation (11) and the gather's
  // restore rounds (14) and copy-out (15).
  for (int k = 0; k < 16; ++k)
    expect_recovers_identically("abort@cluster.job#" + std::to_string(k),
                                /*expect_degraded=*/false);
  // The segment's retry restores the state, and the restore faults too.
  expect_recovers_identically("abort@cluster.job#1;abort@cluster.job#2",
                              /*expect_degraded=*/false);
  // Read-only measures: the initialization (0), segments (1, 5), the
  // QFT's checkpoint (2), FFT (3) and checkpoint (4), measures (6, 11),
  // the inverse QFT's checkpoint (7), FFT (8) and checkpoint (9), the
  // expectation (10), the gather (12, 13).
  for (int k = 0; k < 14; ++k)
    expect_recovers_identically("abort@cluster.job#" + std::to_string(k),
                                /*expect_degraded=*/false, /*collapse=*/false);
}

TEST(FaultRecovery, WithoutCheckpointsOnlyInPlaceJobsRecover) {
  // Checkpoints off: the initialization (0), segments (1, 3), the QFT
  // (2), measures (4, 7), the inverse QFT (5), the expectation (6), the
  // gather's restore rounds (8) and copy-out (9). Jobs that leave the
  // chunks intact (or rebuild them from scratch) still retry; a job
  // that mutates them has no state to return to and throws.
  const engine::Program p = failure_program(10);
  for (const bool collapse : {true, false})
    for (int k = 0; k < 10; ++k) {
      const std::string spec = "abort@cluster.job#" + std::to_string(k);
      const bool in_place = k == 0 || k == 6 || k == 9 || (!collapse && (k == 4 || k == 7));
      if (in_place) {
        expect_recovers_identically(spec, /*expect_degraded=*/false, collapse,
                                    /*checkpoint_interval=*/-1);
      } else {
        engine::RunOptions opts = faulty_dist_opts(spec, collapse, -1);
        opts.degrade = false;
        EXPECT_THROW(engine::Engine{}.run(p, opts), cluster::ClusterError)
            << spec << " collapse=" << collapse;
      }
    }
}

TEST(FaultRecovery, GatherFaultBeforeTheFirstCheckpointReinitializesAndReplays) {
  // A gates-only run takes no checkpoint, so a fault in the gather's
  // restore rounds (job 2, after the initialization and the segment)
  // re-initializes |initial_basis> and replays the segment. The
  // copy-out is a job of its own (3) that retries in place. Rank-pinned
  // rules let the other ranks finish the faulted job. A non-zero basis
  // catches a restore that re-initializes |0> instead.
  const qubit_t n = 10;
  engine::Program p(n);
  for (qubit_t q = 0; q < n; ++q) {
    p.h(q);
    p.rz(q, 0.1 * static_cast<double>(q + 1));
  }
  const engine::Engine eng;
  for (const index_t basis : {index_t{0}, index_t{0b1000110101}}) {
    engine::RunOptions ref_opts;
    ref_opts.backend = "hpc";
    ref_opts.initial_basis = basis;
    const engine::Result ref = eng.run(p, ref_opts);
    for (const char* spec : {"abort@cluster.job#2/0", "abort@cluster.job#2/3",
                             "abort@dist.gather#0/1", "abort@cluster.job#3/2"}) {
      engine::RunOptions opts = faulty_dist_opts(spec, /*collapse=*/true, 0);
      opts.degrade = false;
      opts.initial_basis = basis;
      const engine::Result r = eng.run(p, opts);
      ASSERT_NE(r.trace_data, nullptr);
      EXPECT_EQ(r.trace_data->counters.count("checkpoint.count"), 0u) << spec;
      EXPECT_EQ(r.trace_data->counters.at("fault.retries"), 1.0) << spec;
      EXPECT_LT(r.state.max_abs_diff(ref.state), 1e-12) << spec << " basis " << basis;
    }
  }
}

TEST(FaultRecovery, CascadeExhaustsRetriesAndDegradesBitIdentically) {
  expect_recovers_identically(
      "abort@cluster.job#1;abort@cluster.job#2;abort@cluster.job#3;abort@cluster.job#4",
      /*expect_degraded=*/true);
}

TEST(FaultRecovery, DegradedResultRecordsTheLadder) {
  const engine::Program p = failure_program(8);
  engine::RunOptions opts;
  opts.backend = "dist";
  opts.dist_ranks = 4;
  opts.seed = 5;
  opts.fault_spec =
      "abort@cluster.job#1;abort@cluster.job#2;abort@cluster.job#3;abort@cluster.job#4";
  const engine::Result r = engine::Engine{}.run(p, opts);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.backend, "cached");
  EXPECT_EQ(r.degraded_from, "dist");
  EXPECT_FALSE(r.degrade_reason.empty());
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.front().op, "[degrade]");
}

TEST(FaultRecovery, DegradeOffPropagatesTheTypedError) {
  const engine::Program p = failure_program(8);
  engine::RunOptions opts;
  opts.backend = "dist";
  opts.dist_ranks = 4;
  opts.fault_spec =
      "abort@cluster.job#1;abort@cluster.job#2;abort@cluster.job#3;abort@cluster.job#4";
  opts.degrade = false;
  EXPECT_THROW(engine::Engine{}.run(p, opts), cluster::ClusterError);
}

TEST(FaultRecovery, CheckCorruptionDoesNotDegrade) {
  // Only the cluster taxonomy rides the ladder: a bad initial_basis
  // (std::invalid_argument) propagates even with degrade on.
  const engine::Program p = failure_program(8);
  engine::RunOptions opts;
  opts.backend = "dist";
  opts.initial_basis = dim(10);  // outside the 8-qubit register
  EXPECT_THROW(engine::Engine{}.run(p, opts), std::invalid_argument);
}

TEST(FaultRecovery, FaultCountersAppearInTheTrace) {
  const engine::Program p = failure_program(8);
  engine::RunOptions opts;
  opts.backend = "dist";
  opts.dist_ranks = 4;
  opts.seed = 5;
  opts.dist_checkpoint_interval = 1;
  opts.fault_spec = "abort@dist.exchange#1";
  opts.trace = true;
  const engine::Result r = engine::Engine{}.run(p, opts);
  ASSERT_NE(r.trace_data, nullptr);
  const auto& c = r.trace_data->counters;
  EXPECT_GE(c.at("fault.injected"), 1.0);
  EXPECT_GE(c.at("fault.retries"), 1.0);
  EXPECT_GE(c.at("checkpoint.count"), 1.0);
  std::size_t ckpt_spans = 0, restore_spans = 0;
  for (const auto& s : r.trace_data->spans) {
    if (s.name == "dist.checkpoint") ++ckpt_spans;
    if (s.name == "dist.restore") ++restore_spans;
  }
  EXPECT_EQ(static_cast<double>(ckpt_spans), c.at("checkpoint.count"));
  EXPECT_EQ(static_cast<double>(restore_spans), c.at("checkpoint.restores"));
  // The bytes an aborted attempt moved before failing count once, on
  // both sides: in Result.net_bytes and in the model report's rows.
  std::uint64_t row_bytes = 0;
  for (const obs::ModelRow& row : obs::model_report(*r.trace_data)) row_bytes += row.bytes;
  EXPECT_EQ(row_bytes, r.net_bytes);
}

TEST(FaultRecovery, ForcedCheckpointIntervalMatchesFaultFreeRun) {
  // Checkpointing must be behavior-neutral: interval 1 (checkpoint
  // every segment) yields the same results as checkpoints off.
  const engine::Program p = failure_program(10);
  engine::RunOptions off;
  off.backend = "dist";
  off.dist_ranks = 4;
  off.seed = 23;
  off.dist_checkpoint_interval = -1;
  engine::RunOptions on = off;
  on.dist_checkpoint_interval = 1;
  const engine::Engine eng;
  const engine::Result a = eng.run(p, off);
  const engine::Result b = eng.run(p, on);
  EXPECT_LT(a.state.max_abs_diff(b.state), 1e-15);
  EXPECT_EQ(a.measurements, b.measurements);
}

TEST(CheckpointPolicy, DuePricesReplayAgainstCheckpointCost) {
  const models::MachineParams m;
  EXPECT_GT(models::t_checkpoint_seconds(20, m), 0.0);
  EXPECT_FALSE(models::checkpoint_due(0.0, 20, m));
  // A replay far above the checkpoint cost is always due.
  EXPECT_TRUE(models::checkpoint_due(1e9 * models::t_checkpoint_seconds(20, m), 20, m));
  // The overhead factor gates the boundary.
  const double t = models::t_checkpoint_seconds(20, m);
  EXPECT_FALSE(models::checkpoint_due(3.9 * t, 20, m, 4.0));
  EXPECT_TRUE(models::checkpoint_due(4.1 * t, 20, m, 4.0));
}

}  // namespace
}  // namespace qc
