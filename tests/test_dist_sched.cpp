// Tests for the distributed scheduler/executor: agreement with the
// serial simulator across rank counts (including ranks so large a
// chunk is a single sweep chunk), the communication-volume win of the
// amortized global<->local exchange pass over per-gate exchanges
// (paper Eq. 6 / Fig. 4), and plan-structure sanity.
#include <gtest/gtest.h>

#include "circuit/builders.hpp"
#include "models/perf_model.hpp"
#include "sched/dist_schedule.hpp"
#include "sim/simulator.hpp"

namespace qc::sched {
namespace {

using circuit::Circuit;
using sim::CommPolicy;
using sim::DistStateVector;
using sim::StateVector;

/// Runs `c` through dist_schedule + run_dist_plan on `ranks` ranks
/// (random init, fixed seed) and compares against the serial
/// "hpc" backend; returns the max amplitude difference.
double plan_vs_serial(const Circuit& c, qubit_t n, int ranks, std::uint64_t seed) {
  StateVector serial(n);
  serial.randomize_deterministic(seed);
  sim::apply_circuit_hpc(serial.amplitudes(), c);

  const auto nl = static_cast<qubit_t>(n - bits::log2_floor(static_cast<index_t>(ranks)));
  const DistPlan plan = dist_schedule(c, nl, {});
  double diff = -1;
  cluster::Cluster cluster(ranks, 1);
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.randomize(seed);
    run_dist_plan(dsv, plan);
    const StateVector gathered = dsv.gather_all();
    if (comm.rank() == 0) diff = gathered.max_abs_diff(serial);
  });
  return diff;
}

struct Case {
  qubit_t n;
  int ranks;
};

class DistPlanRandomCircuit : public ::testing::TestWithParam<Case> {};

TEST_P(DistPlanRandomCircuit, MatchesSerialSimulator) {
  const auto [n, ranks] = GetParam();
  Rng rng(n * 1000 + ranks);
  const Circuit c = circuit::random_circuit(n, 60, rng);
  EXPECT_LT(plan_vs_serial(c, n, ranks, 4242), 1e-12);
}

TEST_P(DistPlanRandomCircuit, QftMatchesSerial) {
  const auto [n, ranks] = GetParam();
  EXPECT_LT(plan_vs_serial(circuit::qft(n), n, ranks, 1717), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Cases, DistPlanRandomCircuit,
                         ::testing::Values(Case{8, 1}, Case{8, 2}, Case{8, 4}, Case{9, 8},
                                           // nl = 3: a rank's whole chunk is one
                                           // sweep chunk for the local pipeline.
                                           Case{6, 8},
                                           // Oversubscribed: more ranks than any
                                           // test machine has cores.
                                           Case{10, 32}));

/// A global-qubit-heavy workload: a long run of non-diagonal gates on
/// the two distributed qubits, plus local work.
Circuit global_heavy_circuit(qubit_t n) {
  Circuit c(n);
  for (int rep = 0; rep < 20; ++rep) {
    c.h(n - 1);
    c.rx(n - 2, 0.3 + 0.01 * rep);
    c.h(0);
    c.cnot(n - 2, n - 1);
  }
  return c;
}

TEST(DistSchedule, PlanLocalizesGlobalHeavyRun) {
  const qubit_t n = 10;
  const qubit_t nl = 8;
  const DistPlan plan = dist_schedule(global_heavy_circuit(n), nl, {});
  // The exchange pass relocates the run: nearly all gates end up in
  // rank-local segments and only a handful of chunk permutations remain.
  EXPECT_GT(plan.exchanges(), 0u);
  EXPECT_LT(plan.exchanges() + plan.globals(), 6u);
  EXPECT_GT(plan.local_gates() + plan.globals(), 0u);
  EXPECT_FALSE(plan.to_string().empty());
}

TEST(DistSchedule, LoneGlobalGateStaysPerGate) {
  // The rank-level twin of Schedule.LoneHighOpStaysGlobalInsteadOfRemapping:
  // one non-diagonal gate on a global qubit amid a long local run avoids
  // a single chunk exchange, less than an exchange pass and its restore
  // cost, so it must stay a per-gate Gate item.
  const qubit_t n = 10;
  Rng rng(13);
  Circuit c(n);
  c.h(n - 1);
  c.compose(circuit::random_dense_circuit(3, 90, rng).widened(n));
  for (const int ranks : {2, 4}) {
    const auto nl = static_cast<qubit_t>(n - bits::log2_floor(static_cast<index_t>(ranks)));
    const DistPlan plan = dist_schedule(c, nl, {});
    EXPECT_EQ(plan.exchanges(), 0u) << plan.to_string();
    ASSERT_EQ(plan.globals(), 1u) << plan.to_string();
    EXPECT_EQ(plan.items.front().kind, DistPlanItem::Kind::Gate);
    EXPECT_EQ(plan.items.front().gate.targets, std::vector<qubit_t>{static_cast<qubit_t>(n - 1)});
    EXPECT_LT(plan_vs_serial(c, n, ranks, 31), 1e-12) << "ranks=" << ranks;
  }
}

TEST(DistSchedule, RemappedSweepsCommunicateLessThanPerGateExchange) {
  // The acceptance criterion: on a global-qubit-heavy circuit the
  // amortized exchange pass must move strictly fewer bytes than the
  // qHiPSTER-like per-gate chunk exchange.
  const qubit_t n = 10;
  const int ranks = 4;
  const auto nl = static_cast<qubit_t>(n - 2);
  const Circuit c = global_heavy_circuit(n);
  const DistPlan plan = dist_schedule(c, nl, {});
  std::uint64_t bytes_plan = 1, bytes_pergate = 0;
  double diff = -1;
  cluster::Cluster cluster(ranks, 1);
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector a(comm, n);
    a.randomize(11);
    run_dist_plan(a, plan);
    DistStateVector b(comm, n);
    b.randomize(11);
    b.run(c, CommPolicy::Exchange);
    const double d = a.max_abs_diff(b);  // collective: every rank calls
    if (comm.rank() == 0) {
      bytes_plan = a.bytes_communicated();
      bytes_pergate = b.bytes_communicated();
      diff = d;
    }
  });
  EXPECT_LT(diff, 1e-12);
  EXPECT_GT(bytes_plan, 0u);
  EXPECT_LT(bytes_plan, bytes_pergate);
}

TEST(DistSchedule, PermCarryAcrossSegmentsMatchesSerial) {
  // The resident-session contract: split a circuit into segments, plan
  // each with the carried permutation (no per-segment restore), run the
  // chained plans on one resident state, restore once at the end — the
  // result must match planning/running the whole circuit at once.
  const qubit_t n = 9;
  const int ranks = 4;
  const auto nl = static_cast<qubit_t>(n - 2);
  Rng rng(12);
  const Circuit whole = circuit::random_circuit(n, 60, rng);
  std::vector<Circuit> segments;
  for (std::size_t start = 0; start < whole.size(); start += 20) {
    Circuit seg(n);
    for (std::size_t i = start; i < std::min(whole.size(), start + 20); ++i)
      seg.append(whole.gates()[i]);
    segments.push_back(std::move(seg));
  }
  ASSERT_GE(segments.size(), 3u);

  StateVector serial(n);
  serial.randomize_deterministic(777);
  sim::apply_circuit_hpc(serial.amplitudes(), whole);

  std::vector<qubit_t> perm = identity_perm(n);
  std::vector<DistPlan> plans;
  for (const Circuit& seg : segments) plans.push_back(dist_schedule(seg, nl, {}, &perm));
  const auto rounds = restore_rounds(perm);

  double diff = -1;
  cluster::Cluster cluster(ranks, 1);
  cluster.run([&](cluster::Comm& comm) {
    DistStateVector dsv(comm, n);
    dsv.randomize(777);
    for (const DistPlan& plan : plans) run_dist_plan(dsv, plan);
    for (const auto& swaps : rounds) dsv.apply_qubit_swaps(swaps);
    const StateVector gathered = dsv.gather_all();
    if (comm.rank() == 0) diff = gathered.max_abs_diff(serial);
  });
  EXPECT_LT(diff, 1e-12);
}

TEST(DistSchedule, PermCarrySkipsPerSegmentRestores) {
  // On a global-heavy circuit the self-contained plan must end with
  // restore exchanges; the carried-perm plan defers them to the caller.
  const qubit_t n = 10;
  const qubit_t nl = 8;
  const Circuit c = global_heavy_circuit(n);
  const DistPlan self_contained = dist_schedule(c, nl, {});
  std::vector<qubit_t> perm = identity_perm(n);
  const DistPlan carried = dist_schedule(c, nl, {}, &perm);
  EXPECT_LT(carried.exchanges(), self_contained.exchanges());
  // The carried plan left the state permuted; restore_rounds knows how
  // to get back, and a straight identity needs no rounds at all.
  EXPECT_FALSE(restore_rounds(perm).empty());
  EXPECT_TRUE(restore_rounds(identity_perm(n)).empty());
}

TEST(DistSchedule, RestoreRoundsValidatesPermutation) {
  EXPECT_THROW((void)restore_rounds({0, 0, 1}), std::invalid_argument);
  EXPECT_THROW((void)restore_rounds({0, 5}), std::invalid_argument);
  // A 3-cycle resolves in a finite number of disjoint-swap rounds.
  const auto rounds = restore_rounds({1, 2, 0});
  EXPECT_FALSE(rounds.empty());
  EXPECT_LE(rounds.size(), 2u);
}

TEST(DistSchedule, SingleRankPlanIsAllLocal) {
  Rng rng(8);
  const Circuit c = circuit::random_circuit(8, 40, rng);
  const DistPlan plan = dist_schedule(c, 8, {});
  EXPECT_EQ(plan.exchanges(), 0u);
  EXPECT_EQ(plan.globals(), 0u);
  EXPECT_EQ(plan.locals(), 1u);
}

TEST(DistSchedule, RejectsBadLocalWidth) {
  Circuit c(4);
  c.h(0);
  EXPECT_THROW((void)dist_schedule(c, 0, {}), std::invalid_argument);
  EXPECT_THROW((void)dist_schedule(c, 5, {}), std::invalid_argument);
}

TEST(PerfModel, HostStagingTerm) {
  const models::MachineParams m = models::MachineParams::stampede();
  // One staging copies 16 bytes/amplitude; doubling n doubles both the
  // bytes and the time.
  EXPECT_EQ(models::staging_bytes(20), std::uint64_t{16} << 20);
  EXPECT_EQ(models::staging_bytes(21), 2 * models::staging_bytes(20));
  const double t1 = models::t_host_staging_seconds(20, m);
  EXPECT_GT(t1, 0);
  EXPECT_NEAR(models::t_host_staging_seconds(21, m), 2 * t1, 1e-15);
}

TEST(PerfModel, Eq6ExchangeTerm) {
  const models::MachineParams m = models::MachineParams::stampede();
  // 16 bytes/amplitude over the chunk: doubling the chunk doubles time.
  const double t20 = models::t_chunk_exchange_seconds(20, m);
  EXPECT_NEAR(models::t_chunk_exchange_seconds(21, m), 2 * t20, 1e-12);
  EXPECT_GT(t20, 0);
}

}  // namespace
}  // namespace qc::sched
