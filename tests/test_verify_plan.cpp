// sched::verify_plan — the debug invariant layer's static plan checker.
//
// Positive direction: every plan the real schedulers emit (blocked and
// distributed, self-contained and perm_io-chained) verifies clean.
// Negative direction: a deliberately corrupted plan — dropped or
// reordered op, sweep op outside its chunk, blown chunk budget, and in
// a dist plan overlapping exchange pairs, an un-restored exchange or
// inconsistent gate accounting — is caught with a PlanError. The same
// corruptions are reachable manually through tools/verify_plan.cpp.
#include <gtest/gtest.h>

#include <numeric>

#include "circuit/builders.hpp"
#include "common/rng.hpp"
#include "fuse/fusion.hpp"
#include "sched/verify_plan.hpp"

namespace qc {
namespace {

using circuit::Circuit;
using sched::BlockedPlan;
using sched::DistPlan;
using sched::DistPlanItem;
using sched::PlanError;
using sched::PlanItem;
using sched::verify_plan;

BlockedPlan blocked_plan(const Circuit& c, sched::ScheduleOptions opts = {}) {
  return sched::schedule(fuse::fuse_circuit(c, {}), opts);
}

/// A workload whose blocked plan holds both sweeps and Global items: a
/// small chunk leaves half the qubits above it.
BlockedPlan mixed_plan() {
  Rng rng(11);
  sched::ScheduleOptions opts;
  opts.chunk_width = 6;
  const BlockedPlan plan = blocked_plan(circuit::random_circuit(12, 200, rng), opts);
  EXPECT_GT(plan.sweeps(), 0u);
  EXPECT_GT(plan.globals(), 0u);
  return plan;
}

TEST(VerifyBlockedPlan, SchedulerOutputPassesQft) {
  verify_plan(blocked_plan(circuit::qft(14)));
}

TEST(VerifyBlockedPlan, SchedulerOutputPassesSweepsAndGlobals) {
  verify_plan(mixed_plan());
}

TEST(VerifyBlockedPlan, RespectsCacheBudget) {
  sched::ScheduleOptions opts;  // auto width against the default 1 MiB
  const BlockedPlan plan = blocked_plan(circuit::qft(16), opts);
  verify_plan(plan, opts.cache_bytes);
  EXPECT_THROW(verify_plan(plan, 16), PlanError);  // 16-byte "cache"
}

TEST(VerifyBlockedPlan, CatchesDroppedOp) {
  BlockedPlan plan = mixed_plan();
  for (auto& item : plan.items) {
    if (item.kind == PlanItem::Kind::Sweep && !item.ops.empty()) {
      item.ops.pop_back();
      break;
    }
  }
  EXPECT_THROW(verify_plan(plan), PlanError);
}

TEST(VerifyBlockedPlan, CatchesReorderedOps) {
  BlockedPlan plan = mixed_plan();
  for (auto& item : plan.items) {
    if (item.kind == PlanItem::Kind::Sweep && item.ops.size() >= 2) {
      std::swap(item.ops.front(), item.ops.back());
      break;
    }
  }
  EXPECT_THROW(verify_plan(plan), PlanError);
}

TEST(VerifyBlockedPlan, CatchesChunkWiderThanRegister) {
  BlockedPlan plan = blocked_plan(circuit::qft(10));
  plan.chunk_width = static_cast<qubit_t>(plan.n + 1);
  EXPECT_THROW(verify_plan(plan), PlanError);
}

TEST(VerifyBlockedPlan, CatchesSweepOpOutsideChunk) {
  BlockedPlan plan = mixed_plan();
  for (auto& item : plan.items) {
    if (item.kind == PlanItem::Kind::Sweep && !item.ops.empty()) {
      // Point a sweep op at a qubit above the chunk: no longer local.
      auto& op = item.ops.front();
      if (op.kind == sched::ChunkOp::Kind::Gate) {
        op.gate.targets[0] = static_cast<qubit_t>(plan.chunk_width);
      } else {
        op.qubits.back() = static_cast<qubit_t>(plan.chunk_width);
      }
      break;
    }
  }
  EXPECT_THROW(verify_plan(plan), PlanError);
}

TEST(VerifyDistPlan, SchedulerOutputPassesQft) {
  verify_plan(sched::dist_schedule(circuit::qft(12), 9, {}));
}

TEST(VerifyDistPlan, SchedulerOutputPassesRandom) {
  Rng rng(23);
  verify_plan(sched::dist_schedule(circuit::random_circuit(11, 150, rng), 8, {}));
}

TEST(VerifyDistPlan, PermIoChainVerifiesAndReplaysPerm) {
  // Two chained segments: segment 2 starts from segment 1's carried
  // permutation; the verifier's replay must agree with perm_io at every
  // seam, and the restore rounds must bring the final state home.
  Rng rng(5);
  const Circuit c1 = circuit::random_circuit(10, 80, rng);
  const Circuit c2 = circuit::random_circuit(10, 80, rng);
  std::vector<qubit_t> perm(10);
  std::iota(perm.begin(), perm.end(), qubit_t{0});

  const DistPlan p1 = sched::dist_schedule(c1, 7, {}, &perm);
  std::vector<qubit_t> replayed;
  {
    std::vector<qubit_t> identity(10);
    std::iota(identity.begin(), identity.end(), qubit_t{0});
    verify_plan(p1, identity, &replayed);
  }
  EXPECT_EQ(replayed, perm);

  const std::vector<qubit_t> seam = perm;
  const DistPlan p2 = sched::dist_schedule(c2, 7, {}, &perm);
  verify_plan(p2, seam, &replayed);
  EXPECT_EQ(replayed, perm);
}

TEST(VerifyDistPlan, CatchesGateCountMismatch) {
  DistPlan plan = sched::dist_schedule(circuit::qft(10), 7, {});
  plan.source_gates += 1;
  EXPECT_THROW(verify_plan(plan), PlanError);
}

TEST(VerifyDistPlan, CatchesUnrestoredExchange) {
  DistPlan plan = sched::dist_schedule(circuit::qft(10), 7, {});
  DistPlanItem item;
  item.kind = DistPlanItem::Kind::Exchange;
  item.swaps = {{qubit_t{0}, static_cast<qubit_t>(plan.n - 1)}};
  plan.items.push_back(std::move(item));
  EXPECT_THROW(verify_plan(plan), PlanError);
}

TEST(VerifyDistPlan, CatchesOverlappingExchangePairs) {
  DistPlan plan = sched::dist_schedule(circuit::qft(10), 7, {});
  DistPlanItem item;
  item.kind = DistPlanItem::Kind::Exchange;
  item.swaps = {{qubit_t{0}, qubit_t{9}}, {qubit_t{0}, qubit_t{8}}};
  plan.items.push_back(std::move(item));
  EXPECT_THROW(verify_plan(plan), PlanError);
}

TEST(VerifyDistPlan, CatchesLocalSegmentOnWrongWidth) {
  DistPlan plan = sched::dist_schedule(circuit::qft(10), 7, {});
  for (auto& item : plan.items) {
    if (item.kind == DistPlanItem::Kind::Local) {
      item.local.n = static_cast<qubit_t>(item.local.n + 1);
      break;
    }
  }
  EXPECT_THROW(verify_plan(plan), PlanError);
}

TEST(VerifyDistPlan, CatchesMoreCrossingPairsThanExecutorSupports) {
  // 17 crossing pairs exceed DistStateVector's 16-pair exchange limit.
  DistPlan plan;
  plan.n = 40;
  plan.local_qubits = 20;
  plan.source_gates = 0;
  DistPlanItem fwd;
  fwd.kind = DistPlanItem::Kind::Exchange;
  for (qubit_t j = 0; j < 17; ++j)
    fwd.swaps.push_back({j, static_cast<qubit_t>(20 + j)});
  DistPlanItem back = fwd;
  plan.items.push_back(fwd);
  plan.items.push_back(back);  // restores order, so only the cap trips
  EXPECT_THROW(verify_plan(plan), PlanError);
}

TEST(CheckMacro, ThrowsCheckErrorWithContext) {
  try {
    detail::check_failed("x > 0", "file.cpp", 42, "context");
    FAIL() << "check_failed returned";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("x > 0"), std::string::npos);
    EXPECT_NE(what.find("file.cpp:42"), std::string::npos);
    EXPECT_NE(what.find("context"), std::string::npos);
  }
}

#if QC_ENABLE_CHECKS
TEST(CheckMacro, ArmedInThisBuild) {
  EXPECT_THROW(QC_CHECK(1 == 2), CheckError);
  EXPECT_NO_THROW(QC_CHECK(1 == 1));
  EXPECT_THROW(QC_CHECK_MSG(false, "ctx"), CheckError);
}
#else
TEST(CheckMacro, CompiledOutInThisBuild) {
  bool evaluated = false;
  QC_CHECK(([&] { evaluated = true; return false; }()));
  EXPECT_FALSE(evaluated);  // condition must not even be evaluated
}
#endif

}  // namespace
}  // namespace qc
