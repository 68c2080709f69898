// Tests for the obs tracing subsystem: disabled-path overhead, span
// nesting and cross-thread parenting, counters, exporters, and the
// engine-level trace accounting contract (per-op byte deltas sum to the
// Result totals on every backend; read-only dist ops attribute zero).
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "common/timer.hpp"
#include "engine/engine.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace qc::obs {
namespace {

TEST(Tracer, DisabledByDefault) {
  EXPECT_EQ(Tracer::current(), nullptr);
  EXPECT_FALSE(enabled());
  // No tracer installed: spans, instants and counters are no-ops.
  {
    Span s("noop");
    s.arg("x", 1);
    instant("marker", {{"a", 2}});
    counter_add("c", 3);
  }
  Tracer t;
  const TraceData data = t.collect();
  EXPECT_TRUE(data.spans.empty());
  EXPECT_TRUE(data.counters.empty());
}

TEST(Tracer, DisabledSpanOverheadIsSmall) {
  // The cost contract: a disabled span is one relaxed atomic load and a
  // branch. The bound is deliberately loose (shared CI machines), but
  // tight enough to catch an accidental allocation or lock on the
  // disabled path.
  ASSERT_EQ(Tracer::current(), nullptr);
  constexpr int kIters = 100000;
  WallTimer timer;
  for (int i = 0; i < kIters; ++i) {
    Span s("overhead-probe");
  }
  const double per_span = timer.seconds() / kIters;
  EXPECT_LT(per_span, 2e-7) << "disabled Span costs " << per_span * 1e9 << " ns";
}

TEST(Tracer, WallTimerOverheadIsSmall) {
  // The park/trace clocks lean on WallTimer being cheap enough to run
  // unconditionally.
  constexpr int kIters = 100000;
  WallTimer outer;
  double sink = 0;
  for (int i = 0; i < kIters; ++i) {
    WallTimer t;
    sink += t.seconds();
  }
  const double per_timer = outer.seconds() / kIters;
  EXPECT_GE(sink, 0.0);
  EXPECT_LT(per_timer, 2e-6) << "WallTimer costs " << per_timer * 1e9 << " ns";
}

TEST(Tracer, SpansNestOnOneThread) {
  Tracer tracer;
  const ScopedTracer scoped(&tracer);
  span_id outer_id = 0;
  {
    Span outer("outer");
    outer_id = outer.id();
    EXPECT_NE(outer_id, 0u);
    EXPECT_EQ(current_span(), outer_id);
    {
      Span inner("inner");
      inner.arg("bytes", 64);
      EXPECT_EQ(current_span(), inner.id());
    }
    EXPECT_EQ(current_span(), outer_id);
  }
  EXPECT_EQ(current_span(), 0u);

  const TraceData data = tracer.collect();
  ASSERT_EQ(data.spans.size(), 2u);
  // Sorted by start time: outer first.
  EXPECT_EQ(data.spans[0].name, "outer");
  EXPECT_EQ(data.spans[0].parent, 0u);
  EXPECT_EQ(data.spans[1].name, "inner");
  EXPECT_EQ(data.spans[1].parent, outer_id);
  EXPECT_EQ(data.spans[1].arg("bytes", -1), 64);
  EXPECT_TRUE(data.spans[1].has_arg("bytes"));
  EXPECT_FALSE(data.spans[1].has_arg("missing"));
  EXPECT_EQ(data.sum_arg("bytes"), 64);

  const auto roots = data.roots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(data.spans[roots[0]].name, "outer");
  const auto children = data.children_of(outer_id);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(data.spans[children[0]].name, "inner");
}

TEST(Tracer, ChildDurationsSumWithinParent) {
  Tracer tracer;
  const ScopedTracer scoped(&tracer);
  {
    Span parent("parent");
    for (int i = 0; i < 5; ++i) {
      Span child("child");
      double spin = 0;
      for (int k = 0; k < 1000; ++k) spin += k;
      child.arg("spin", spin);  // keeps the loop observable
    }
  }
  const TraceData data = tracer.collect();
  ASSERT_EQ(data.spans.size(), 6u);
  double parent_dur = 0, child_sum = 0;
  for (const SpanEvent& s : data.spans)
    (s.name == "parent" ? parent_dur : child_sum) += s.dur_s;
  EXPECT_LE(child_sum, parent_dur + 1e-9);
  for (const SpanEvent& s : data.spans) {
    EXPECT_GE(s.dur_s, 0.0);
    EXPECT_GE(s.start_s, 0.0);
  }
}

TEST(Tracer, CrossThreadParentingAndLanes) {
  Tracer tracer;
  const ScopedTracer scoped(&tracer);
  span_id parent_id = 0;
  {
    Span submit_side("submit");
    parent_id = current_span();
    std::thread worker([&] {
      set_thread_lane(3);
      Span job("job", parent_id);  // explicit cross-thread parent
      Span nested("nested");       // implicit: nests under job
    });
    worker.join();
  }
  const TraceData data = tracer.collect();
  ASSERT_EQ(data.spans.size(), 3u);
  int lane3 = 0;
  for (const SpanEvent& s : data.spans) {
    if (s.name == "job") {
      EXPECT_EQ(s.parent, parent_id);
      EXPECT_EQ(s.lane, 3);
    }
    if (s.name == "nested") {
      EXPECT_EQ(s.lane, 3);
    }
    if (s.name == "submit") {
      EXPECT_EQ(s.lane, 0);
    }
    lane3 += s.lane == 3;
  }
  EXPECT_EQ(lane3, 2);
  // The nested span's parent is the job span, two threads deep.
  const auto jobs = data.children_of(parent_id);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(data.children_of(data.spans[jobs[0]].id).size(), 1u);
}

TEST(Tracer, CountersMergeAcrossThreads) {
  Tracer tracer;
  const ScopedTracer scoped(&tracer);
  counter_add("shared", 1);
  std::thread a([] { counter_add("shared", 2); });
  std::thread b([] {
    counter_add("shared", 3);
    counter_add("own", 5);
  });
  a.join();
  b.join();
  const TraceData data = tracer.collect();
  EXPECT_EQ(data.counters.at("shared"), 6);
  EXPECT_EQ(data.counters.at("own"), 5);
}

TEST(Tracer, EmitIntervalClampsToEpoch) {
  Tracer tracer;
  const ScopedTracer scoped(&tracer);
  // Started "an hour before" the tracer existed: clamped to epoch 0.
  emit_interval("park", 3600.0, 0.0, {{"k", 1}});
  const TraceData data = tracer.collect();
  ASSERT_EQ(data.spans.size(), 1u);
  EXPECT_EQ(data.spans[0].start_s, 0.0);
  EXPECT_GE(data.spans[0].dur_s, 0.0);
  EXPECT_EQ(data.spans[0].arg("k", 0), 1);
}

TEST(Tracer, ScopedTracerRestoresPrevious) {
  Tracer outer;
  const ScopedTracer a(&outer);
  {
    Tracer inner;
    const ScopedTracer b(&inner);
    EXPECT_EQ(Tracer::current(), &inner);
    Span s("inner-only");
  }
  EXPECT_EQ(Tracer::current(), &outer);
  Span s("outer-only");
  s.end();
  EXPECT_EQ(outer.collect().spans.size(), 1u);
}

TEST(Tracer, SecondTracerDoesNotInheritOpenStack) {
  // Generation rebinding: spans left conceptually "open" when a tracer
  // goes away must not parent spans of the next tracer.
  {
    Tracer first;
    const ScopedTracer scoped(&first);
    Span s("left-open");
    // scoped + first die while s is alive; s.end() after is a no-op
    // against the dead tracer, which is exactly the hazard.
    Tracer::set_current(nullptr);
  }
  Tracer second;
  const ScopedTracer scoped(&second);
  Span fresh("fresh");
  fresh.end();
  const TraceData data = second.collect();
  ASSERT_EQ(data.spans.size(), 1u);
  EXPECT_EQ(data.spans[0].parent, 0u);
}

// --- exporters ---------------------------------------------------------

TraceData sample_data() {
  Tracer tracer;
  const ScopedTracer scoped(&tracer);
  {
    Span a("alpha");
    a.arg("bytes", 1024);
    a.arg("pred_s", 0.5);
    Span b("beta");
  }
  std::thread rank([] {
    set_thread_lane(1);
    Span job("cluster.job");
    Span barrier("cluster.barrier");
  });
  rank.join();
  counter_add("events", 2);
  return tracer.collect();
}

TEST(Report, ChromeTraceJsonIsStructurallySound) {
  const std::string json = chrome_trace_json(sample_data());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("rank 0"), std::string::npos);  // lane 1 label
  // Balanced braces/brackets — cheap proxy for well-formedness.
  long depth = 0;
  for (const char c : json) {
    depth += (c == '{' || c == '[') - (c == '}' || c == ']');
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Report, StatsAndMetrics) {
  const TraceData data = sample_data();
  const auto stats = span_stats(data);
  ASSERT_EQ(stats.size(), 4u);  // alpha, beta, cluster.job, cluster.barrier
  for (const SpanStats& st : stats) {
    if (st.name == "alpha") {
      EXPECT_EQ(st.count, 1u);
      EXPECT_EQ(st.bytes, 1024);
      EXPECT_TRUE(st.has_pred);
      EXPECT_EQ(st.pred_s, 0.5);
    } else {
      EXPECT_FALSE(st.has_pred);
    }
  }
  const auto lanes = lane_stats(data);
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].lane, 1);
  EXPECT_GT(lanes[0].exec_s, 0.0);
  EXPECT_GT(lanes[0].barrier_s, 0.0);
  EXPECT_EQ(load_imbalance(data), 0.0);  // < 2 lanes

  const std::string metrics = metrics_json(data);
  EXPECT_NE(metrics.find("\"counters\""), std::string::npos);
  EXPECT_NE(metrics.find("\"events\": 2"), std::string::npos);
  EXPECT_NE(metrics.find("\"imbalance\""), std::string::npos);

  const auto rows = model_report(data);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "alpha");
  EXPECT_EQ(rows[0].predicted_s, 0.5);
  EXPECT_EQ(rows[0].bytes, 1024u);
  EXPECT_GT(rows[0].drift(), 0.0);
  EXPECT_FALSE(model_report_table(rows).to_string().empty());
  EXPECT_FALSE(summary_table(data).to_string().empty());
}

// --- engine-level trace accounting -------------------------------------

engine::Program traced_program(qubit_t n) {
  engine::Program p(n);
  circuit::Circuit c(n);
  for (qubit_t q = 0; q < n; ++q) {
    c.h(q);
    c.rz(q, 0.23 * static_cast<double>(q + 1));
  }
  for (qubit_t q = 0; q + 1 < n; ++q) c.cnot(q, q + 1);
  p.gates(c);
  p.expectation_z(0b101);
  p.qft();
  p.expectation_z(0b11);
  p.measure({0, 3});
  return p;
}

TEST(EngineTrace, PerOpByteDeltasSumToResultTotals) {
  const engine::Program p = traced_program(8);
  for (const std::string backend : {"hpc", "cached", "dist"}) {
    engine::RunOptions opts;
    opts.backend = backend;
    opts.dist_ranks = 4;
    opts.collapse_measurements = false;
    opts.trace = true;
    const engine::Result res = engine::Engine().run(p, opts);
    ASSERT_NE(res.trace_data, nullptr) << backend;
    std::uint64_t host = 0, net = 0;
    for (const engine::OpTrace& row : res.trace) {
      host += row.host_bytes;
      net += row.net_bytes;
    }
    EXPECT_EQ(host, res.host_bytes) << backend;
    EXPECT_EQ(net, res.net_bytes) << backend;
    if (backend != "dist") {
      EXPECT_EQ(res.host_bytes, 0u) << backend;
      EXPECT_EQ(res.net_bytes, 0u) << backend;
    }
  }
}

TEST(EngineTrace, ReadOnlyDistOpsAttributeZeroBytes) {
  // The op-boundary counter snapshot: an ExpectationZ against the
  // resident distributed state moves no chunk data, so its trace row
  // must read zero on both byte columns — the communication of the
  // surrounding gate segments must not leak into it.
  const engine::Program p = traced_program(8);
  engine::RunOptions opts;
  opts.backend = "dist";
  opts.dist_ranks = 4;
  opts.collapse_measurements = false;
  const engine::Result res = engine::Engine().run(p, opts);
  EXPECT_GT(res.net_bytes, 0u);  // the QFT's global gates do communicate
  bool saw_expectation = false, saw_segment_bytes = false;
  for (const engine::OpTrace& row : res.trace) {
    if (row.op.rfind("expectation_z", 0) == 0) {
      saw_expectation = true;
      EXPECT_EQ(row.net_bytes, 0u) << row.op;
      EXPECT_EQ(row.host_bytes, 0u) << row.op;
    }
    if (row.op.rfind("gates", 0) == 0 && row.net_bytes > 0) saw_segment_bytes = true;
  }
  EXPECT_TRUE(saw_expectation);
  EXPECT_TRUE(saw_segment_bytes);  // attributed to the op that moved them
}

TEST(EngineTrace, TraceDataMirrorsFlatTraceRows) {
  // With tracing on, every OpTrace row has a root op span carrying the
  // same byte deltas — the structured trace is a strict refinement of
  // the flat one.
  const engine::Program p = traced_program(8);
  engine::RunOptions opts;
  opts.backend = "dist";
  opts.dist_ranks = 4;
  opts.collapse_measurements = false;
  opts.trace = true;
  const engine::Result res = engine::Engine().run(p, opts);
  ASSERT_NE(res.trace_data, nullptr);
  const TraceData& data = *res.trace_data;

  // Exactly one engine.run root enclosing everything.
  std::size_t runs = 0;
  span_id run_id = 0;
  for (const SpanEvent& s : data.spans) {
    if (s.name == "engine.run") {
      ++runs;
      run_id = s.id;
    }
  }
  EXPECT_EQ(runs, 1u);

  // The byte-delta args of engine.run's direct children (the op spans
  // and [finalize]) sum to the Result totals. Deeper spans re-describe
  // the same traffic (dist.gather host_bytes, exchange "bytes"), so
  // only this level partitions it.
  double span_host = 0, span_net = 0;
  for (const std::size_t i : data.children_of(run_id)) {
    span_host += data.spans[i].arg("host_bytes", 0);
    span_net += data.spans[i].arg("net_bytes", 0);
  }
  EXPECT_EQ(static_cast<std::uint64_t>(span_host), res.host_bytes);
  EXPECT_EQ(static_cast<std::uint64_t>(span_net), res.net_bytes);
  // Rank lanes appear (4 ranks -> lanes 1..4 present).
  int max_lane = 0;
  for (const SpanEvent& s : data.spans) max_lane = std::max(max_lane, s.lane);
  EXPECT_EQ(max_lane, 4);
}

}  // namespace
}  // namespace qc::obs
