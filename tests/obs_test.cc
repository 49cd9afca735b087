// Tests for the flight recorder: metrics registry cells and JSON export,
// histogram edge cases, the causal tracer's span bookkeeping, and full
// cross-node / cross-group trace propagation through live clusters.

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/core/cluster.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace scatter {
namespace {

// ---------------------------------------------------------------------------
// Histogram edge cases (the registry exporter leans on these)
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(0), 0);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.Percentile(100), 0);
}

TEST(HistogramTest, MergeEmptyIsNoop) {
  Histogram h;
  h.Record(100);
  h.Record(200);
  Histogram empty;
  h.Merge(empty);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 100);
  EXPECT_EQ(h.max(), 200);

  // ...and merging into an empty histogram adopts the other's stats.
  empty.Merge(h);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.min(), 100);
  EXPECT_EQ(empty.max(), 200);
}

TEST(HistogramTest, SingleSamplePercentiles) {
  Histogram h;
  h.Record(500);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 500);
  EXPECT_EQ(h.max(), 500);
  EXPECT_EQ(h.mean(), 500.0);
  // Every percentile lands in the single occupied bucket.
  EXPECT_EQ(h.Percentile(0), h.Percentile(100));
  // Log-bucketing bounds the error to a few percent.
  EXPECT_GE(h.Percentile(50), 500);
  EXPECT_LE(h.Percentile(50), 550);
}

TEST(HistogramTest, PercentileBoundsBracketSamples) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(i);
  }
  EXPECT_LE(h.Percentile(0), h.Percentile(50));
  EXPECT_LE(h.Percentile(50), h.Percentile(100));
  EXPECT_GE(h.Percentile(100), h.max());
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(42);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(100), 0);
  h.Record(7);  // usable again after reset
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, ToJsonHasStableSchema) {
  Histogram h;
  h.Record(100);
  const std::string json = h.ToJson();
  for (const char* key :
       {"\"count\":", "\"min\":", "\"max\":", "\"mean\":", "\"p50\":",
        "\"p90\":", "\"p99\":", "\"p100\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(CounterTest, SupportsIntegerIdioms) {
  Counter c;
  c++;
  ++c;
  c += 3;
  c.Add(2);
  EXPECT_EQ(static_cast<uint64_t>(c), 7u);
  const uint64_t copy = c;
  EXPECT_EQ(copy, 7u);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CellsAreStableAndKeyed) {
  obs::MetricsRegistry reg;
  Counter& a = reg.GetCounter("paxos.accepts_sent", 1, 2);
  Counter& b = reg.GetCounter("paxos.accepts_sent", 1, 2);
  EXPECT_EQ(&a, &b);  // same cell, stable reference
  Counter& other_node = reg.GetCounter("paxos.accepts_sent", 3, 2);
  EXPECT_NE(&a, &other_node);
  a += 5;
  EXPECT_EQ(static_cast<uint64_t>(b), 5u);
  EXPECT_EQ(static_cast<uint64_t>(other_node), 0u);
  EXPECT_EQ(reg.counter_cells(), 2u);
}

TEST(MetricsRegistryTest, ToJsonIsStableSchemaAndDeterministic) {
  auto build = [] {
    obs::MetricsRegistry reg;
    reg.GetCounter("zeta.ops", 2, 1) += 7;
    reg.GetCounter("alpha.ops", 1, 0)++;
    reg.GetGauge("core.hosted_groups", 1).Set(3);
    reg.GetHistogram("lat", 1, 1).Record(250);
    return reg.ToJson();
  };
  const std::string json = build();
  EXPECT_NE(json.find("\"schema\":\"scatter.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\":["), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":["), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":["), std::string::npos);
  EXPECT_NE(
      json.find(
          "{\"name\":\"alpha.ops\",\"node\":1,\"group\":0,\"value\":1}"),
      std::string::npos)
      << json;
  // Cells are ordered by (name, node, group): alpha before zeta.
  EXPECT_LT(json.find("alpha.ops"), json.find("zeta.ops"));
  // Equal registries export byte-identical JSON.
  EXPECT_EQ(json, build());
}

// ---------------------------------------------------------------------------
// Tracer bookkeeping (manual clock)
// ---------------------------------------------------------------------------

int64_t FakeClock(void* arg) { return *static_cast<int64_t*>(arg); }

TEST(TraceRecorderTest, SpanParentageAndTiming) {
  int64_t now = 1000;
  obs::TraceRecorder rec(&FakeClock, &now);

  const obs::TraceContext root = obs::StartSpan(&rec, "root", 1, 2);
  EXPECT_TRUE(root.valid());
  {
    obs::ScopedContext scope(&rec, root);
    now = 1500;
    const obs::TraceContext child = obs::StartSpan(&rec, "child", 3, 2);
    EXPECT_EQ(child.trace_id, root.trace_id);
    now = 2000;
    obs::EndSpan(&rec, child);
  }
  now = 2500;
  obs::EndSpan(&rec, root);

  ASSERT_EQ(rec.spans().size(), 2u);
  const obs::TraceRecorder::Span& root_span = rec.spans()[0];
  const obs::TraceRecorder::Span& child_span = rec.spans()[1];
  EXPECT_EQ(root_span.parent_span_id, 0u);
  EXPECT_EQ(child_span.parent_span_id, root_span.span_id);
  EXPECT_EQ(root_span.start_us, 1000);
  EXPECT_EQ(root_span.end_us, 2500);
  EXPECT_EQ(child_span.start_us, 1500);
  EXPECT_EQ(child_span.end_us, 2000);
  EXPECT_FALSE(root_span.open);

  // Separate roots get separate traces.
  const obs::TraceContext other = obs::StartSpan(&rec, "other", 1, 2);
  EXPECT_NE(other.trace_id, root.trace_id);
  // An explicit parent overrides the (empty) ambient context.
  const obs::TraceContext adopted =
      obs::StartSpanWithParent(&rec, "adopted", root, 1, 2);
  EXPECT_EQ(adopted.trace_id, root.trace_id);
  EXPECT_EQ(rec.FindSpan(adopted.span_id)->parent_span_id, root.span_id);
  // Double-EndSpan is harmless.
  obs::EndSpan(&rec, root);
  EXPECT_EQ(rec.spans()[0].end_us, 2500);
}

TEST(TraceRecorderTest, ScopedContextRestoresAmbient) {
  int64_t now = 0;
  obs::TraceRecorder rec(&FakeClock, &now);
  EXPECT_FALSE(rec.current().valid());
  const obs::TraceContext outer = obs::StartSpan(&rec, "outer", 1, 0);
  {
    obs::ScopedContext outer_scope(&rec, outer);
    EXPECT_EQ(rec.current().span_id, outer.span_id);
    {
      const obs::TraceContext inner = obs::StartSpan(&rec, "inner", 1, 0);
      obs::ScopedContext inner_scope(&rec, inner);
      EXPECT_EQ(rec.spans()[1].parent_span_id, outer.span_id);
      EXPECT_EQ(rec.current().span_id, inner.span_id);
    }
    EXPECT_EQ(rec.current().span_id, outer.span_id);
    // An invalid context leaves the ambient one in place.
    {
      obs::ScopedContext noop(&rec, obs::TraceContext{});
      EXPECT_EQ(rec.current().span_id, outer.span_id);
    }
    EXPECT_EQ(rec.current().span_id, outer.span_id);
  }
  EXPECT_FALSE(rec.current().valid());
}

TEST(TraceRecorderTest, CallsOnNullRecorderOrInvalidContextAreNoOps) {
  const obs::TraceContext span = obs::StartSpan(nullptr, "x", 1, 0);
  EXPECT_FALSE(span.valid());
  EXPECT_FALSE(
      obs::StartSpanWithParent(nullptr, "x", obs::TraceContext{1, 1}, 1, 0)
          .valid());
  EXPECT_FALSE(obs::Ambient(nullptr).valid());
  obs::EndSpan(nullptr, obs::TraceContext{1, 1});
  obs::Annotate(nullptr, obs::TraceContext{1, 1}, "k", "v");
  obs::Annotate(nullptr, obs::TraceContext{1, 1}, "k", uint64_t{7});
  obs::AddInstant(nullptr, "i", 1, 0);
  obs::AddMarker(nullptr, "m", 1, 0);
  { obs::ScopedContext scope(nullptr, obs::TraceContext{1, 1}); }

  int64_t now = 0;
  obs::TraceRecorder rec(&FakeClock, &now);
  const obs::TraceContext live = obs::StartSpan(&rec, "live", 1, 0);
  obs::Annotate(&rec, obs::TraceContext{}, "k", "v");
  obs::Annotate(&rec, obs::TraceContext{}, "k", uint64_t{7});
  obs::EndSpan(&rec, obs::TraceContext{});
  EXPECT_TRUE(rec.spans()[0].args.empty());
  EXPECT_TRUE(rec.spans()[0].open);
  EXPECT_EQ(rec.current().span_id, 0u);
  obs::EndSpan(&rec, live);
  EXPECT_FALSE(rec.spans()[0].open);
}

TEST(TraceRecorderTest, NumericAnnotationsPrintInDecimal) {
  int64_t now = 0;
  obs::TraceRecorder rec(&FakeClock, &now);
  const obs::TraceContext span = obs::StartSpan(&rec, "op", 1, 0);
  obs::Annotate(&rec, span, "zero", uint64_t{0});
  obs::Annotate(&rec, span, "max", ~uint64_t{0});
  obs::Annotate(&rec, span, "attempts", size_t{3});
  obs::Annotate(&rec, span, "text", "true");
  const auto& args = rec.spans()[0].args;
  ASSERT_EQ(args.size(), 4u);
  EXPECT_EQ(args[0], std::make_pair(std::string("zero"), std::string("0")));
  EXPECT_EQ(args[1], std::make_pair(std::string("max"),
                                    std::string("18446744073709551615")));
  EXPECT_EQ(args[2], std::make_pair(std::string("attempts"), std::string("3")));
  EXPECT_EQ(args[3], std::make_pair(std::string("text"), std::string("true")));
}

TEST(TraceRecorderTest, InstantsRequireAmbientSpan) {
  int64_t now = 0;
  obs::TraceRecorder rec(&FakeClock, &now);
  obs::AddInstant(&rec, "dropped", 1, 0);
  EXPECT_TRUE(rec.instants().empty());
  const obs::TraceContext span = obs::StartSpan(&rec, "op", 1, 0);
  obs::ScopedContext scope(&rec, span);
  obs::AddInstant(&rec, "kept", 1, 0);
  ASSERT_EQ(rec.instants().size(), 1u);
  EXPECT_EQ(rec.instants()[0].parent_span_id, span.span_id);
  // Markers land outside any trace, ambient span or not.
  obs::AddMarker(&rec, "marker", 2, 3);
  ASSERT_EQ(rec.instants().size(), 2u);
  EXPECT_EQ(rec.instants()[1].trace_id, 0u);
  EXPECT_EQ(rec.instants()[1].parent_span_id, 0u);
}

TEST(TraceRecorderTest, ChromeJsonShape) {
  int64_t now = 10;
  obs::TraceRecorder rec(&FakeClock, &now);
  {
    const obs::TraceContext span = obs::StartSpan(&rec, "alpha", 1, 2);
    obs::ScopedContext scope(&rec, span);
    obs::Annotate(&rec, span, "key", "va\"lue");
    obs::AddInstant(&rec, "tick", 1, 2);
    obs::EndSpan(&rec, span);
  }
  const std::string json = rec.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"schema\":\"scatter.trace.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alpha\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"key\":\"va\\\"lue\""), std::string::npos);
  // Zero-duration spans are clamped to 1us so Perfetto renders them.
  EXPECT_NE(json.find("\"dur\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end trace propagation through live clusters
// ---------------------------------------------------------------------------

// Walks parent links from `span_id`; true if `ancestor` is on the path.
bool ReachesAncestor(const obs::TraceRecorder& rec, uint64_t span_id,
                     uint64_t ancestor) {
  size_t hops = 0;
  while (span_id != 0 && hops++ < 64) {
    if (span_id == ancestor) {
      return true;
    }
    const obs::TraceRecorder::Span* span = rec.FindSpan(span_id);
    if (span == nullptr) {
      return false;
    }
    span_id = span->parent_span_id;
  }
  return false;
}

core::ClusterConfig StaticCluster(uint64_t seed, size_t nodes,
                                  size_t groups) {
  core::ClusterConfig cfg;
  cfg.seed = seed;
  cfg.initial_nodes = nodes;
  cfg.initial_groups = groups;
  cfg.scatter.policy.enable_split = false;
  cfg.scatter.policy.enable_merge = false;
  cfg.scatter.policy.enable_migration = false;
  cfg.scatter.policy.min_group_size = 1;
  cfg.scatter.policy.max_group_size = 64;
  return cfg;
}

TEST(TracePropagationTest, ClientOpSpanTreeCoversCommitPath) {
  core::Cluster c(StaticCluster(11, 5, 1));
  obs::TraceRecorder& rec = c.sim().EnableTracing();
  c.RunFor(Seconds(2));

  core::Client* client = c.AddClient();
  bool done = false;
  client->Put(KeyFromString("tracedkey"), "tracedvalue",
              [&](Status s) { done = s.ok(); });
  const TimeMicros deadline = c.sim().now() + Seconds(10);
  while (!done && c.sim().now() < deadline) {
    c.sim().RunFor(Millis(2));
  }
  ASSERT_TRUE(done);
  c.RunFor(Millis(500));  // let followers apply

  // Find the client op's root span.
  const obs::TraceRecorder::Span* root = nullptr;
  for (const auto& span : rec.spans()) {
    if (span.name == "client.put") {
      root = &span;
      break;
    }
  }
  ASSERT_NE(root, nullptr);

  // Collect the op's tree: propose -> flush -> apply, all parenting back to
  // the client span, with simulated timestamps never going backwards.
  std::set<std::string> names;
  size_t in_tree = 0;
  for (const auto& span : rec.spans()) {
    if (span.trace_id != root->trace_id) {
      continue;
    }
    in_tree++;
    names.insert(span.name);
    EXPECT_TRUE(ReachesAncestor(rec, span.span_id, root->span_id))
        << span.name << " does not parent back to client.put";
    if (span.parent_span_id != 0) {
      const obs::TraceRecorder::Span* parent =
          rec.FindSpan(span.parent_span_id);
      ASSERT_NE(parent, nullptr);
      EXPECT_GE(span.start_us, parent->start_us)
          << span.name << " starts before its parent " << parent->name;
    }
    EXPECT_FALSE(span.open) << span.name << " never ended";
    EXPECT_GE(span.end_us, span.start_us);
  }
  EXPECT_GE(in_tree, 4u);
  EXPECT_TRUE(names.count("node.put")) << "missing node-side span";
  EXPECT_TRUE(names.count("paxos.propose")) << "missing propose span";
  EXPECT_TRUE(names.count("paxos.flush")) << "missing flush span";
  EXPECT_TRUE(names.count("paxos.apply")) << "missing apply span";

  // The quorum-commit instant is attached to the same trace.
  bool commit_instant = false;
  for (const auto& inst : rec.instants()) {
    if (inst.trace_id == root->trace_id &&
        inst.name == "paxos.quorum_commit") {
      commit_instant = true;
    }
  }
  EXPECT_TRUE(commit_instant);
}

TEST(TracePropagationTest, MultiGroupOpFormsSingleConnectedTree) {
  core::Cluster c(StaticCluster(21, 10, 2));
  obs::TraceRecorder& rec = c.sim().EnableTracing();
  c.RunFor(Seconds(2));

  // Fire a merge from the group whose range begins at 0; the clockwise
  // successor group participates, so the op spans both groups.
  core::ScatterNode* leader = nullptr;
  GroupId group = kInvalidGroup;
  for (NodeId id : c.live_node_ids()) {
    core::ScatterNode* node = c.node(id);
    for (const ring::GroupInfo& info : node->ServingInfos()) {
      if (info.leader == id && info.range.begin == 0) {
        leader = node;
        group = info.id;
      }
    }
  }
  ASSERT_NE(leader, nullptr);
  Status outcome = InternalError("pending");
  bool done = false;
  leader->RequestMerge(group, [&](Status s) {
    done = true;
    outcome = s;
  });
  const TimeMicros deadline = c.sim().now() + Seconds(20);
  while (!done && c.sim().now() < deadline) {
    c.sim().RunFor(Millis(5));
  }
  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.ok()) << outcome.ToString();
  c.RunFor(Seconds(2));

  const obs::TraceRecorder::Span* coord = nullptr;
  for (const auto& span : rec.spans()) {
    if (span.name == "txn.coordinate") {
      coord = &span;
      break;
    }
  }
  ASSERT_NE(coord, nullptr);

  // Every participant-side span of the transaction parents back to the
  // coordinator's span, and the tree covers both groups.
  std::set<GroupId> groups_in_tree;
  size_t participant_spans = 0;
  for (const auto& span : rec.spans()) {
    if (span.trace_id != coord->trace_id) {
      continue;
    }
    if (ReachesAncestor(rec, span.span_id, coord->span_id)) {
      groups_in_tree.insert(span.group);
    }
    if (span.name == "txn.participant_prepare" ||
        span.name == "txn.participant_decide") {
      participant_spans++;
      EXPECT_TRUE(ReachesAncestor(rec, span.span_id, coord->span_id))
          << span.name << " (group " << span.group
          << ") does not parent back to txn.coordinate";
    }
  }
  EXPECT_GE(participant_spans, 2u);  // at least prepare + decide
  EXPECT_GE(groups_in_tree.size(), 2u)
      << "transaction tree does not span two groups";
}

TEST(HistogramTest, DeltaSinceSubtractsEarlierSnapshot) {
  Histogram h;
  h.Record(100);
  h.Record(200);
  const Histogram earlier = h;  // snapshot
  h.Record(5000);
  h.Record(6000);
  const Histogram delta = h.DeltaSince(earlier);
  EXPECT_EQ(delta.count(), 2u);
  // The interval saw only the two large samples; percentiles must reflect
  // that, not the lifetime distribution.
  EXPECT_GE(delta.Percentile(50), 5000);
  EXPECT_GE(delta.min(), 201);
  EXPECT_LE(delta.max(), 6000);
  // No new samples => empty delta.
  EXPECT_EQ(h.DeltaSince(h).count(), 0u);
}

// ---------------------------------------------------------------------------
// Simulator monitor tick (the hook health/timeline ride on)
// ---------------------------------------------------------------------------

std::vector<int64_t> SnapshotTimes(const obs::TimelineRecorder& timeline) {
  std::vector<int64_t> times;
  for (const auto& snap : timeline.snapshots()) {
    times.push_back(snap.ts_us);
  }
  return times;
}

TEST(SimulatorPeriodicTest, FiresOnAbsoluteBoundaries) {
  constexpr TimeMicros kP = obs::kMonitorPeriodUs;
  sim::Simulator sim(1);
  sim.RunFor(100);
  // Enabled mid-period, the tick starts at the next absolute multiple of
  // the period, not at now + period.
  const obs::TimelineRecorder& timeline = sim.EnableTimeline();
  sim.RunUntil(kP - 1);
  EXPECT_TRUE(timeline.snapshots().empty());
  sim.RunUntil(kP);
  EXPECT_EQ(SnapshotTimes(timeline), (std::vector<int64_t>{kP}));
  // An idle gap of several periods, crossed by one clock advance, yields
  // one snapshot per boundary, each stamped with its nominal boundary.
  sim.RunFor(3 * kP + 1000);
  EXPECT_EQ(SnapshotTimes(timeline),
            (std::vector<int64_t>{kP, 2 * kP, 3 * kP, 4 * kP}));
  // An event that carries the clock past a boundary runs before the tick.
  size_t seen_by_event = 0;
  sim.Schedule(kP, [&]() { seen_by_event = timeline.snapshots().size(); });
  sim.Run();
  EXPECT_EQ(seen_by_event, 4u);
  EXPECT_EQ(SnapshotTimes(timeline).back(), 5 * kP);
}

TEST(SimulatorPeriodicTest, PeriodicTasksDoNotChangeEventSchedule) {
  // The hook runs between events rather than through the event queue, so
  // enabling monitoring must not perturb a seeded run's event history.
  auto run = [](bool monitored) {
    sim::Simulator sim(99);
    if (monitored) {
      sim.EnableHealthMonitor();
      sim.EnableTimeline();
    }
    std::vector<TimeMicros> event_times;
    for (int i = 0; i < 20; ++i) {
      sim.Schedule(sim.rng().Range(1, 1'000'000), [&, i]() {
        event_times.push_back(sim.now());
        if (i % 3 == 0) {
          sim.Schedule(sim.rng().Range(1, 500'000),
                       [&]() { event_times.push_back(sim.now()); });
        }
      });
    }
    sim.Run();
    return event_times;
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Timeline: capture, serialize, strict parse, byte-stable round-trip
// ---------------------------------------------------------------------------

TEST(TimelineTest, CaptureSamplesWindowsAndCountersPerInterval) {
  obs::MetricsRegistry reg;
  obs::TimelineRecorder rec(&reg);
  reg.GetCounter("store.ops_accepted", 1, 7) += 50;
  reg.GetCounter("store.bytes_accepted", 1, 7) += 5000;
  reg.GetCounter("paxos.commits_learned", 1, 7) += 25;
  reg.GetCounter("wire.frames_serialized", 1) += 100;
  rec.Capture(250'000, nullptr);
  reg.GetCounter("store.ops_accepted", 1, 7) += 10;
  reg.GetCounter("wire.frames_serialized", 1) += 60;
  rec.Capture(500'000, nullptr);

  ASSERT_EQ(rec.snapshots().size(), 2u);
  const auto& first = rec.snapshots()[0];
  ASSERT_EQ(first.groups.size(), 1u);
  EXPECT_EQ(first.groups[0].group, 7u);
  EXPECT_EQ(first.groups[0].node, 1u);
  // Every rate is the interval's counter delta over the first 250ms.
  EXPECT_DOUBLE_EQ(first.groups[0].ops_per_sec, 200.0);
  EXPECT_DOUBLE_EQ(first.groups[0].bytes_per_sec, 20'000.0);
  EXPECT_DOUBLE_EQ(first.groups[0].commits_per_sec, 100.0);
  ASSERT_EQ(first.nodes.size(), 1u);
  EXPECT_DOUBLE_EQ(first.nodes[0].frames_per_sec, 400.0);
  // Second interval rates reflect the delta, not the cumulative count; an
  // idle cell keeps its row at rate 0.
  const auto& second = rec.snapshots()[1];
  ASSERT_EQ(second.groups.size(), 1u);
  EXPECT_DOUBLE_EQ(second.groups[0].ops_per_sec, 40.0);
  EXPECT_DOUBLE_EQ(second.groups[0].bytes_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(second.groups[0].commits_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(second.nodes[0].frames_per_sec, 240.0);
}

// Rates are counter deltas over each interval, so integrating a group
// row's rates over the run gives back the counter exactly.
TEST(TimelineTest, GroupRatesIntegrateToTheirCounters) {
  core::ClusterConfig cfg = StaticCluster(7, 6, 2);
  cfg.enable_timeline = true;
  core::Cluster c(cfg);
  c.RunFor(Seconds(2));
  core::Client* client = c.AddClient();
  int acked = 0;
  for (int i = 0; i < 30; ++i) {
    client->Put(KeyFromString("k" + std::to_string(i)), "value",
                [&](Status s) { acked += s.ok() ? 1 : 0; });
  }
  c.sim().RunUntil(Seconds(6));
  ASSERT_EQ(acked, 30);
  ASSERT_EQ(c.sim().now() % obs::kMonitorPeriodUs, 0);

  using Cell = std::pair<NodeId, GroupId>;
  std::map<Cell, double> ops, bytes, commits;
  int64_t prev_ts = 0;
  const obs::TimelineRecorder& timeline = *c.sim().timeline();
  ASSERT_EQ(timeline.snapshots().back().ts_us, c.sim().now());
  for (const auto& snap : timeline.snapshots()) {
    const double interval_s = static_cast<double>(snap.ts_us - prev_ts) / 1e6;
    prev_ts = snap.ts_us;
    for (const auto& row : snap.groups) {
      const Cell cell{row.node, row.group};
      ops[cell] += row.ops_per_sec * interval_s;
      bytes[cell] += row.bytes_per_sec * interval_s;
      commits[cell] += row.commits_per_sec * interval_s;
    }
  }
  const obs::MetricsRegistry& reg = c.sim().metrics();
  auto expect_integrates = [&](const std::string& name,
                               const std::map<Cell, double>& integral) {
    size_t cells = 0;
    reg.ForEachCounter(name, [&](NodeId node, GroupId group,
                                 const Counter& counter) {
      cells++;
      auto it = integral.find({node, group});
      ASSERT_NE(it, integral.end()) << name << " n" << node << " g" << group;
      EXPECT_EQ(std::llround(it->second), static_cast<int64_t>(counter.value))
          << name << " n" << node << " g" << group;
    });
    EXPECT_EQ(cells, integral.size()) << name;
  };
  expect_integrates("store.ops_accepted", ops);
  expect_integrates("store.bytes_accepted", bytes);
  expect_integrates("paxos.commits_learned", commits);
  uint64_t accepted = 0;
  reg.ForEachCounter("store.ops_accepted",
                     [&](NodeId, GroupId, const Counter& counter) {
                       accepted += counter.value;
                     });
  EXPECT_GE(accepted, 30u);
}

TEST(TimelineTest, SerializeParseRoundTripsByteIdentically) {
  obs::MetricsRegistry reg;
  obs::TimelineRecorder rec(&reg);
  reg.GetCounter("store.ops_accepted", 3, 11) += 7;
  reg.GetHistogram("store.op.latency_us", 3, 11).Record(421);
  reg.GetHistogram("store.op.latency_us", 3, 11).Record(999);
  reg.GetCounter("wire.bytes_serialized", 3) += 12345;
  rec.Capture(250'000, nullptr);
  rec.Capture(500'000, nullptr);

  const std::string json = rec.ToJson();
  obs::TimelineRecorder::Parsed parsed;
  ASSERT_TRUE(obs::TimelineRecorder::Parse(json, &parsed));
  EXPECT_EQ(parsed.period_us, obs::kMonitorPeriodUs);
  ASSERT_EQ(parsed.snapshots.size(), 2u);
  EXPECT_EQ(parsed.snapshots[0].ts_us, 250'000);
  ASSERT_EQ(parsed.snapshots[0].groups.size(), 1u);
  EXPECT_EQ(parsed.snapshots[0].groups[0].p99_us, 999);

  // Byte-stable: re-serializing the parsed form reproduces the document.
  EXPECT_EQ(obs::TimelineRecorder::Serialize(parsed.period_us,
                                             parsed.snapshots),
            json);
}

TEST(TimelineTest, ParseRejectsMalformedDocuments) {
  obs::TimelineRecorder::Parsed parsed;
  EXPECT_FALSE(obs::TimelineRecorder::Parse("", &parsed));
  EXPECT_FALSE(obs::TimelineRecorder::Parse("{}", &parsed));
  EXPECT_FALSE(obs::TimelineRecorder::Parse(
      "{\"schema\":\"scatter.timeline.v2\",\"period_us\":1,"
      "\"snapshots\":[]}",
      &parsed));
  // Trailing garbage after a valid document is rejected.
  obs::MetricsRegistry reg;
  obs::TimelineRecorder rec(&reg);
  rec.Capture(250'000, nullptr);
  EXPECT_TRUE(obs::TimelineRecorder::Parse(rec.ToJson(), &parsed));
  EXPECT_FALSE(obs::TimelineRecorder::Parse(rec.ToJson() + "x", &parsed));
}

// A one-snapshot timeline document with the given period and timestamp
// tokens, spliced in verbatim.
std::string TimelineDoc(const std::string& period_us, const std::string& ts_us) {
  return "{\"schema\":\"scatter.timeline.v1\",\"period_us\":" + period_us +
         ",\"snapshots\":[{\"ts_us\":" + ts_us +
         ",\"groups\":[],\"nodes\":[]}]}";
}

TEST(TimelineTest, ParseRejectsNumbersJsonDoesNotAllowOrInt64CannotHold) {
  obs::TimelineRecorder::Parsed parsed;
  ASSERT_TRUE(
      obs::TimelineRecorder::Parse(TimelineDoc("250000", "1000"), &parsed));
  EXPECT_EQ(parsed.period_us, 250'000);
  EXPECT_EQ(parsed.snapshots.at(0).ts_us, 1000);
  // Out of int64 range: converting it would be undefined behaviour.
  EXPECT_FALSE(
      obs::TimelineRecorder::Parse(TimelineDoc("250000", "1e300"), &parsed));
  // An integer field written with an exponent is not an integer token.
  EXPECT_FALSE(
      obs::TimelineRecorder::Parse(TimelineDoc("250000", "1e3"), &parsed));
  // strtod accepts these; JSON does not.
  EXPECT_FALSE(
      obs::TimelineRecorder::Parse(TimelineDoc("250000", "-inf"), &parsed));
  EXPECT_FALSE(
      obs::TimelineRecorder::Parse(TimelineDoc("0x3D090", "1000"), &parsed));
  EXPECT_FALSE(
      obs::TimelineRecorder::Parse(TimelineDoc("250000", "nan"), &parsed));
}

// The timeline's load inputs are plain counters: the export has no window
// section, and each (node, group) cell counts exactly what the sliding
// window it replaced totalled on this seeded run.
TEST(MetricsRegistryTest, ClusterRegistersOnlyTheWindowsTheTimelineReads) {
  core::Cluster c(StaticCluster(5, 6, 2));
  c.RunFor(Seconds(2));
  core::Client* client = c.AddClient();
  int acked = 0;
  for (int i = 0; i < 20; ++i) {
    client->Put(KeyFromString(std::to_string(i)), "v",
                [&](Status s) { acked += s.ok() ? 1 : 0; });
  }
  const TimeMicros deadline = c.sim().now() + Seconds(20);
  while (acked < 20 && c.sim().now() < deadline) {
    c.sim().RunFor(Millis(10));
  }
  ASSERT_EQ(acked, 20);

  json::Value metrics;
  ASSERT_TRUE(json::Parse(c.sim().metrics().ToJson(), &metrics));
  EXPECT_EQ(metrics.Find("windows"), nullptr);

  using Cells = std::map<std::pair<NodeId, GroupId>, uint64_t>;
  auto cells_of = [&](const std::string& name) {
    Cells cells;
    c.sim().metrics().ForEachCounter(
        name, [&](NodeId node, GroupId group, const Counter& counter) {
          cells[{node, group}] = counter.value;
        });
    return cells;
  };
  // Group 1000 lives on the odd nodes, 1001 on the even ones; only the
  // leaders (nodes 5 and 6) accept client ops, and every replica learns
  // the same 11 commits.
  EXPECT_EQ(cells_of("store.ops_accepted"),
            (Cells{{{1, 1000}, 0}, {{2, 1001}, 0}, {{3, 1000}, 0},
                   {{4, 1001}, 0}, {{5, 1000}, 10}, {{6, 1001}, 10}}));
  EXPECT_EQ(cells_of("store.bytes_accepted"),
            (Cells{{{1, 1000}, 0}, {{2, 1001}, 0}, {{3, 1000}, 0},
                   {{4, 1001}, 0}, {{5, 1000}, 650}, {{6, 1001}, 650}}));
  EXPECT_EQ(cells_of("paxos.commits_learned"),
            (Cells{{{1, 1000}, 11}, {{2, 1001}, 11}, {{3, 1000}, 11},
                   {{4, 1001}, 11}, {{5, 1000}, 11}, {{6, 1001}, 11}}));
}

}  // namespace
}  // namespace scatter
