// Flight-recorder demo: runs a small two-group cluster with causal tracing,
// the health monitor, the obs timeline and durable storage enabled, issues
// a few client operations, drives a cross-group merge so the trace contains
// a multi-group transaction tree, then crashes and restarts one replica so
// the metrics export carries the WAL and recovery cells. Exports the trace
// as Chrome trace-event JSON (open in https://ui.perfetto.dev), the metrics
// registry as JSON, and the periodic load/health snapshots as
// scatter.timeline.v1 JSON (render with tools/scatter_top). The last stdout
// line is the schedule digest, `schedule: events=N messages=M`.
//
// Usage: trace_demo [trace.json] [metrics.json] [timeline.json]

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/core/cluster.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"

namespace scatter {
namespace {

int Run(const std::string& trace_path, const std::string& metrics_path,
        const std::string& timeline_path) {
  core::ClusterConfig cfg;
  cfg.seed = 42;
  cfg.initial_nodes = 10;
  cfg.initial_groups = 2;
  // All structural operations are triggered explicitly below.
  cfg.scatter.policy.enable_split = false;
  cfg.scatter.policy.enable_merge = false;
  cfg.scatter.policy.enable_migration = false;
  cfg.scatter.policy.min_group_size = 1;
  cfg.scatter.policy.max_group_size = 64;
  cfg.enable_health_monitor = true;
  cfg.enable_timeline = true;
  // Persist so the exported metrics carry wal.* cells, and the crash +
  // restart below populates the recovery.* cells the obs gate validates.
  cfg.persistence = core::ClusterConfig::Persistence::kOn;
  core::Cluster cluster(cfg);
  cluster.sim().EnableTracing();
  cluster.RunFor(Seconds(2));

  // A few client operations: each produces a client → node → paxos span
  // chain in the trace.
  core::Client* client = cluster.AddClient();
  for (int i = 0; i < 8; ++i) {
    const Key key = KeyFromString("demo" + std::to_string(i));
    bool done = false;
    client->Put(key, "value" + std::to_string(i),
                [&done](Status s) { done = s.ok(); });
    while (!done) {
      cluster.sim().RunFor(Millis(2));
    }
  }
  for (int i = 0; i < 4; ++i) {
    const Key key = KeyFromString("demo" + std::to_string(i));
    bool done = false;
    client->Get(key, [&done](StatusOr<Value> r) { done = r.ok(); });
    while (!done) {
      cluster.sim().RunFor(Millis(2));
    }
  }

  // Cross-group merge: the coordinator group (range beginning at 0) runs
  // 2PC over nested Paxos with the other group as participant. This is the
  // multi-group span tree the exported trace must contain.
  core::ScatterNode* coordinator = nullptr;
  GroupId coord_group = kInvalidGroup;
  for (NodeId id : cluster.live_node_ids()) {
    core::ScatterNode* node = cluster.node(id);
    for (const ring::GroupInfo& info : node->ServingInfos()) {
      if (info.leader == id && info.range.begin == 0) {
        coordinator = node;
        coord_group = info.id;
      }
    }
  }
  if (coordinator == nullptr) {
    std::fprintf(stderr, "trace_demo: no coordinator leader found\n");
    return 1;
  }
  Status merge_status = InternalError("pending");
  bool merge_done = false;
  coordinator->RequestMerge(coord_group, [&](Status s) {
    merge_done = true;
    merge_status = s;
  });
  const TimeMicros deadline = cluster.sim().now() + Seconds(20);
  while (!merge_done && cluster.sim().now() < deadline) {
    cluster.sim().RunFor(Millis(5));
  }
  if (!merge_done || !merge_status.ok()) {
    std::fprintf(stderr, "trace_demo: merge failed: %s\n",
                 merge_done ? merge_status.ToString().c_str() : "timeout");
    return 1;
  }
  cluster.RunFor(Seconds(2));

  // Crash one group-hosting replica and restart it from its own disk: the
  // WAL-over-snapshot replay populates the recovery.* metric cells.
  NodeId victim = kInvalidNode;
  for (NodeId id : cluster.live_node_ids()) {
    if (!cluster.node(id)->ServingGroups().empty()) {
      victim = id;
      break;
    }
  }
  if (victim == kInvalidNode) {
    std::fprintf(stderr, "trace_demo: no group-hosting node to restart\n");
    return 1;
  }
  cluster.CrashNode(victim);
  cluster.RunFor(Millis(500));
  const size_t recovered = cluster.RestartNode(victim);
  if (recovered == 0) {
    std::fprintf(stderr, "trace_demo: node %llu recovered no groups\n",
                 static_cast<unsigned long long>(victim));
    return 1;
  }
  cluster.RunFor(Seconds(2));

  {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "trace_demo: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
    out << cluster.sim().tracer()->ToChromeJson();
  }
  {
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "trace_demo: cannot write %s\n",
                   metrics_path.c_str());
      return 1;
    }
    out << cluster.sim().metrics().ToJson();
  }
  {
    // Final tick at the current instant so the document covers the tail of
    // the run even though it ended between period boundaries.
    cluster.sim().TickMonitors(cluster.sim().now());
    obs::TimelineRecorder* timeline = cluster.sim().timeline();
    std::ofstream out(timeline_path);
    if (!out) {
      std::fprintf(stderr, "trace_demo: cannot write %s\n",
                   timeline_path.c_str());
      return 1;
    }
    out << timeline->ToJson() << "\n";
  }
  const obs::HealthMonitor* monitor = cluster.sim().health_monitor();
  std::printf(
      "trace_demo: wrote %s, %s and %s (%zu spans, %zu timeline snapshots, "
      "%llu health raises, n%llu recovered %zu group%s from disk)\n",
      trace_path.c_str(), metrics_path.c_str(), timeline_path.c_str(),
      cluster.sim().tracer()->spans().size(),
      cluster.sim().timeline()->snapshots().size(),
      static_cast<unsigned long long>(monitor->raises_total()),
      static_cast<unsigned long long>(victim), recovered,
      recovered == 1 ? "" : "s");
  std::printf("view the trace at https://ui.perfetto.dev\n");
  // Schedule digest: any change to the simulated schedule moves it, even
  // one that leaves every span in place.
  std::printf("schedule: events=%llu messages=%llu\n",
              static_cast<unsigned long long>(cluster.sim().events_processed()),
              static_cast<unsigned long long>(cluster.net().messages_sent()));
  return 0;
}

}  // namespace
}  // namespace scatter

int main(int argc, char** argv) {
  const std::string trace_path = argc > 1 ? argv[1] : "trace_demo_trace.json";
  const std::string metrics_path =
      argc > 2 ? argv[2] : "trace_demo_metrics.json";
  const std::string timeline_path =
      argc > 3 ? argv[3] : "trace_demo_timeline.json";
  return scatter::Run(trace_path, metrics_path, timeline_path);
}
