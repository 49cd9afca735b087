// Obs timeline: periodic snapshots of windowed load stats + health states,
// exported as `scatter.timeline.v1` JSON and rendered by tools/scatter_top.
//
// Where the metrics export is one cumulative end-of-run dump, the timeline
// is the time-resolved view: every period it samples the per-(node, group)
// rate windows, per-interval latency percentiles (cumulative histogram
// deltas), per-node wire counters, and whatever health conditions are
// raised — the signal stream the load-adaptive group policies and the
// operator's scatter-top both consume. Like every obs component it is
// passive and sim-time driven: the simulator's periodic task hook calls
// Capture(now_us); nothing here reads a wall clock.

#ifndef SCATTER_SRC_OBS_TIMELINE_H_
#define SCATTER_SRC_OBS_TIMELINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"

namespace scatter::obs {

class TimelineRecorder {
 public:
  // One (group, node) replica's view for one interval.
  struct GroupRow {
    GroupId group = 0;
    NodeId node = 0;
    double ops_per_sec = 0;      // store.window.ops rate
    double bytes_per_sec = 0;    // store.window.bytes rate
    double commits_per_sec = 0;  // paxos.window.commits rate
    int64_t p50_us = 0;          // store.op.latency_us, this interval only
    int64_t p99_us = 0;
    std::vector<std::string> health;  // active conditions, sorted
  };

  // Per-node transport-level view for one interval.
  struct NodeRow {
    NodeId node = 0;
    double frames_per_sec = 0;     // wire.frames_serialized delta rate
    double wire_bytes_per_sec = 0; // wire.bytes_serialized delta rate
    double pool_miss_per_sec = 0;  // wire.pool.miss delta rate
    std::vector<std::string> health;  // node-scoped (group 0) conditions
  };

  struct Snapshot {
    int64_t ts_us = 0;
    std::vector<GroupRow> groups;  // ordered (group, node)
    std::vector<NodeRow> nodes;    // ordered by node
  };

  // A timeline decoded back from JSON (scatter-top's file mode and the
  // round-trip tests).
  struct Parsed {
    int64_t period_us = 0;
    std::vector<Snapshot> snapshots;
  };

  // `monitor` may be null (timeline without health columns). Neither
  // pointer is owned; both must outlive the recorder.
  TimelineRecorder(MetricsRegistry* registry, HealthMonitor* monitor);

  // Late-binds / detaches the health monitor (the simulator calls this when
  // monitoring is enabled after the timeline, or torn down before it).
  void set_monitor(HealthMonitor* monitor) { monitor_ = monitor; }

  // Samples one snapshot at simulated time `now_us`. If a health monitor is
  // attached it is ticked first (idempotent), so health states are never
  // staler than the rows they annotate regardless of task registration
  // order. Idempotent per timestamp.
  void Capture(int64_t now_us, TraceRecorder* tracer = nullptr);

  const std::vector<Snapshot>& snapshots() const { return snapshots_; }

  // {"schema":"scatter.timeline.v1","period_us":P,"snapshots":[...]}, with
  // P = kMonitorPeriodUs, the period the simulator captures at.
  // Deterministic: rows ordered, doubles printed with a fixed format, so
  // Parse + Serialize round-trips byte-identically.
  std::string ToJson() const;
  static std::string Serialize(int64_t period_us,
                               const std::vector<Snapshot>& snapshots);
  // Strict parse of a scatter.timeline.v1 document; returns false on any
  // syntax or schema mismatch.
  static bool Parse(const std::string& text, Parsed* out);

 private:
  using CellKey = std::tuple<std::string, NodeId, GroupId>;

  HealthMonitor* monitor_;
  MetricsRegistry* registry_;
  int64_t last_capture_us_ = -1;
  std::vector<Snapshot> snapshots_;
  // Previous cumulative values for per-interval deltas.
  std::map<CellKey, uint64_t> prev_counters_;
  std::map<std::pair<NodeId, GroupId>, Histogram> prev_latency_;
};

}  // namespace scatter::obs

#endif  // SCATTER_SRC_OBS_TIMELINE_H_
