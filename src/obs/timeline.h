// Obs timeline: periodic snapshots of per-interval load rates + health
// states, exported as `scatter.timeline.v1` JSON and rendered by
// tools/scatter_top.
//
// Where the metrics export is one cumulative end-of-run dump, the timeline
// is the time-resolved view: every period it turns the cumulative counter
// cells the data path already publishes into per-interval rates (the delta
// since the previous capture over the interval's length), takes
// per-interval latency percentiles (cumulative histogram deltas), and
// copies whatever health conditions are raised — the signal stream the
// load-adaptive group policies and the operator's scatter-top both consume.
// Like every obs component it is passive and sim-time driven: the
// simulator's monitor tick calls Capture(now_us, monitor); nothing here
// reads a wall clock.

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
    double ops_per_sec = 0;      // store.ops_accepted delta rate
    double bytes_per_sec = 0;    // store.bytes_accepted delta rate
    double commits_per_sec = 0;  // paxos.commits_learned delta rate
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

  // `registry` is not owned and must outlive the recorder.
  explicit TimelineRecorder(MetricsRegistry* registry);

  // Samples one snapshot at simulated time `now_us`: rates cover the
  // interval since the previous capture (since time 0 for the first one).
  // `monitor` supplies the health columns and may be null; the caller ticks
  // it first so its states are as current as the rows they annotate.
  // Idempotent per timestamp.
  void Capture(int64_t now_us, const HealthMonitor* monitor);

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

  MetricsRegistry* registry_;
  int64_t last_capture_us_ = -1;
  std::vector<Snapshot> snapshots_;
  // Previous cumulative values for per-interval deltas.
  std::map<CellKey, uint64_t> prev_counters_;
  std::map<std::pair<NodeId, GroupId>, Histogram> prev_latency_;
};

}  // namespace scatter::obs

#endif  // SCATTER_SRC_OBS_TIMELINE_H_
