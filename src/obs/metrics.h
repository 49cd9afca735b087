// Unified metrics registry: named counters, gauges, and histograms keyed by
// (metric name, node, group) and exported as stable-schema JSON.
//
// Counter and gauge cells live in deque arenas (the name index maps into
// them), so references handed out by find-or-create calls stay valid for the
// registry's lifetime AND cells registered back-to-back — a component's
// Stats constructor binding its whole block — end up adjacent in memory.
// That keeps hot-path increments on the same couple of cache lines they
// would occupy as plain struct members; storing cells inside map nodes
// instead costs ~20% on the Paxos commit microbench. Components bind
// references once at construction (e.g. Replica::Stats) and then increment
// them with plain integer operations — no lookup on the hot path. Cells
// outlive the objects that register them, so counters are cumulative across
// replica restarts on the same (node, group).

#ifndef SCATTER_SRC_OBS_METRICS_H_
#define SCATTER_SRC_OBS_METRICS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <tuple>

#include "src/common/histogram.h"
#include "src/common/types.h"

namespace scatter::obs {

// A point-in-time level (queue depth, hosted group count, ...). Distinct
// from Counter so the JSON export can label semantics.
struct Gauge {
  int64_t value = 0;
  void Set(int64_t v) { value = v; }
  void Add(int64_t delta) { value += delta; }
  operator int64_t() const { return value; }  // NOLINT(google-explicit-constructor)
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  // The index maps point into the arenas; a copy would leave the new maps
  // pointing at the old registry's cells.
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Metric names are dotted lowercase paths, "<component>.<event>"
  // (e.g. "paxos.accepts_sent", "txn.phase.preparing"). node/group scope the
  // cell; use group 0 for node-wide metrics and node 0 for cluster-wide ones.
  Counter& GetCounter(const std::string& name, NodeId node = 0,
                      GroupId group = 0);
  Gauge& GetGauge(const std::string& name, NodeId node = 0, GroupId group = 0);
  Histogram& GetHistogram(const std::string& name, NodeId node = 0,
                          GroupId group = 0);

  // Read-side iteration for monitors/exporters: visits every cell whose
  // metric name equals `name`, in (node, group) order. Deterministic
  // (backed by the ordered index maps).
  void ForEachCounter(
      const std::string& name,
      const std::function<void(NodeId, GroupId, const Counter&)>& fn) const;
  void ForEachGauge(
      const std::string& name,
      const std::function<void(NodeId, GroupId, const Gauge&)>& fn) const;
  void ForEachHistogram(
      const std::string& name,
      const std::function<void(NodeId, GroupId, const Histogram&)>& fn) const;

  // Point lookups that do NOT create the cell; nullptr when absent.
  const Counter* FindCounter(const std::string& name, NodeId node = 0,
                             GroupId group = 0) const;
  const Gauge* FindGauge(const std::string& name, NodeId node = 0,
                         GroupId group = 0) const;

  // Stable-schema JSON:
  //   {"schema":"scatter.metrics.v1",
  //    "counters":[{"name":...,"node":N,"group":G,"value":V},...],
  //    "gauges":[...same with "value"...],
  //    "histograms":[{"name":...,"node":N,"group":G,"hist":{...}},...]}
  // Arrays are ordered by (name, node, group), so equal registries produce
  // byte-identical exports.
  std::string ToJson() const;

  size_t counter_cells() const { return counters_.size(); }

 private:
  using Key = std::tuple<std::string, NodeId, GroupId>;

  // Cell values live in the arenas (deque: stable addresses, chunked
  // contiguous allocation); the maps are the name index over them.
  // Histograms are cold (one Record per op at most) and large, so they stay
  // in the map directly.
  std::deque<Counter> counter_arena_;
  std::deque<Gauge> gauge_arena_;
  std::map<Key, Counter*> counters_;
  std::map<Key, Gauge*> gauges_;
  std::map<Key, Histogram> histograms_;
};

}  // namespace scatter::obs

#endif  // SCATTER_SRC_OBS_METRICS_H_
