#include "src/obs/timeline.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/common/json.h"

namespace scatter::obs {
namespace {

// Ring bound: once reached, the oldest snapshot is dropped. 4096 covers
// ~17 simulated minutes at kMonitorPeriodUs.
constexpr size_t kMaxSnapshots = 4096;
static_assert(kMaxSnapshots > 0);

void AppendHealth(std::string* out, const std::vector<std::string>& health) {
  *out += "\"health\":[";
  for (size_t i = 0; i < health.size(); ++i) {
    if (i) *out += ",";
    json::AppendString(out, health[i]);
  }
  *out += "]";
}

bool ReadHealth(const json::Value& row, std::vector<std::string>* out) {
  const json::Value* health = row.Find("health");
  if (health == nullptr || !health->is_array()) return false;
  for (const json::Value& h : health->array) {
    if (!h.is_string()) return false;
    out->push_back(h.text);
  }
  return true;
}

bool ReadNumber(const json::Value& row, const char* key, double* out) {
  const json::Value* v = row.Find(key);
  return v != nullptr && v->AsDouble(out);
}

bool ReadI64(const json::Value& row, const char* key, int64_t* out) {
  const json::Value* v = row.Find(key);
  return v != nullptr && v->AsI64(out);
}

}  // namespace

TimelineRecorder::TimelineRecorder(MetricsRegistry* registry)
    : registry_(registry) {
  assert(registry_ != nullptr);
}

void TimelineRecorder::Capture(int64_t now_us, const HealthMonitor* monitor) {
  if (now_us <= last_capture_us_) return;  // idempotent per timestamp
  const int64_t dt_us =
      last_capture_us_ < 0 ? std::max<int64_t>(now_us, 1)
                           : now_us - last_capture_us_;
  last_capture_us_ = now_us;

  Snapshot snap;
  snap.ts_us = now_us;

  // Per-second rate of one counter cell over this interval. A cell first
  // seen now contributes its whole count: it was born during the interval.
  auto delta_of = [&](const std::string& name, NodeId node, GroupId group,
                      uint64_t current) -> double {
    uint64_t& prev = prev_counters_[CellKey(name, node, group)];
    const uint64_t delta = current >= prev ? current - prev : 0;
    prev = current;
    return static_cast<double>(delta) * 1e6 / static_cast<double>(dt_us);
  };

  // Group rows: the union of (group, node) cells carrying store or paxos
  // load counters or latency samples, ordered (group, node).
  std::map<std::pair<GroupId, NodeId>, GroupRow> groups;
  auto group_row = [&](NodeId node, GroupId group) -> GroupRow& {
    GroupRow& row = groups[{group, node}];
    row.group = group;
    row.node = node;
    return row;
  };
  auto group_rate = [&](const std::string& name, double GroupRow::*field) {
    registry_->ForEachCounter(
        name, [&](NodeId node, GroupId group, const Counter& c) {
          group_row(node, group).*field = delta_of(name, node, group, c.value);
        });
  };
  group_rate("store.ops_accepted", &GroupRow::ops_per_sec);
  group_rate("store.bytes_accepted", &GroupRow::bytes_per_sec);
  group_rate("paxos.commits_learned", &GroupRow::commits_per_sec);
  registry_->ForEachHistogram(
      "store.op.latency_us",
      [&](NodeId node, GroupId group, const Histogram& hist) {
        Histogram& prev = prev_latency_[{node, group}];
        const Histogram delta = hist.DeltaSince(prev);
        prev = hist;
        if (delta.count() == 0) return;
        GroupRow& row = group_row(node, group);
        row.p50_us = delta.Percentile(50);
        row.p99_us = delta.Percentile(99);
      });
  for (auto& [key, row] : groups) {
    if (monitor != nullptr) {
      row.health = monitor->ActiveFor(row.node, row.group);
    }
    snap.groups.push_back(std::move(row));
  }

  // Node rows: transport-level counters, per interval.
  std::map<NodeId, NodeRow> nodes;
  auto node_rate = [&](const std::string& name, double NodeRow::*field) {
    registry_->ForEachCounter(
        name, [&](NodeId node, GroupId group, const Counter& c) {
          NodeRow& row = nodes[node];
          row.node = node;
          row.*field = delta_of(name, node, group, c.value);
        });
  };
  node_rate("wire.frames_serialized", &NodeRow::frames_per_sec);
  node_rate("wire.bytes_serialized", &NodeRow::wire_bytes_per_sec);
  node_rate("wire.pool.miss", &NodeRow::pool_miss_per_sec);
  for (auto& [node, row] : nodes) {
    if (monitor != nullptr) row.health = monitor->ActiveFor(node, 0);
    snap.nodes.push_back(std::move(row));
  }

  if (snapshots_.size() >= kMaxSnapshots) {
    snapshots_.erase(snapshots_.begin());
  }
  snapshots_.push_back(std::move(snap));
}

std::string TimelineRecorder::Serialize(
    int64_t period_us, const std::vector<Snapshot>& snapshots) {
  std::string out = "{\"schema\":\"scatter.timeline.v1\",";
  json::AppendI64(&out, "period_us", period_us);
  out += ",\"snapshots\":[";
  bool first_snap = true;
  for (const Snapshot& snap : snapshots) {
    if (!first_snap) out += ",";
    first_snap = false;
    out += "{";
    json::AppendI64(&out, "ts_us", snap.ts_us);
    out += ",\"groups\":[";
    bool first = true;
    for (const GroupRow& row : snap.groups) {
      if (!first) out += ",";
      first = false;
      out += "{";
      json::AppendI64(&out, "group", static_cast<int64_t>(row.group));
      out += ",";
      json::AppendI64(&out, "node", static_cast<int64_t>(row.node));
      out += ",";
      json::AppendDouble(&out, "ops_per_sec", row.ops_per_sec);
      out += ",";
      json::AppendDouble(&out, "bytes_per_sec", row.bytes_per_sec);
      out += ",";
      json::AppendDouble(&out, "commits_per_sec", row.commits_per_sec);
      out += ",";
      json::AppendI64(&out, "p50_us", row.p50_us);
      out += ",";
      json::AppendI64(&out, "p99_us", row.p99_us);
      out += ",";
      AppendHealth(&out, row.health);
      out += "}";
    }
    out += "],\"nodes\":[";
    first = true;
    for (const NodeRow& row : snap.nodes) {
      if (!first) out += ",";
      first = false;
      out += "{";
      json::AppendI64(&out, "node", static_cast<int64_t>(row.node));
      out += ",";
      json::AppendDouble(&out, "frames_per_sec", row.frames_per_sec);
      out += ",";
      json::AppendDouble(&out, "wire_bytes_per_sec", row.wire_bytes_per_sec);
      out += ",";
      json::AppendDouble(&out, "pool_miss_per_sec", row.pool_miss_per_sec);
      out += ",";
      AppendHealth(&out, row.health);
      out += "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string TimelineRecorder::ToJson() const {
  return Serialize(kMonitorPeriodUs, snapshots_);
}

bool TimelineRecorder::Parse(const std::string& text, Parsed* out) {
  json::Value root;
  if (!json::Parse(text, &root) || !root.is_object()) {
    return false;
  }
  const json::Value* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->text != "scatter.timeline.v1") {
    return false;
  }
  if (!ReadI64(root, "period_us", &out->period_us) || out->period_us <= 0) {
    return false;
  }
  const json::Value* snapshots = root.Find("snapshots");
  if (snapshots == nullptr || !snapshots->is_array()) return false;
  out->snapshots.clear();
  for (const json::Value& jsnap : snapshots->array) {
    if (!jsnap.is_object()) return false;
    Snapshot snap;
    if (!ReadI64(jsnap, "ts_us", &snap.ts_us)) return false;
    const json::Value* groups = jsnap.Find("groups");
    const json::Value* nodes = jsnap.Find("nodes");
    if (groups == nullptr || !groups->is_array() || nodes == nullptr ||
        !nodes->is_array()) {
      return false;
    }
    for (const json::Value& jrow : groups->array) {
      if (!jrow.is_object()) return false;
      GroupRow row;
      int64_t group = 0, node = 0;
      if (!ReadI64(jrow, "group", &group) || !ReadI64(jrow, "node", &node) ||
          !ReadNumber(jrow, "ops_per_sec", &row.ops_per_sec) ||
          !ReadNumber(jrow, "bytes_per_sec", &row.bytes_per_sec) ||
          !ReadNumber(jrow, "commits_per_sec", &row.commits_per_sec) ||
          !ReadI64(jrow, "p50_us", &row.p50_us) ||
          !ReadI64(jrow, "p99_us", &row.p99_us) ||
          !ReadHealth(jrow, &row.health)) {
        return false;
      }
      row.group = static_cast<GroupId>(group);
      row.node = static_cast<NodeId>(node);
      snap.groups.push_back(std::move(row));
    }
    for (const json::Value& jrow : nodes->array) {
      if (!jrow.is_object()) return false;
      NodeRow row;
      int64_t node = 0;
      if (!ReadI64(jrow, "node", &node) ||
          !ReadNumber(jrow, "frames_per_sec", &row.frames_per_sec) ||
          !ReadNumber(jrow, "wire_bytes_per_sec", &row.wire_bytes_per_sec) ||
          !ReadNumber(jrow, "pool_miss_per_sec", &row.pool_miss_per_sec) ||
          !ReadHealth(jrow, &row.health)) {
        return false;
      }
      row.node = static_cast<NodeId>(node);
      snap.nodes.push_back(std::move(row));
    }
    out->snapshots.push_back(std::move(snap));
  }
  return true;
}

}  // namespace scatter::obs
