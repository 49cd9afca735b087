// scatter-top: renders cluster load & health — per-group op/commit rates,
// interval latency percentiles and active health conditions — as an aligned
// terminal table, from either source of the same data:
//
//   scatter_top <timeline.json>        file mode: a recorded
//                                      scatter.timeline.v1 document (written
//                                      by trace_demo, or any bench run with
//                                      SCATTER_TIMELINE_JSON=<path>)
//   scatter_top --live [seconds]       live mode: boots a small simulated
//                                      cluster with the health monitor and
//                                      timeline enabled, drives client load,
//                                      and renders the in-process registry's
//                                      snapshots as they are captured
//
// File mode prints one summary block: per-(group, node) average and peak
// rates over the whole recording, the final interval's p50/p99, and every
// health condition that was active in any snapshot. `--last` renders only
// the final snapshot instead (what a live top would show at exit).
//
// Exit status: 0 on success, 1 on unreadable/invalid input, 2 on usage.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/core/client.h"
#include "src/core/cluster.h"
#include "src/obs/health.h"
#include "src/obs/timeline.h"

namespace scatter {
namespace {

using obs::TimelineRecorder;

// --------------------------------------------------------------------------
// Table rendering
// --------------------------------------------------------------------------

class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(columns_.size());
    for (size_t i = 0; i < columns_.size(); ++i) {
      widths[i] = columns_[i].size();
    }
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t i = 0; i < columns_.size(); ++i) {
        const std::string& cell = i < row.size() ? row[i] : std::string();
        std::printf("%-*s  ", static_cast<int>(widths[i]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(columns_);
    std::vector<std::string> rule;
    rule.reserve(widths.size());
    for (size_t w : widths) {
      rule.push_back(std::string(w, '-'));
    }
    print_row(rule);
    for (const auto& row : rows_) {
      print_row(row);
    }
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

std::string Fmt(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string JoinHealth(const std::set<std::string>& conditions) {
  if (conditions.empty()) {
    return "ok";
  }
  std::string out;
  for (const std::string& c : conditions) {
    if (!out.empty()) {
      out += ",";
    }
    out += c;
  }
  return out;
}

// --------------------------------------------------------------------------
// Rendering a parsed timeline
// --------------------------------------------------------------------------

// Per-(group, node) aggregation across the rendered snapshot range.
struct GroupAgg {
  double sum_ops = 0, peak_ops = 0;
  double sum_bytes = 0;
  double sum_commits = 0;
  int64_t last_p50 = 0, last_p99 = 0;
  size_t intervals = 0;
  std::set<std::string> health;
};

struct NodeAgg {
  double sum_frames = 0;
  double sum_wire_bytes = 0;
  double sum_pool_miss = 0;
  size_t intervals = 0;
  std::set<std::string> health;
};

void Render(const TimelineRecorder::Parsed& parsed, bool last_only) {
  if (parsed.snapshots.empty()) {
    std::printf("scatter-top: timeline has no snapshots\n");
    return;
  }
  const size_t begin = last_only ? parsed.snapshots.size() - 1 : 0;
  const TimelineRecorder::Snapshot& last = parsed.snapshots.back();

  std::map<std::pair<GroupId, NodeId>, GroupAgg> groups;
  std::map<NodeId, NodeAgg> nodes;
  for (size_t i = begin; i < parsed.snapshots.size(); ++i) {
    for (const TimelineRecorder::GroupRow& row : parsed.snapshots[i].groups) {
      GroupAgg& agg = groups[{row.group, row.node}];
      agg.sum_ops += row.ops_per_sec;
      agg.peak_ops = std::max(agg.peak_ops, row.ops_per_sec);
      agg.sum_bytes += row.bytes_per_sec;
      agg.sum_commits += row.commits_per_sec;
      if (row.p99_us > 0) {
        // Keep the latest interval that actually measured ops; idle
        // intervals report 0 and would erase the signal.
        agg.last_p50 = row.p50_us;
        agg.last_p99 = row.p99_us;
      }
      agg.intervals++;
      agg.health.insert(row.health.begin(), row.health.end());
    }
    for (const TimelineRecorder::NodeRow& row : parsed.snapshots[i].nodes) {
      NodeAgg& agg = nodes[row.node];
      agg.sum_frames += row.frames_per_sec;
      agg.sum_wire_bytes += row.wire_bytes_per_sec;
      agg.sum_pool_miss += row.pool_miss_per_sec;
      agg.intervals++;
      agg.health.insert(row.health.begin(), row.health.end());
    }
  }

  const double span_s =
      static_cast<double>(last.ts_us - parsed.snapshots.front().ts_us) / 1e6;
  std::printf("scatter-top: %zu snapshots, period %.0f ms, span %.1f s%s\n\n",
              parsed.snapshots.size(),
              static_cast<double>(parsed.period_us) / 1e3, span_s,
              last_only ? " (rendering last snapshot only)" : "");

  Table gt({"group", "node", "ops/s", "peak", "bytes/s", "commits/s",
            "p50_us", "p99_us", "health"});
  for (const auto& [key, agg] : groups) {
    const double n = static_cast<double>(agg.intervals);
    gt.AddRow({std::to_string(key.first), std::to_string(key.second),
               Fmt(agg.sum_ops / n), Fmt(agg.peak_ops),
               Fmt(agg.sum_bytes / n, 0), Fmt(agg.sum_commits / n),
               std::to_string(agg.last_p50), std::to_string(agg.last_p99),
               JoinHealth(agg.health)});
  }
  gt.Print();

  if (!nodes.empty()) {
    std::printf("\n");
    Table nt({"node", "frames/s", "wire_bytes/s", "pool_miss/s", "health"});
    for (const auto& [node, agg] : nodes) {
      const double n = static_cast<double>(agg.intervals);
      nt.AddRow({std::to_string(node), Fmt(agg.sum_frames / n, 0),
                 Fmt(agg.sum_wire_bytes / n, 0), Fmt(agg.sum_pool_miss / n),
                 JoinHealth(agg.health)});
    }
    nt.Print();
  }
}

// --------------------------------------------------------------------------
// File mode
// --------------------------------------------------------------------------

int RunFile(const std::string& path, bool last_only) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "scatter-top: cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  TimelineRecorder::Parsed parsed;
  if (!TimelineRecorder::Parse(buffer.str(), &parsed)) {
    std::fprintf(stderr,
                 "scatter-top: %s is not a valid scatter.timeline.v1 "
                 "document\n",
                 path.c_str());
    return 1;
  }
  Render(parsed, last_only);
  return 0;
}

// --------------------------------------------------------------------------
// Live mode: in-process cluster, rendered from the live registry
// --------------------------------------------------------------------------

int RunLive(int seconds) {
  core::ClusterConfig cfg;
  cfg.seed = 7;
  cfg.initial_nodes = 12;
  cfg.initial_groups = 3;
  cfg.enable_health_monitor = true;
  cfg.enable_timeline = true;
  core::Cluster cluster(cfg);
  cluster.RunFor(Seconds(2));

  // A modest closed loop of client writes/reads so the rate columns move.
  core::Client* client = cluster.AddClient();
  uint64_t issued = 0;
  std::function<void()> issue = [&]() {
    const Key key = KeyFromString("live" + std::to_string(issued % 64));
    issued++;
    if (issued % 4 == 0) {
      client->Get(key, [&issue](StatusOr<Value>) { issue(); });
    } else {
      client->Put(key, "v" + std::to_string(issued),
                  [&issue](Status) { issue(); });
    }
  };
  for (int i = 0; i < 8; ++i) {
    issue();
  }

  for (int s = 0; s < seconds; ++s) {
    cluster.RunFor(Seconds(1));
    std::printf("\n--- t=%ds (%llu ops issued) ---\n", s + 1,
                static_cast<unsigned long long>(issued));
    TimelineRecorder::Parsed live;
    live.period_us = obs::kMonitorPeriodUs;
    live.snapshots = cluster.sim().timeline()->snapshots();
    Render(live, /*last_only=*/true);
  }
  const obs::HealthMonitor* monitor = cluster.sim().health_monitor();
  std::printf("\nscatter-top: live run done — %llu raises, %llu clears\n",
              static_cast<unsigned long long>(monitor->raises_total()),
              static_cast<unsigned long long>(monitor->clears_total()));
  return 0;
}

}  // namespace
}  // namespace scatter

int main(int argc, char** argv) {
  bool last_only = false;
  bool live = false;
  int live_seconds = 10;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--last") == 0) {
      last_only = true;
    } else if (std::strcmp(argv[i], "--live") == 0) {
      live = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        live_seconds = std::atoi(argv[++i]);
      }
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "usage: scatter_top <timeline.json> [--last]\n"
                           "       scatter_top --live [seconds]\n");
      return 2;
    } else {
      path = argv[i];
    }
  }
  if (live) {
    return scatter::RunLive(live_seconds);
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: scatter_top <timeline.json> [--last]\n"
                         "       scatter_top --live [seconds]\n");
    return 2;
  }
  return scatter::RunFile(path, last_only);
}
