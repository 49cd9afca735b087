// Shared utilities for the experiment harnesses: aligned table printing and
// common workload-measurement plumbing. Every bench binary regenerates one
// experiment from DESIGN.md's index and prints the corresponding rows.

#ifndef SCATTER_BENCH_BENCH_UTIL_H_
#define SCATTER_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace scatter::bench {

class Table {
 public:
  Table(std::string title, std::vector<std::string> columns)
      : title_(std::move(title)), columns_(std::move(columns)) {}

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
    std::printf("\n=== %s ===\n", title_.c_str());
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t i = 0; i < columns_.size(); ++i) {
        const std::string& cell = i < row.size() ? row[i] : std::string();
        std::printf("%-*s  ", static_cast<int>(widths[i]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(columns_);
    std::vector<std::string> rule;
    for (size_t w : widths) {
      rule.push_back(std::string(w, '-'));
    }
    print_row(rule);
    for (const auto& row : rows_) {
      print_row(row);
    }
    std::fflush(stdout);
  }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string FmtInt(uint64_t v) { return std::to_string(v); }

inline std::string FmtPct(double fraction, int precision = 2) {
  return Fmt(fraction * 100.0, precision) + "%";
}

inline std::string FmtMs(TimeMicros us, int precision = 2) {
  return Fmt(static_cast<double>(us) / 1000.0, precision);
}

// Schedule digest: simulator events processed and network messages sent,
// summed over every cluster a driver runs. The golden-output drivers end
// their stdout with it, so a change that moves the simulated schedule
// shows in their golden files even when no printed figure moves.
struct ScheduleDigest {
  uint64_t events = 0;
  uint64_t messages = 0;

  // Call once per cluster, after its last RunFor.
  void Add(const sim::Simulator& sim, const sim::Network& net) {
    events += sim.events_processed();
    messages += net.messages_sent();
  }
  void Print() const {
    std::printf("\nschedule: events=%llu messages=%llu\n",
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(messages));
  }
};

// Aggregated commit-path counters (from paxos::Replica::Stats) so batching
// and pipelining wins show up in every bench report. Message counters are
// absorbed from every replica; committed ops are added once per group (the
// group's max over its replicas) so messages-per-committed-op counts each
// client op exactly once.
struct CommitPathSummary {
  uint64_t accept_broadcasts = 0;
  uint64_t accepts_sent = 0;
  uint64_t accept_entries_sent = 0;
  uint64_t acks_sent = 0;
  uint64_t messages_sent = 0;
  uint64_t committed_ops = 0;

  template <typename ReplicaStats>
  void AbsorbReplica(const ReplicaStats& s) {
    accept_broadcasts += s.accept_broadcasts;
    accepts_sent += s.accepts_sent;
    accept_entries_sent += s.accept_entries_sent;
    acks_sent += s.acks_sent;
    messages_sent += s.messages_sent;
  }
  void AddCommittedOps(uint64_t n) { committed_ops += n; }

  double AvgBatch() const {
    return accepts_sent == 0
               ? 0.0
               : static_cast<double>(accept_entries_sent) /
                     static_cast<double>(accepts_sent);
  }
  double MsgsPerCommittedOp() const {
    return committed_ops == 0
               ? 0.0
               : static_cast<double>(messages_sent) /
                     static_cast<double>(committed_ops);
  }

  void Print(const std::string& title) const {
    Table t(title, {"committed", "accepts", "avg_batch", "acks", "msgs",
                    "msgs_per_op"});
    t.AddRow({FmtInt(committed_ops), FmtInt(accepts_sent), Fmt(AvgBatch()),
              FmtInt(acks_sent), FmtInt(messages_sent),
              Fmt(MsgsPerCommittedOp())});
    t.Print();
  }
};

// Flight-recorder export hooks, driven by environment variables so every
// bench binary gets them without per-bench flag plumbing:
//   SCATTER_METRICS_JSON=<path>   append the sim's metrics registry snapshot
//   SCATTER_TRACE_JSON=<path>     write the recorded causal trace (only if
//                                 the bench enabled tracing on the sim)
//   SCATTER_TIMELINE_JSON=<path>  write the scatter.timeline.v1 document
//                                 (only if the bench enabled the timeline)
// Call after the measured run, before tearing the simulator down.
inline void ExportObservability(sim::Simulator& sim) {
  if (const char* path = std::getenv("SCATTER_METRICS_JSON");
      path != nullptr && *path != '\0') {
    std::ofstream out(path, std::ios::app);
    if (out) {
      out << sim.metrics().ToJson() << "\n";
    } else {
      std::fprintf(stderr, "bench: cannot write metrics json to %s\n", path);
    }
  }
  if (const char* path = std::getenv("SCATTER_TRACE_JSON");
      path != nullptr && *path != '\0') {
    if (obs::TraceRecorder* tracer = sim.tracer()) {
      std::ofstream out(path);
      if (out) {
        out << tracer->ToChromeJson();
      } else {
        std::fprintf(stderr, "bench: cannot write trace json to %s\n", path);
      }
    }
  }
  if (const char* path = std::getenv("SCATTER_TIMELINE_JSON");
      path != nullptr && *path != '\0') {
    if (obs::TimelineRecorder* timeline = sim.timeline()) {
      // One final tick at the current instant so the file covers the tail
      // of the run even when it ended mid-period.
      sim.TickMonitors(sim.now());
      std::ofstream out(path);
      if (out) {
        out << timeline->ToJson() << "\n";
      } else {
        std::fprintf(stderr, "bench: cannot write timeline json to %s\n",
                     path);
      }
    }
  }
}

// SCATTER_BENCH_OBS=on asks benchmarks that call this to run with the full
// observability stack live — causal tracing, health monitor and timeline.
// This is the A/B lever scripts/bench_snapshot.sh pulls to record what
// monitoring costs on the commit path; the default (off) leg measures the
// same binary with the stack compiled in but dormant.
inline bool ObsEnabledFromEnv() {
  const char* v = std::getenv("SCATTER_BENCH_OBS");
  return v != nullptr && (std::string(v) == "on" || std::string(v) == "1");
}

// How THIS binary's repo code was compiled. google-benchmark's own
// "library_build_type" context field describes the benchmark *library*
// (the system package is built without NDEBUG, so it always says "debug")
// and says nothing about the code under test. Benchmark mains report this
// via benchmark::AddCustomContext("scatter_build_type", ...), and
// scripts/bench_snapshot.sh refuses to record a baseline unless it reads
// "release".
inline constexpr const char* kScatterBuildType =
#ifdef NDEBUG
    "release";
#else
    "debug";
#endif

inline void Banner(const char* id, const char* what) {
  std::printf("\n##############################################################\n");
  std::printf("## %s — %s\n", id, what);
  std::printf("##############################################################\n");
  std::fflush(stdout);
}

}  // namespace scatter::bench

#endif  // SCATTER_BENCH_BENCH_UTIL_H_
