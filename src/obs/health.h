// Health detectors: periodic derivation of per-node/per-group conditions
// from metrics registry cells, with hysteresis.
//
// The monitor is passive and sim-time driven: the simulator (or a test)
// calls Tick(now_us) at a fixed period; the monitor never reads a wall
// clock, never schedules anything itself, and touches only registry cells —
// so it composes with determinism the same way every other obs component
// does (the obs layer cannot even include sim/). Detection is
// Spinnaker-style: replica lag, leader liveness, and churn signals derived
// from state the data path already publishes, so the detectors cost nothing
// on the hot path.
//
// Each condition instance is keyed (condition, node, group) and passes
// through a streak-based hysteresis: `raise_after` consecutive unhealthy
// ticks to raise, `clear_after` consecutive healthy ticks to clear (both
// fixed per detector in health.cc). Raised conditions are exported three
// ways: a `health.<condition>` gauge (1/0) in the registry, an
// unconditional trace marker (`health.raise.<condition>` /
// `health.clear.<condition>`), and the ActiveConditions() snapshot the obs
// timeline and scatter-top read.
//
// Catalogue (inputs -> condition):
//   follower_lag     max(paxos.commit_index) over group minus this node's
//                    exceeds 64 entries
//   stalled_proposer is_leader && proposals_pending > 0 && no
//                    entries_committed delta this window
//   election_churn   elections_started delta >= 3 in a window
//   snapshot_stuck   snapshots_inflight > 0 for raise_after windows
//   pool_miss_spike  wire.pool.miss delta >= 256 in a window
//   recovery_stuck   recovery.active > 0 for raise_after windows (WAL
//                    replay on restart is synchronous, so a lingering
//                    nonzero gauge means a recovery path wedged or leaked)

#ifndef SCATTER_SRC_OBS_HEALTH_H_
#define SCATTER_SRC_OBS_HEALTH_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace scatter::obs {

// Monitoring window: the period the simulator ticks the health monitor and
// captures the timeline at. Also the denominator of every "per window"
// threshold in health.cc.
inline constexpr int64_t kMonitorPeriodUs = 250'000;

// One detector's condition name and hysteresis (defined in health.cc).
struct HealthDetector;

class HealthMonitor {
 public:
  struct ActiveCondition {
    std::string condition;
    NodeId node = 0;
    GroupId group = 0;
    int64_t raised_at_us = 0;
  };

  explicit HealthMonitor(MetricsRegistry* registry);

  // Evaluates every detector at simulated time `now_us`. Idempotent per
  // timestamp (a second call with the same now_us is a no-op), so an
  // exporter's final tick at a boundary already ticked does not
  // double-count a window. `tracer` may be null.
  void Tick(int64_t now_us, TraceRecorder* tracer = nullptr);

  // Currently-raised conditions, ordered (condition, node, group).
  std::vector<ActiveCondition> ActiveConditions() const;
  // Condition names active for one (node, group) cell, sorted. Node-scoped
  // conditions (group == 0) are reported for group 0 only.
  std::vector<std::string> ActiveFor(NodeId node, GroupId group) const;

  // Lifetime transition counts. A condition that raised and cleared between
  // two observations still shows in raises_total() — this is what the
  // invariant auditor's quiet-run check reads.
  uint64_t raises_total() const { return raises_total_; }
  uint64_t clears_total() const { return clears_total_; }
  bool quiet() const { return raises_total_ == 0; }

 private:
  // One hysteresis state machine per (condition, node, group).
  struct Streak {
    int bad = 0;
    int good = 0;
    bool active = false;
    int64_t raised_at_us = 0;
  };
  using CellKey = std::tuple<std::string, NodeId, GroupId>;

  // Feeds one observation into the streak for (condition, node, group) and
  // performs the raise/clear transition, exports included.
  void Observe(const HealthDetector& detector, NodeId node, GroupId group,
               bool unhealthy, int64_t now_us, TraceRecorder* tracer);

  // Counter delta since the previous tick. A cell first seen now yields its
  // full count: it was born after the previous tick, so all of it is new.
  uint64_t Delta(const std::string& name, NodeId node, GroupId group,
                 uint64_t current);

  void CheckFollowerLag(int64_t now_us, TraceRecorder* tracer);
  void CheckStalledProposer(int64_t now_us, TraceRecorder* tracer);
  void CheckElectionChurn(int64_t now_us, TraceRecorder* tracer);
  void CheckSnapshotStuck(int64_t now_us, TraceRecorder* tracer);
  void CheckPoolMissSpike(int64_t now_us, TraceRecorder* tracer);
  void CheckRecoveryStuck(int64_t now_us, TraceRecorder* tracer);

  MetricsRegistry* registry_;
  int64_t last_tick_us_ = -1;
  std::map<CellKey, Streak> streaks_;
  std::map<CellKey, uint64_t> prev_counters_;
  uint64_t raises_total_ = 0;
  uint64_t clears_total_ = 0;
};

}  // namespace scatter::obs

#endif  // SCATTER_SRC_OBS_HEALTH_H_
