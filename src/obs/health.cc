#include "src/obs/health.h"

#include <algorithm>
#include <cassert>

namespace scatter::obs {

// Hysteresis, in consecutive windows. raise_after=1 means "raises within
// one monitoring window of the signal appearing".
struct HealthDetector {
  const char* condition;
  int raise_after;
  int clear_after;
};

namespace {

constexpr HealthDetector kFollowerLag{"follower_lag", 1, 2};
// A proposer with in-flight proposals legitimately commits nothing for the
// tail of a window; require two consecutive dry windows before raising.
constexpr HealthDetector kStalledProposer{"stalled_proposer", 2, 1};
constexpr HealthDetector kElectionChurn{"election_churn", 1, 2};
// In-flight snapshots are normal; only a transfer pinned across several
// windows is stuck.
constexpr HealthDetector kSnapshotStuck{"snapshot_stuck", 4, 1};
constexpr HealthDetector kPoolMissSpike{"pool_miss_spike", 1, 2};
constexpr HealthDetector kRecoveryStuck{"recovery_stuck", 4, 1};

// follower_lag: entries a follower's commit index may trail the group max.
constexpr int64_t kLagEntries = 64;
// election_churn: elections started within one window to count as churn.
constexpr uint64_t kChurnElections = 3;
// pool_miss_spike: pool misses on one node within one window.
constexpr uint64_t kPoolMissThreshold = 256;

}  // namespace

HealthMonitor::HealthMonitor(MetricsRegistry* registry) : registry_(registry) {
  assert(registry_ != nullptr);
}

void HealthMonitor::Tick(int64_t now_us, TraceRecorder* tracer) {
  if (now_us <= last_tick_us_) return;  // idempotent per timestamp
  last_tick_us_ = now_us;
  // Detector order is fixed so raise/clear markers and gauge creation are
  // deterministic run-to-run.
  CheckFollowerLag(now_us, tracer);
  CheckStalledProposer(now_us, tracer);
  CheckElectionChurn(now_us, tracer);
  CheckSnapshotStuck(now_us, tracer);
  CheckPoolMissSpike(now_us, tracer);
  CheckRecoveryStuck(now_us, tracer);
}

void HealthMonitor::Observe(const HealthDetector& detector, NodeId node,
                            GroupId group, bool unhealthy, int64_t now_us,
                            TraceRecorder* tracer) {
  const std::string condition = detector.condition;
  Streak& streak = streaks_[CellKey(condition, node, group)];
  if (unhealthy) {
    streak.bad++;
    streak.good = 0;
  } else {
    streak.good++;
    streak.bad = 0;
  }
  if (!streak.active && streak.bad >= detector.raise_after) {
    streak.active = true;
    streak.raised_at_us = now_us;
    raises_total_++;
    registry_->GetGauge("health." + condition, node, group).Set(1);
    AddMarker(tracer, "health.raise." + condition, node, group);
  } else if (streak.active && streak.good >= detector.clear_after) {
    streak.active = false;
    clears_total_++;
    registry_->GetGauge("health." + condition, node, group).Set(0);
    AddMarker(tracer, "health.clear." + condition, node, group);
  }
}

uint64_t HealthMonitor::Delta(const std::string& name, NodeId node,
                              GroupId group, uint64_t current) {
  uint64_t& prev = prev_counters_[CellKey(name, node, group)];
  const uint64_t delta = current >= prev ? current - prev : 0;
  prev = current;
  return delta;
}

void HealthMonitor::CheckFollowerLag(int64_t now_us, TraceRecorder* tracer) {
  // Pass 1: group-wide max commit index; pass 2: per-replica lag against it.
  std::map<GroupId, int64_t> group_max;
  registry_->ForEachGauge(
      "paxos.commit_index", [&](NodeId, GroupId group, const Gauge& gauge) {
        auto [it, inserted] = group_max.try_emplace(group, gauge.value);
        if (!inserted) it->second = std::max(it->second, gauge.value);
      });
  registry_->ForEachGauge(
      "paxos.commit_index",
      [&](NodeId node, GroupId group, const Gauge& gauge) {
        const bool lagging =
            group_max[group] - gauge.value > kLagEntries;
        Observe(kFollowerLag, node, group, lagging, now_us, tracer);
      });
}

void HealthMonitor::CheckStalledProposer(int64_t now_us,
                                         TraceRecorder* tracer) {
  registry_->ForEachGauge(
      "paxos.is_leader", [&](NodeId node, GroupId group, const Gauge& leader) {
        const Gauge* pending =
            registry_->FindGauge("paxos.proposals_pending", node, group);
        const Counter* committed =
            registry_->FindCounter("paxos.entries_committed", node, group);
        const uint64_t commit_delta =
            committed == nullptr
                ? 0
                : Delta("paxos.entries_committed", node, group,
                        committed->value);
        const bool stalled = leader.value != 0 && pending != nullptr &&
                             pending->value > 0 && commit_delta == 0;
        Observe(kStalledProposer, node, group, stalled, now_us, tracer);
      });
}

void HealthMonitor::CheckElectionChurn(int64_t now_us, TraceRecorder* tracer) {
  registry_->ForEachCounter(
      "paxos.elections_started",
      [&](NodeId node, GroupId group, const Counter& counter) {
        const uint64_t delta =
            Delta("paxos.elections_started", node, group, counter.value);
        Observe(kElectionChurn, node, group, delta >= kChurnElections, now_us,
                tracer);
      });
}

void HealthMonitor::CheckSnapshotStuck(int64_t now_us, TraceRecorder* tracer) {
  registry_->ForEachGauge(
      "paxos.snapshots_inflight",
      [&](NodeId node, GroupId group, const Gauge& gauge) {
        Observe(kSnapshotStuck, node, group, gauge.value > 0, now_us, tracer);
      });
}

void HealthMonitor::CheckPoolMissSpike(int64_t now_us, TraceRecorder* tracer) {
  registry_->ForEachCounter(
      "wire.pool.miss", [&](NodeId node, GroupId group, const Counter& counter) {
        const uint64_t delta =
            Delta("wire.pool.miss", node, group, counter.value);
        Observe(kPoolMissSpike, node, group, delta >= kPoolMissThreshold,
                now_us, tracer);
      });
}

void HealthMonitor::CheckRecoveryStuck(int64_t now_us, TraceRecorder* tracer) {
  // WAL replay on restart completes synchronously inside the restart call;
  // this gauge is only ever observed nonzero when a recovery path wedged
  // mid-replay or leaked its decrement.
  registry_->ForEachGauge(
      "recovery.active", [&](NodeId node, GroupId group, const Gauge& gauge) {
        Observe(kRecoveryStuck, node, group, gauge.value > 0, now_us, tracer);
      });
}

std::vector<HealthMonitor::ActiveCondition> HealthMonitor::ActiveConditions()
    const {
  std::vector<ActiveCondition> out;
  for (const auto& [key, streak] : streaks_) {
    if (!streak.active) continue;
    out.push_back(ActiveCondition{std::get<0>(key), std::get<1>(key),
                                  std::get<2>(key), streak.raised_at_us});
  }
  // streaks_ is ordered by (condition, node, group) already.
  return out;
}

std::vector<std::string> HealthMonitor::ActiveFor(NodeId node,
                                                  GroupId group) const {
  std::vector<std::string> out;
  for (const auto& [key, streak] : streaks_) {
    if (streak.active && std::get<1>(key) == node && std::get<2>(key) == group) {
      out.push_back(std::get<0>(key));
    }
  }
  return out;
}

}  // namespace scatter::obs
