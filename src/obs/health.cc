#include "src/obs/health.h"

#include <algorithm>
#include <cassert>

namespace scatter::obs {
namespace {

const char kFollowerLag[] = "follower_lag";
const char kStalledProposer[] = "stalled_proposer";
const char kElectionChurn[] = "election_churn";
const char kSnapshotStuck[] = "snapshot_stuck";
const char kPoolMissSpike[] = "pool_miss_spike";
const char kRecoveryStuck[] = "recovery_stuck";

}  // namespace

HealthMonitor::HealthMonitor(const HealthConfig& config,
                             MetricsRegistry* registry)
    : config_(config), registry_(registry) {
  assert(registry_ != nullptr);
  assert(config_.period_us > 0);
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

void HealthMonitor::Observe(const std::string& condition,
                            const HealthConfig::Hysteresis& hysteresis,
                            NodeId node, GroupId group, bool unhealthy,
                            int64_t now_us, TraceRecorder* tracer) {
  Streak& streak = streaks_[CellKey(condition, node, group)];
  if (unhealthy) {
    streak.bad++;
    streak.good = 0;
  } else {
    streak.good++;
    streak.bad = 0;
  }
  if (!streak.active && streak.bad >= hysteresis.raise_after) {
    streak.active = true;
    streak.raised_at_us = now_us;
    raises_total_++;
    registry_->GetGauge("health." + condition, node, group).Set(1);
    if (tracer != nullptr) {
      tracer->AddMarker("health.raise." + condition, node, group);
    }
  } else if (streak.active && streak.good >= hysteresis.clear_after) {
    streak.active = false;
    clears_total_++;
    registry_->GetGauge("health." + condition, node, group).Set(0);
    if (tracer != nullptr) {
      tracer->AddMarker("health.clear." + condition, node, group);
    }
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
            group_max[group] - gauge.value > config_.lag_entries;
        Observe(kFollowerLag, config_.follower_lag, node, group, lagging,
                now_us, tracer);
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
        Observe(kStalledProposer, config_.stalled_proposer, node, group,
                stalled, now_us, tracer);
      });
}

void HealthMonitor::CheckElectionChurn(int64_t now_us, TraceRecorder* tracer) {
  registry_->ForEachCounter(
      "paxos.elections_started",
      [&](NodeId node, GroupId group, const Counter& counter) {
        const uint64_t delta =
            Delta("paxos.elections_started", node, group, counter.value);
        Observe(kElectionChurn, config_.election_churn, node, group,
                delta >= config_.churn_elections, now_us, tracer);
      });
}

void HealthMonitor::CheckSnapshotStuck(int64_t now_us, TraceRecorder* tracer) {
  registry_->ForEachGauge(
      "paxos.snapshots_inflight",
      [&](NodeId node, GroupId group, const Gauge& gauge) {
        Observe(kSnapshotStuck, config_.snapshot_stuck, node, group,
                gauge.value > 0, now_us, tracer);
      });
}

void HealthMonitor::CheckPoolMissSpike(int64_t now_us, TraceRecorder* tracer) {
  registry_->ForEachCounter(
      "wire.pool.miss", [&](NodeId node, GroupId group, const Counter& counter) {
        const uint64_t delta =
            Delta("wire.pool.miss", node, group, counter.value);
        Observe(kPoolMissSpike, config_.pool_miss_spike, node, group,
                delta >= config_.pool_miss_threshold, now_us, tracer);
      });
}

void HealthMonitor::CheckRecoveryStuck(int64_t now_us, TraceRecorder* tracer) {
  // WAL replay on restart completes synchronously inside the restart call;
  // this gauge is only ever observed nonzero when a recovery path wedged
  // mid-replay or leaked its decrement.
  registry_->ForEachGauge(
      "recovery.active", [&](NodeId node, GroupId group, const Gauge& gauge) {
        Observe(kRecoveryStuck, config_.recovery_stuck, node, group,
                gauge.value > 0, now_us, tracer);
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
