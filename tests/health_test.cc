// Health-detector tests: per-detector hysteresis against a synthetic
// registry, the simulator's monitor tick driving the monitor, and the two
// acceptance scenarios — a clean seeded run raises nothing (asserted through
// the invariant auditor's "health" property), while a run with an isolated
// replica raises follower_lag within one monitoring window of the lag
// appearing.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/invariant_auditor.h"
#include "src/common/hash.h"
#include "src/core/cluster.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/workload/chirpchat.h"

namespace scatter {
namespace {

using obs::HealthMonitor;
using obs::kMonitorPeriodUs;
using obs::MetricsRegistry;

bool Raised(const HealthMonitor& monitor, const std::string& condition,
            NodeId node, GroupId group) {
  for (const std::string& c : monitor.ActiveFor(node, group)) {
    if (c == condition) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Per-detector hysteresis against a synthetic registry
// ---------------------------------------------------------------------------

TEST(HealthMonitorTest, FollowerLagRaisesWithinOneWindowAndClears) {
  MetricsRegistry reg;
  // follower_lag: raise_after=1, clear_after=2, lag 64
  HealthMonitor monitor(&reg);

  reg.GetGauge("paxos.commit_index", 1, 5).Set(1000);
  reg.GetGauge("paxos.commit_index", 2, 5).Set(995);
  monitor.Tick(kMonitorPeriodUs);
  EXPECT_TRUE(monitor.quiet());

  // Node 2 falls >64 entries behind: raised at the very next tick
  // (raise_after = 1 — "within one monitoring window").
  reg.GetGauge("paxos.commit_index", 1, 5).Set(2000);
  monitor.Tick(2 * kMonitorPeriodUs);
  EXPECT_TRUE(Raised(monitor, "follower_lag", 2, 5));
  EXPECT_FALSE(Raised(monitor, "follower_lag", 1, 5));
  EXPECT_EQ(monitor.raises_total(), 1u);
  EXPECT_EQ(reg.GetGauge("health.follower_lag", 2, 5).value, 1);

  // Catching up clears only after clear_after consecutive healthy windows.
  reg.GetGauge("paxos.commit_index", 2, 5).Set(1990);
  monitor.Tick(3 * kMonitorPeriodUs);
  EXPECT_TRUE(Raised(monitor, "follower_lag", 2, 5));  // 1 good tick < 2
  monitor.Tick(4 * kMonitorPeriodUs);
  EXPECT_FALSE(Raised(monitor, "follower_lag", 2, 5));
  EXPECT_EQ(monitor.clears_total(), 1u);
  EXPECT_EQ(reg.GetGauge("health.follower_lag", 2, 5).value, 0);
}

TEST(HealthMonitorTest, StalledProposerNeedsConsecutiveDryWindows) {
  MetricsRegistry reg;
  // stalled_proposer: raise_after=2
  HealthMonitor monitor(&reg);

  reg.GetGauge("paxos.is_leader", 3, 9).Set(1);
  reg.GetGauge("paxos.proposals_pending", 3, 9).Set(4);
  reg.GetCounter("paxos.entries_committed", 3, 9) += 10;
  monitor.Tick(kMonitorPeriodUs);  // commits flowed: healthy
  EXPECT_TRUE(monitor.quiet());

  // Two windows with pending proposals and zero commit progress.
  monitor.Tick(2 * kMonitorPeriodUs);
  EXPECT_TRUE(monitor.quiet());  // first dry window: streak 1 < 2
  monitor.Tick(3 * kMonitorPeriodUs);
  EXPECT_TRUE(Raised(monitor, "stalled_proposer", 3, 9));

  // Progress resumes: clears after clear_after=1 healthy window.
  reg.GetCounter("paxos.entries_committed", 3, 9) += 4;
  monitor.Tick(4 * kMonitorPeriodUs);
  EXPECT_FALSE(Raised(monitor, "stalled_proposer", 3, 9));
}

TEST(HealthMonitorTest, ElectionChurnRaisesOnBurst) {
  MetricsRegistry reg;
  // election_churn: 3 elections per window
  HealthMonitor monitor(&reg);

  reg.GetCounter("paxos.elections_started", 4, 2) += 1;
  monitor.Tick(kMonitorPeriodUs);
  EXPECT_TRUE(monitor.quiet());  // one election is normal

  reg.GetCounter("paxos.elections_started", 4, 2) += 3;
  monitor.Tick(2 * kMonitorPeriodUs);
  EXPECT_TRUE(Raised(monitor, "election_churn", 4, 2));
}

TEST(HealthMonitorTest, SnapshotStuckRequiresFourWindows) {
  MetricsRegistry reg;
  // snapshot_stuck: raise_after=4
  HealthMonitor monitor(&reg);

  reg.GetGauge("paxos.snapshots_inflight", 5, 3).Set(1);
  for (int i = 1; i <= 3; ++i) {
    monitor.Tick(i * kMonitorPeriodUs);
    EXPECT_TRUE(monitor.quiet()) << "window " << i;
  }
  monitor.Tick(4 * kMonitorPeriodUs);
  EXPECT_TRUE(Raised(monitor, "snapshot_stuck", 5, 3));
}

TEST(HealthMonitorTest, RecoveryStuckRaisesOnLingeringGauge) {
  MetricsRegistry reg;
  // recovery_stuck: raise_after=4, clear_after=1
  HealthMonitor monitor(&reg);

  // WAL replay completes synchronously inside the restart call, so any
  // nonzero recovery.active observed across windows is a wedged or leaked
  // recovery — but only after the hysteresis, not on a single glimpse.
  reg.GetGauge("recovery.active", 7, 0).Set(1);
  for (int i = 1; i <= 3; ++i) {
    monitor.Tick(i * kMonitorPeriodUs);
    EXPECT_TRUE(monitor.quiet()) << "window " << i;
  }
  monitor.Tick(4 * kMonitorPeriodUs);
  EXPECT_TRUE(Raised(monitor, "recovery_stuck", 7, 0));
  EXPECT_EQ(reg.GetGauge("health.recovery_stuck", 7, 0).value, 1);

  // The gauge dropping back to zero clears it after one healthy window.
  reg.GetGauge("recovery.active", 7, 0).Set(0);
  monitor.Tick(5 * kMonitorPeriodUs);
  EXPECT_EQ(reg.GetGauge("health.recovery_stuck", 7, 0).value, 0);
}

TEST(HealthMonitorTest, PoolMissSpikeIsPerNodeAndPerWindow) {
  MetricsRegistry reg;
  // pool_miss_spike: 256 pool misses per window
  HealthMonitor monitor(&reg);

  reg.GetCounter("wire.pool.miss", 1) += 300;
  reg.GetCounter("wire.pool.miss", 2) += 10;
  monitor.Tick(kMonitorPeriodUs);
  // 300 misses in one window crosses the 256 threshold; 10 does not.
  EXPECT_TRUE(Raised(monitor, "pool_miss_spike", 1, 0));
  EXPECT_FALSE(Raised(monitor, "pool_miss_spike", 2, 0));

  // Steady-state hits (no more misses): clears after clear_after=2 windows.
  monitor.Tick(2 * kMonitorPeriodUs);
  EXPECT_TRUE(Raised(monitor, "pool_miss_spike", 1, 0));
  monitor.Tick(3 * kMonitorPeriodUs);
  EXPECT_FALSE(Raised(monitor, "pool_miss_spike", 1, 0));
}

TEST(HealthMonitorTest, TickIsIdempotentPerTimestamp) {
  MetricsRegistry reg;
  HealthMonitor monitor(&reg);

  reg.GetCounter("paxos.elections_started", 1, 1) += 1;
  monitor.Tick(kMonitorPeriodUs);
  EXPECT_TRUE(monitor.quiet());
  reg.GetCounter("paxos.elections_started", 1, 1) += 3;
  // Re-ticking the same instant must not consume the new delta — if it did,
  // the real window below would see 0 and stay quiet.
  monitor.Tick(kMonitorPeriodUs);
  monitor.Tick(kMonitorPeriodUs);
  EXPECT_TRUE(monitor.quiet());
  monitor.Tick(2 * kMonitorPeriodUs);
  EXPECT_TRUE(Raised(monitor, "election_churn", 1, 1));
}

// ---------------------------------------------------------------------------
// Acceptance: clean seeded run is quiet; an isolated replica is detected
// ---------------------------------------------------------------------------

// Drives `ops` sequential client puts, stepping the sim until each lands.
void DrivePuts(core::Cluster& cluster, core::Client* client, int ops,
               const std::string& prefix) {
  for (int i = 0; i < ops; ++i) {
    bool done = false;
    client->Put(KeyFromString(prefix + std::to_string(i)),
                "v" + std::to_string(i), [&done](Status) { done = true; });
    const TimeMicros deadline = cluster.sim().now() + Seconds(15);
    while (!done && cluster.sim().now() < deadline) {
      cluster.sim().RunFor(Millis(2));
    }
    ASSERT_TRUE(done) << "client op hung at #" << i;
  }
}

TEST(HealthIntegrationTest, CleanSeededRunRaisesNothing) {
  core::ClusterConfig cfg;
  cfg.seed = 1234;
  cfg.initial_nodes = 12;
  cfg.initial_groups = 3;
  cfg.enable_health_monitor = true;
  cfg.enable_timeline = true;
  core::Cluster cluster(cfg);

  // The auditor's "health" property turns any raise into a violation; the
  // standard set includes it, so a clean run is asserted continuously, not
  // just at the end.
  analysis::AuditorOptions opts;
  opts.abort_on_violation = false;
  analysis::InvariantAuditor auditor(&cluster, opts);

  cluster.RunFor(Seconds(3));
  DrivePuts(cluster, cluster.AddClient(), 40, "clean");
  cluster.RunFor(Seconds(5));

  const obs::HealthMonitor* monitor = cluster.sim().health_monitor();
  ASSERT_NE(monitor, nullptr);
  EXPECT_TRUE(monitor->quiet())
      << monitor->raises_total() << " raises; first active: "
      << (monitor->ActiveConditions().empty()
              ? "none"
              : monitor->ActiveConditions()[0].condition);
  EXPECT_TRUE(auditor.violations().empty());
  // The timeline recorded load while staying health-silent.
  ASSERT_NE(cluster.sim().timeline(), nullptr);
  EXPECT_GT(cluster.sim().timeline()->snapshots().size(), 10u);
}

TEST(HealthIntegrationTest, CleanChirpChatRunStaysQuiet) {
  // The acceptance bar for detector thresholds: the paper's application
  // workload — skewed, fan-in reads, real concurrency — must not trip any
  // detector on a healthy cluster. If it does, a threshold is tuned to
  // noise, not to faults.
  core::ClusterConfig cfg;
  cfg.seed = 2024;
  cfg.initial_nodes = 10;
  cfg.initial_groups = 2;
  cfg.enable_health_monitor = true;
  cfg.enable_timeline = true;
  core::Cluster cluster(cfg);
  cluster.RunFor(Seconds(2));

  workload::ChirpChatConfig app;
  app.num_users = 200;
  app.num_clients = 4;
  workload::ChirpChatDriver driver(&cluster, app);
  driver.Start();
  cluster.RunFor(Seconds(10));
  driver.Stop();
  cluster.RunFor(Seconds(2));

  EXPECT_GT(driver.stats().posts_ok + driver.stats().timelines_ok, 100u);
  const obs::HealthMonitor* monitor = cluster.sim().health_monitor();
  ASSERT_NE(monitor, nullptr);
  EXPECT_TRUE(monitor->quiet())
      << monitor->raises_total() << " raises; first active: "
      << (monitor->ActiveConditions().empty()
              ? "none"
              : monitor->ActiveConditions()[0].condition);
}

TEST(HealthIntegrationTest, IsolatedReplicaRaisesFollowerLag) {
  core::ClusterConfig cfg;
  cfg.seed = 77;
  cfg.initial_nodes = 6;
  cfg.initial_groups = 1;  // one group: every node replicates every write
  cfg.enable_health_monitor = true;
  core::Cluster cluster(cfg);
  cluster.RunFor(Seconds(3));

  // Pick a follower of the (single) group and cut it off from everyone.
  const ring::GroupInfo info = cluster.AuthoritativeRing().at(0);
  NodeId victim = kInvalidNode;
  for (NodeId member : info.members) {
    if (member != info.leader) {
      victim = member;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode);
  std::vector<NodeId> majority;
  for (NodeId id : cluster.live_node_ids()) {
    if (id != victim) {
      majority.push_back(id);
    }
  }
  core::Client* client = cluster.AddClient();
  majority.push_back(client->id());
  cluster.net().Partition({majority, {victim}});

  // Commit well past the lag threshold (64 entries) on the live majority.
  DrivePuts(cluster, client, 80, "lag");

  const obs::HealthMonitor* monitor = cluster.sim().health_monitor();
  ASSERT_NE(monitor, nullptr);
  // One more monitoring window after the lag exists is all detection needs
  // (follower_lag raise_after = 1).
  cluster.RunFor(2 * kMonitorPeriodUs);
  EXPECT_TRUE(Raised(*monitor, "follower_lag", victim, info.id))
      << "isolated node " << victim << " not flagged; raises="
      << monitor->raises_total();

  // Heal and let the follower catch up: the condition clears.
  cluster.net().HealPartition();
  cluster.RunFor(Seconds(10));
  EXPECT_FALSE(Raised(*monitor, "follower_lag", victim, info.id));
  EXPECT_GE(monitor->clears_total(), 1u);
}

TEST(HealthIntegrationTest, MonitoredRunsAreDeterministicAcrossTransports) {
  // Monitoring reads registry cells and never schedules events, so a seeded
  // run's client-visible history AND its health/timeline output must be
  // bit-identical on every transport. (Wire-level counter cells necessarily
  // differ — the in-process transport serializes nothing — so the
  // comparison is op outcomes + health transitions + group timeline rows.)
  auto run = [](sim::TransportKind kind) {
    core::ClusterConfig cfg;
    cfg.seed = 31;
    cfg.initial_nodes = 9;
    cfg.initial_groups = 3;
    cfg.transport = kind;
    cfg.enable_health_monitor = true;
    cfg.enable_timeline = true;
    core::Cluster cluster(cfg);
    cluster.RunFor(Seconds(3));
    core::Client* client = cluster.AddClient();
    std::vector<std::string> outcomes;
    for (int i = 0; i < 20; ++i) {
      bool done = false;
      client->Put(KeyFromString("det" + std::to_string(i)), "v",
                  [&](Status s) {
                    done = true;
                    outcomes.push_back(std::string(StatusCodeName(s.code())));
                  });
      const TimeMicros deadline = cluster.sim().now() + Seconds(15);
      while (!done && cluster.sim().now() < deadline) {
        cluster.sim().RunFor(Millis(2));
      }
    }
    std::string digest;
    for (const std::string& o : outcomes) {
      digest += o + ";";
    }
    const obs::HealthMonitor* monitor = cluster.sim().health_monitor();
    digest += "raises=" + std::to_string(monitor->raises_total());
    digest += ",clears=" + std::to_string(monitor->clears_total());
    // Group rows come from store/paxos instrumentation, which is identical
    // across transports; node rows carry wire counters, so skip them.
    for (const auto& snap : cluster.sim().timeline()->snapshots()) {
      std::vector<obs::TimelineRecorder::Snapshot> one{snap};
      auto trimmed = one;
      trimmed[0].nodes.clear();
      digest += obs::TimelineRecorder::Serialize(250'000, trimmed);
    }
    return digest;
  };
  const std::string inprocess = run(sim::TransportKind::kInProcess);
  const std::string serializing = run(sim::TransportKind::kSerializing);
  const std::string audit = run(sim::TransportKind::kAudit);
  EXPECT_EQ(inprocess, serializing);
  EXPECT_EQ(inprocess, audit);
}

}  // namespace
}  // namespace scatter
