// Extended Paxos stress tests: membership-change chaos, lease behavior
// with injected clock skew, and log-truncation interplay with elections.

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/invariant_auditor.h"
#include "src/core/cluster.h"
#include "src/verify/linearizability.h"
#include "src/workload/workload.h"
#include "tests/paxos_harness.h"

namespace scatter::paxos {
namespace {

using testing::PaxosCluster;
using testing::PaxosTestNode;
using testing::SeqCommand;

// --- Membership chaos: repeated add/remove under loss ----------------------

struct ReconfigParam {
  uint64_t seed;
  double loss;
};

class ReconfigChaosSweep : public ::testing::TestWithParam<ReconfigParam> {};

TEST_P(ReconfigChaosSweep, MembershipChurnPreservesSafety) {
  const ReconfigParam param = GetParam();
  PaxosCluster cluster(5, param.seed);
  cluster.net().set_loss_rate(param.loss);
  Rng chaos(param.seed * 13 + 1);

  uint64_t next_value = 1;
  NodeId next_node_id = 100;
  std::vector<uint64_t> committed;
  std::vector<NodeId> removable;  // spawned members we may remove again

  for (int round = 0; round < 10; ++round) {
    // Interleave writes with membership changes.
    const uint64_t v = next_value++;
    if (cluster.ProposeAndWait(v, Seconds(60))) {
      committed.push_back(v);
    }
    ASSERT_TRUE(cluster.PrefixConsistent()) << "seed " << param.seed;

    if (chaos.Bernoulli(0.6)) {
      const NodeId fresh = next_node_id++;
      cluster.Spawn(fresh);
      if (cluster.AddMemberAndWait(fresh, Seconds(60))) {
        removable.push_back(fresh);
      }
    } else if (!removable.empty()) {
      const size_t pick = chaos.Index(removable.size());
      const NodeId doomed = removable[pick];
      PaxosTestNode* leader = cluster.leader();
      if (leader != nullptr && doomed != leader->id()) {
        if (cluster.RemoveMemberAndWait(doomed, Seconds(60))) {
          // A removed node's replica stops applying; take it out of the
          // cluster so the consistency sweep below only sees members.
          cluster.Crash(doomed);
        }
        removable.erase(removable.begin() + static_cast<long>(pick));
      }
    }
    ASSERT_TRUE(cluster.PrefixConsistent()) << "seed " << param.seed;
  }

  cluster.net().set_loss_rate(0);
  cluster.sim().RunFor(Seconds(5));
  EXPECT_TRUE(cluster.PrefixConsistent());
  // Every acknowledged value must be applied on the leader. (Equality is
  // too strong: a ProposeAndWait that timed out may still have committed,
  // legitimately adding values beyond `committed`.)
  PaxosTestNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  const auto& applied = leader->sm().values();
  for (uint64_t v : committed) {
    EXPECT_TRUE(std::count(applied.begin(), applied.end(), v) == 1)
        << "acknowledged value " << v << " missing or duplicated";
  }
}

INSTANTIATE_TEST_SUITE_P(Chaos, ReconfigChaosSweep,
                         ::testing::Values(ReconfigParam{1, 0.0},
                                           ReconfigParam{2, 0.05},
                                           ReconfigParam{3, 0.1},
                                           ReconfigParam{4, 0.05},
                                           ReconfigParam{5, 0.0},
                                           ReconfigParam{6, 0.1}));

// --- Message duplication ------------------------------------------------------

struct DupParam {
  uint64_t seed;
  double duplicate;
  double loss;
};

class DuplicationSweep : public ::testing::TestWithParam<DupParam> {};

TEST_P(DuplicationSweep, ExactlyOnceDespiteDuplicates) {
  const DupParam param = GetParam();
  sim::NetworkConfig net_cfg;
  net_cfg.latency = sim::LatencyModel::Lan();
  net_cfg.duplicate_rate = param.duplicate;
  net_cfg.loss_rate = param.loss;
  PaxosCluster cluster(5, param.seed, PaxosConfig(), net_cfg);
  std::vector<uint64_t> expected;
  for (uint64_t v = 1; v <= 25; ++v) {
    ASSERT_TRUE(cluster.ProposeAndWait(v, Seconds(60)));
    expected.push_back(v);
  }
  cluster.net().set_loss_rate(0);
  cluster.sim().RunFor(Seconds(3));
  // Exactly once: values appear once each, in order, everywhere.
  EXPECT_TRUE(cluster.AllApplied(expected));
  EXPECT_TRUE(cluster.PrefixConsistent());
}

INSTANTIATE_TEST_SUITE_P(Dup, DuplicationSweep,
                         ::testing::Values(DupParam{1, 0.3, 0.0},
                                           DupParam{2, 0.5, 0.05},
                                           DupParam{3, 0.9, 0.1}));

// --- Leases with injected clock skew -----------------------------------------

TEST(LeaseSkewTest, SkewBoundShortensLeaderLease) {
  // With a skew bound, the leader's effective lease (computed from its own
  // send timestamps minus the bound) must be shorter than the followers'
  // grants — the conservative direction.
  PaxosConfig cfg;
  cfg.lease_duration = Millis(200);
  cfg.clock_skew_bound = Millis(150);
  PaxosCluster cluster(3, /*seed=*/2, cfg);
  PaxosTestNode* l = cluster.WaitForLeader();
  ASSERT_NE(l, nullptr);
  ASSERT_TRUE(cluster.ProposeAndWait(1));
  cluster.sim().RunFor(Millis(300));
  // Lease still works (heartbeats every 50ms renew it; 200-150=50ms margin
  // is renewed faster than it decays).
  EXPECT_TRUE(l->replica().HasLease());

  // With skew bound == lease duration, the effective lease is empty: the
  // leader must never claim one.
  PaxosConfig cfg2;
  cfg2.lease_duration = Millis(200);
  cfg2.clock_skew_bound = Millis(200);
  PaxosCluster cluster2(3, /*seed=*/3, cfg2);
  PaxosTestNode* l2 = cluster2.WaitForLeader();
  ASSERT_NE(l2, nullptr);
  ASSERT_TRUE(cluster2.ProposeAndWait(1));
  cluster2.sim().RunFor(Millis(500));
  EXPECT_FALSE(l2->replica().HasLease());
  // Reads still work via the barrier path.
  bool read_ok = false;
  l2->replica().LinearizableRead([&](Status s) { read_ok = s.ok(); });
  while (!read_ok) {
    cluster2.sim().RunFor(Millis(5));
  }
  EXPECT_TRUE(read_ok);
}

TEST(LeaseSkewTest, IsolatedLeaderLeaseExpires) {
  // Cut the leader off from all followers: its lease must lapse within the
  // lease duration, after which it cannot serve local reads.
  PaxosCluster cluster(5, /*seed=*/5);
  PaxosTestNode* l = cluster.WaitForLeader();
  ASSERT_NE(l, nullptr);
  ASSERT_TRUE(cluster.ProposeAndWait(1));
  cluster.sim().RunFor(Millis(200));
  ASSERT_TRUE(l->replica().HasLease());

  for (PaxosTestNode* n : cluster.live_nodes()) {
    if (n != l) {
      cluster.net().BlockLink(l->id(), n->id());
      cluster.net().BlockLink(n->id(), l->id());
    }
  }
  cluster.sim().RunFor(Millis(300));  // > lease_duration (250ms default)
  EXPECT_FALSE(l->replica().HasLease());

  // The majority side elects a replacement; once healed, no divergence.
  cluster.sim().RunFor(Seconds(3));
  PaxosTestNode* l2 = cluster.leader();
  ASSERT_NE(l2, nullptr);
  EXPECT_NE(l2->id(), l->id());
  for (PaxosTestNode* n : cluster.live_nodes()) {
    if (n != l) {
      cluster.net().UnblockLink(l->id(), n->id());
      cluster.net().UnblockLink(n->id(), l->id());
    }
  }
  ASSERT_TRUE(cluster.ProposeAndWait(2));
  cluster.sim().RunFor(Seconds(2));
  EXPECT_TRUE(cluster.PrefixConsistent());
}

TEST(LeaseSkewTest, NoLeaseReadsServedAfterIsolationWindow) {
  // The critical safety property behind lease reads: once isolated longer
  // than the lease, the deposed leader must refuse the fast path (reads go
  // to the barrier path, which cannot commit in a minority, so they fail
  // rather than return stale data).
  PaxosCluster cluster(3, /*seed=*/7);
  PaxosTestNode* l = cluster.WaitForLeader();
  ASSERT_NE(l, nullptr);
  ASSERT_TRUE(cluster.ProposeAndWait(1));
  cluster.sim().RunFor(Millis(200));

  std::vector<NodeId> others;
  for (PaxosTestNode* n : cluster.live_nodes()) {
    if (n != l) {
      others.push_back(n->id());
    }
  }
  cluster.net().Partition({{l->id()}, others});
  cluster.sim().RunFor(Seconds(2));

  // New leader exists on the majority side and commits value 2.
  PaxosTestNode* l2 = cluster.leader();
  ASSERT_NE(l2, nullptr);
  ASSERT_NE(l2->id(), l->id());
  ASSERT_TRUE(cluster.ProposeAndWait(2));

  // The old leader must not serve a lease read anymore.
  EXPECT_FALSE(l->replica().HasLease());
  Status old_read = Status::Ok();
  bool old_done = false;
  l->replica().LinearizableRead([&](Status s) {
    old_done = true;
    old_read = s;
  });
  cluster.sim().RunFor(Seconds(2));
  // Either it already failed (stepped down -> NOT_LEADER) or it is still
  // blocked on an uncommittable barrier; it must NOT have returned OK.
  if (old_done) {
    EXPECT_FALSE(old_read.ok());
  }
}

// --- Snapshot / config interplay ----------------------------------------------

TEST(SnapshotConfigTest, JoinerSnapshotCarriesLatestMembership) {
  // Config changes inside the truncated prefix must reach joiners through
  // the snapshot's config, not the (gone) log entries.
  PaxosConfig cfg;
  cfg.log_retention = 4;
  PaxosCluster cluster(3, /*seed=*/31, cfg);
  ASSERT_TRUE(cluster.ProposeAndWait(1));
  // Grow to 4 members, then bury the config entry under truncation.
  cluster.Spawn(50);
  ASSERT_TRUE(cluster.AddMemberAndWait(50));
  for (uint64_t v = 2; v <= 40; ++v) {
    ASSERT_TRUE(cluster.ProposeAndWait(v));
  }
  // A second joiner now needs a snapshot whose config includes node 50.
  cluster.Spawn(51);
  ASSERT_TRUE(cluster.AddMemberAndWait(51));
  cluster.sim().RunFor(Seconds(5));
  PaxosTestNode* joiner = cluster.node(51);
  ASSERT_NE(joiner, nullptr);
  ASSERT_TRUE(joiner->replica().has_started());
  const auto& members = joiner->replica().members();
  EXPECT_EQ(members.size(), 5u);
  EXPECT_EQ(std::count(members.begin(), members.end(), 50), 1);
  EXPECT_EQ(std::count(members.begin(), members.end(), 51), 1);
  // And it can win elections / participate fully.
  ASSERT_TRUE(cluster.ProposeAndWait(41));
  cluster.sim().RunFor(Seconds(2));
  EXPECT_TRUE(cluster.PrefixConsistent());
}

TEST(SnapshotConfigTest, JoinerCrashMidInstallHarmless) {
  PaxosConfig cfg;
  cfg.log_retention = 4;
  PaxosCluster cluster(3, /*seed=*/33, cfg);
  for (uint64_t v = 1; v <= 30; ++v) {
    ASSERT_TRUE(cluster.ProposeAndWait(v));
  }
  cluster.Spawn(60);
  // Add the member, then kill the joiner before/while the snapshot lands.
  bool add_done = false;
  cluster.leader()->replica().ProposeConfigChange(
      ConfigCommand::Op::kAddMember, 60,
      [&](StatusOr<uint64_t> r) { add_done = r.ok(); });
  cluster.sim().RunFor(Millis(30));
  cluster.Crash(60);
  cluster.sim().RunFor(Seconds(8));
  // The group (3 live of 4) keeps committing; removing the dead joiner
  // restores the clean config.
  ASSERT_TRUE(cluster.ProposeAndWait(31, Seconds(30)));
  ASSERT_TRUE(cluster.RemoveMemberAndWait(60, Seconds(30)));
  ASSERT_TRUE(cluster.ProposeAndWait(32));
  EXPECT_TRUE(cluster.PrefixConsistent());
  (void)add_done;
}

// --- Truncation / election interplay ---------------------------------------

TEST(TruncationTest, ElectionsWorkAcrossTruncatedLogs) {
  PaxosConfig cfg;
  cfg.log_retention = 4;
  PaxosCluster cluster(3, /*seed=*/9, cfg);
  for (uint64_t v = 1; v <= 40; ++v) {
    ASSERT_TRUE(cluster.ProposeAndWait(v));
  }
  // Everyone has truncated aggressively; crash the leader and re-elect.
  cluster.Crash(cluster.leader()->id());
  ASSERT_TRUE(cluster.ProposeAndWait(41, Seconds(30)));
  cluster.sim().RunFor(Seconds(2));
  std::vector<uint64_t> expected;
  for (uint64_t v = 1; v <= 41; ++v) {
    expected.push_back(v);
  }
  EXPECT_TRUE(cluster.AllApplied(expected));
}

// --- Batching / pipelining under churn ---------------------------------------

// Leaders fail mid-batch (proposals stuffed into one event-loop turn, crash
// while the batched Accept rounds are in flight). Pending proposals must fail
// cleanly: every acknowledged value survives exactly once, nothing is
// duplicated, and replicas never diverge.
TEST(BatchChurnTest, MidBatchLeaderCrashKeepsExactlyOnce) {
  PaxosCluster cluster(5, /*seed=*/77);
  std::map<uint64_t, int> acked;
  uint64_t next_value = 1;
  Rng chaos(1234);
  int crashes = 0;

  for (int round = 0; round < 6; ++round) {
    PaxosTestNode* l = cluster.WaitForLeader(Seconds(30));
    ASSERT_NE(l, nullptr);
    // Stuff a batch into the leader in one event-loop turn.
    for (int i = 0; i < 16; ++i) {
      const uint64_t v = next_value++;
      l->replica().Propose(std::make_shared<SeqCommand>(v),
                           [&acked, v](StatusOr<uint64_t> r) {
                             if (r.ok()) {
                               acked[v]++;
                             }
                           });
    }
    // Let the batch get partway out, then (usually) kill the leader with
    // the pipelined rounds still in flight.
    cluster.sim().RunFor(chaos.Below(2000));
    if (crashes < 2 && chaos.Bernoulli(0.7)) {
      cluster.Crash(l->id());
      crashes++;
    }
    cluster.sim().RunFor(Seconds(2));
    ASSERT_TRUE(cluster.PrefixConsistent());
  }

  cluster.sim().RunFor(Seconds(5));
  ASSERT_TRUE(cluster.PrefixConsistent());
  PaxosTestNode* l = cluster.WaitForLeader(Seconds(30));
  ASSERT_NE(l, nullptr);
  std::map<uint64_t, int> counts;
  for (uint64_t v : l->sm().values()) {
    counts[v]++;
  }
  for (const auto& [v, n] : counts) {
    EXPECT_EQ(n, 1) << "value " << v << " applied " << n << " times";
  }
  for (const auto& [v, n] : acked) {
    EXPECT_EQ(counts.count(v), 1u) << "acknowledged value " << v << " lost";
    EXPECT_EQ(n, 1) << "value " << v << " acknowledged " << n << " times";
  }
}

// Full-stack variant with the invariant auditor attached: concurrent client
// load (exercising the batched commit path) while group leaders crash; the
// recorded history must stay linearizable and no subsystem invariant may
// trip.
TEST(BatchChurnTest, AuditedClusterSurvivesLeaderCrashesUnderLoad) {
  core::ClusterConfig cfg;
  cfg.seed = 4242;
  cfg.initial_nodes = 15;
  cfg.initial_groups = 2;
  core::Cluster c(cfg);
  analysis::InvariantAuditor audit(&c);
  c.RunFor(Seconds(2));

  workload::WorkloadConfig wcfg;
  wcfg.num_clients = 6;
  wcfg.write_fraction = 0.6;
  wcfg.key_space = 200;
  std::vector<KvClient*> kv_clients;
  for (size_t i = 0; i < wcfg.num_clients; ++i) {
    kv_clients.push_back(c.AddClient());
  }
  workload::WorkloadDriver driver(&c.sim(), kv_clients, wcfg);
  driver.Start();

  for (int i = 0; i < 3; ++i) {
    c.RunFor(Seconds(5));
    NodeId leader = kInvalidNode;
    for (const auto& info : c.AuthoritativeRing()) {
      if (info.leader != kInvalidNode) {
        leader = info.leader;
        break;
      }
    }
    if (leader != kInvalidNode) {
      c.CrashNode(leader);
      c.RefreshSeeds();
    }
  }
  c.RunFor(Seconds(10));
  driver.Stop();
  c.RunFor(Seconds(5));
  driver.history().Close(c.sim().now());

  EXPECT_GT(driver.stats().ops_ok(), 100u);
  verify::LinearizabilityChecker checker;
  auto result = checker.CheckAll(driver.history().PerKeyHistories());
  EXPECT_TRUE(result.linearizable) << result.Summary();
  EXPECT_TRUE(result.inconclusive.empty()) << result.Summary();
}

}  // namespace
}  // namespace scatter::paxos
