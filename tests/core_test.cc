// Integration tests for the full Scatter system: bootstrap, storage path,
// self-organization (split/merge/join/migration), crash recovery, and
// linearizability under churn.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/invariant_auditor.h"
#include "src/churn/churn.h"
#include "src/common/hash.h"
#include "src/core/cluster.h"
#include "src/verify/linearizability.h"
#include "src/verify/ring_checker.h"
#include "src/workload/workload.h"

namespace scatter::core {
namespace {

ClusterConfig SmallConfig(uint64_t seed = 1) {
  ClusterConfig cfg;
  cfg.seed = seed;
  cfg.initial_nodes = 15;
  cfg.initial_groups = 3;
  return cfg;
}

// Synchronous-style helpers that drive the simulation until an op resolves.
bool PutSync(Cluster& c, Client* client, const std::string& name,
             const Value& value, TimeMicros limit = Seconds(15)) {
  bool done = false;
  bool ok = false;
  client->Put(KeyFromString(name), value, [&](Status s) {
    done = true;
    ok = s.ok();
  });
  const TimeMicros deadline = c.sim().now() + limit;
  while (!done && c.sim().now() < deadline) {
    c.sim().RunFor(Millis(5));
  }
  return done && ok;
}

StatusOr<Value> GetSync(Cluster& c, Client* client, const std::string& name,
                        TimeMicros limit = Seconds(15)) {
  StatusOr<Value> out = UnavailableError("did not complete");
  bool done = false;
  client->Get(KeyFromString(name), [&](StatusOr<Value> result) {
    done = true;
    out = std::move(result);
  });
  const TimeMicros deadline = c.sim().now() + limit;
  while (!done && c.sim().now() < deadline) {
    c.sim().RunFor(Millis(5));
  }
  return out;
}

TEST(CoreBootstrapTest, LeadersEmergeAndRingCovers) {
  Cluster c(SmallConfig());
  c.RunFor(Seconds(3));
  auto ring = c.AuthoritativeRing();
  EXPECT_EQ(ring.size(), 3u);
  auto cover = verify::CheckQuiescentCover(c);
  EXPECT_TRUE(cover.ok) << (cover.problems.empty() ? "" : cover.problems[0]);
  for (const auto& info : ring) {
    EXPECT_NE(info.leader, kInvalidNode) << info.ToString();
    EXPECT_EQ(info.members.size(), 5u);
  }
}

TEST(CoreBootstrapTest, PutThenGet) {
  Cluster c(SmallConfig());
  c.RunFor(Seconds(2));
  Client* client = c.AddClient();
  ASSERT_TRUE(PutSync(c, client, "hello", "world"));
  auto got = GetSync(c, client, "hello");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "world");
}

TEST(CoreBootstrapTest, GetMissingKeyIsNotFound) {
  Cluster c(SmallConfig());
  c.RunFor(Seconds(2));
  Client* client = c.AddClient();
  auto got = GetSync(c, client, "never-written");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST(CoreBootstrapTest, ManyKeysAcrossGroups) {
  Cluster c(SmallConfig());
  c.RunFor(Seconds(2));
  Client* client = c.AddClient();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(PutSync(c, client, "k" + std::to_string(i),
                        "v" + std::to_string(i)))
        << "put " << i;
  }
  for (int i = 0; i < 60; ++i) {
    auto got = GetSync(c, client, "k" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "get " << i;
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
  // Data is actually spread over all three groups.
  size_t groups_with_data = 0;
  for (const auto& info : c.AuthoritativeRing()) {
    if (info.key_count > 0) {
      groups_with_data++;
    }
  }
  EXPECT_EQ(groups_with_data, 3u);
}

TEST(CoreBootstrapTest, DeleteRemoves) {
  Cluster c(SmallConfig());
  c.RunFor(Seconds(2));
  Client* client = c.AddClient();
  ASSERT_TRUE(PutSync(c, client, "doomed", "v"));
  bool done = false;
  bool ok = false;
  client->Delete(KeyFromString("doomed"), [&](Status s) {
    done = true;
    ok = s.ok();
  });
  while (!done) {
    c.sim().RunFor(Millis(5));
  }
  ASSERT_TRUE(ok);
  auto got = GetSync(c, client, "doomed");
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST(CoreSplitTest, OversizeGroupSplitsAndDataSurvives) {
  ClusterConfig cfg;
  cfg.seed = 3;
  cfg.initial_nodes = 12;
  cfg.initial_groups = 1;  // One group of 12 > max_group_size (9).
  Cluster c(cfg);
  c.RunFor(Seconds(2));
  Client* client = c.AddClient();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(PutSync(c, client, "s" + std::to_string(i), "v"));
  }
  c.RunFor(Seconds(25));  // Policy ticks drive the split.
  auto ring = c.AuthoritativeRing();
  EXPECT_GE(ring.size(), 2u);
  auto cover = verify::CheckQuiescentCover(c);
  EXPECT_TRUE(cover.ok) << (cover.problems.empty() ? "" : cover.problems[0]);
  for (int i = 0; i < 40; ++i) {
    auto got = GetSync(c, client, "s" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "get after split " << i;
  }
}

TEST(CoreJoinTest, SpawnedNodeJoinsSmallestGroup) {
  ClusterConfig cfg = SmallConfig(5);
  cfg.initial_nodes = 9;  // 3 groups of 3.
  Cluster c(cfg);
  c.RunFor(Seconds(2));
  const NodeId fresh = c.SpawnNode();
  c.RunFor(Seconds(10));
  ScatterNode* node = c.node(fresh);
  ASSERT_NE(node, nullptr);
  EXPECT_TRUE(node->HostsAnyGroup());
  // Total membership went from 9 slots to 10.
  size_t total_members = 0;
  for (const auto& info : c.AuthoritativeRing()) {
    total_members += info.members.size();
  }
  EXPECT_EQ(total_members, 10u);
}

TEST(CoreMergeTest, UndersizeGroupMergesWithSuccessor) {
  ClusterConfig cfg;
  cfg.seed = 7;
  cfg.initial_nodes = 5;
  cfg.initial_groups = 2;  // Groups of 3 and 2; 2 < min_group_size (3).
  Cluster c(cfg);
  Client* client = c.AddClient();
  c.RunFor(Seconds(2));
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(PutSync(c, client, "m" + std::to_string(i), "v"));
  }
  c.RunFor(Seconds(30));
  auto ring = c.AuthoritativeRing();
  ASSERT_EQ(ring.size(), 1u);  // Merged into one full-ring group.
  EXPECT_TRUE(ring[0].range.IsFull());
  EXPECT_EQ(ring[0].members.size(), 5u);
  auto cover = verify::CheckQuiescentCover(c);
  EXPECT_TRUE(cover.ok);
  for (int i = 0; i < 30; ++i) {
    auto got = GetSync(c, client, "m" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "get after merge " << i;
  }
}

TEST(CoreCrashTest, OperationsContinueAfterLeaderCrash) {
  Cluster c(SmallConfig(9));
  c.RunFor(Seconds(2));
  Client* client = c.AddClient();
  ASSERT_TRUE(PutSync(c, client, "persist", "before-crash"));

  // Crash the leader of the group owning the key.
  const Key key = KeyFromString("persist");
  NodeId leader = kInvalidNode;
  for (const auto& info : c.AuthoritativeRing()) {
    if (info.range.Contains(key)) {
      leader = info.leader;
    }
  }
  ASSERT_NE(leader, kInvalidNode);
  c.CrashNode(leader);

  auto got = GetSync(c, client, "persist", Seconds(30));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "before-crash");
  ASSERT_TRUE(PutSync(c, client, "persist", "after-crash", Seconds(30)));
  // Policy eventually removes the dead member.
  c.RunFor(Seconds(15));
  for (const auto& info : c.AuthoritativeRing()) {
    EXPECT_EQ(std::count(info.members.begin(), info.members.end(), leader),
              0)
        << "dead node still a member of " << info.ToString();
  }
}

TEST(CoreWorkloadTest, UniformWorkloadIsLinearizableAndAvailable) {
  Cluster c(SmallConfig(11));
  c.RunFor(Seconds(2));
  workload::WorkloadConfig wcfg;
  wcfg.num_clients = 6;
  wcfg.write_fraction = 0.5;
  wcfg.key_space = 300;
  std::vector<KvClient*> kv_clients;
  for (size_t i = 0; i < wcfg.num_clients; ++i) {
    kv_clients.push_back(c.AddClient());
  }
  workload::WorkloadDriver driver(&c.sim(), kv_clients, wcfg);
  driver.Start();
  c.RunFor(Seconds(20));
  driver.Stop();
  c.RunFor(Seconds(5));  // Drain.
  driver.history().Close(c.sim().now());

  EXPECT_GT(driver.stats().ops_ok(), 1000u);
  EXPECT_GT(driver.stats().availability(), 0.99);

  verify::LinearizabilityChecker checker;
  auto result = checker.CheckAll(driver.history().PerKeyHistories());
  EXPECT_TRUE(result.linearizable) << result.Summary();
  EXPECT_TRUE(result.inconclusive.empty()) << result.Summary();
}

TEST(CoreWorkloadTest, DeleteMixIsLinearizable) {
  Cluster c(SmallConfig(19));
  c.RunFor(Seconds(2));
  workload::WorkloadConfig wcfg;
  wcfg.num_clients = 5;
  wcfg.write_fraction = 0.6;
  wcfg.delete_fraction = 0.3;  // ~18% of ops are deletes
  wcfg.key_space = 150;
  std::vector<KvClient*> kv_clients;
  for (size_t i = 0; i < wcfg.num_clients; ++i) {
    kv_clients.push_back(c.AddClient());
  }
  workload::WorkloadDriver driver(&c.sim(), kv_clients, wcfg);
  driver.Start();
  c.RunFor(Seconds(15));
  driver.Stop();
  c.RunFor(Seconds(3));
  driver.history().Close(c.sim().now());

  EXPECT_GT(driver.stats().ops_ok(), 1000u);
  verify::LinearizabilityChecker checker;
  auto result = checker.CheckAll(driver.history().PerKeyHistories());
  EXPECT_TRUE(result.linearizable) << result.Summary();
  EXPECT_TRUE(result.inconclusive.empty()) << result.Summary();
}

TEST(CoreChurnTest, LinearizableUnderModerateChurn) {
  ClusterConfig cfg;
  cfg.seed = 13;
  cfg.initial_nodes = 30;
  cfg.initial_groups = 5;
  Cluster c(cfg);
  c.RunFor(Seconds(2));

  workload::WorkloadConfig wcfg;
  wcfg.num_clients = 6;
  wcfg.write_fraction = 0.4;
  wcfg.key_space = 400;
  std::vector<KvClient*> kv_clients;
  for (size_t i = 0; i < wcfg.num_clients; ++i) {
    kv_clients.push_back(c.AddClient());
  }
  workload::WorkloadDriver driver(&c.sim(), kv_clients, wcfg);
  driver.Start();

  churn::ChurnConfig ccfg;
  ccfg.median_lifetime = Seconds(90);
  churn::ChurnDriver churner(&c.sim(), c.ChurnHooksFor(), ccfg);
  churner.Start();

  c.RunFor(Seconds(120));
  churner.Stop();
  driver.Stop();
  c.RunFor(Seconds(10));
  driver.history().Close(c.sim().now());

  EXPECT_GT(churner.stats().deaths, 5u);
  EXPECT_GT(driver.stats().availability(), 0.9);

  verify::LinearizabilityChecker checker;
  auto result = checker.CheckAll(driver.history().PerKeyHistories());
  EXPECT_TRUE(result.linearizable) << result.Summary();
  EXPECT_TRUE(result.inconclusive.empty()) << result.Summary();

  // After churn stops and the system settles, the ring is whole again and
  // replicas with equal applied progress hold byte-identical state.
  c.RunFor(Seconds(30));
  auto cover = verify::CheckQuiescentCover(c);
  EXPECT_TRUE(cover.ok) << (cover.problems.empty() ? "" : cover.problems[0]);
  auto agreement = verify::CheckReplicaAgreement(c);
  EXPECT_TRUE(agreement.ok)
      << (agreement.problems.empty() ? "" : agreement.problems[0]);
}

TEST(CoreOverlapTest, NoOverlappingLeadersDuringOperations) {
  ClusterConfig cfg;
  cfg.seed = 17;
  cfg.initial_nodes = 12;
  cfg.initial_groups = 1;  // Forces a split during the test.
  Cluster c(cfg);
  Client* client = c.AddClient();
  c.RunFor(Seconds(2));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(PutSync(c, client, "o" + std::to_string(i), "v"));
  }
  auto ring_safety = analysis::MakeRingSafetyChecker();
  for (int step = 0; step < 60; ++step) {
    c.RunFor(Millis(500));
    std::vector<std::string> problems;
    ring_safety->Check(c, &problems);
    ASSERT_TRUE(problems.empty()) << problems[0];
  }
}

}  // namespace
}  // namespace scatter::core
