// Structural fuzzing: random explicit splits, merges, repartitions,
// crashes and joins — interleaved with a live verified workload — distinct
// from the churn sweeps (which only exercise the policy-driven paths).
// Every seed must end with a whole, agreeing, linearizable system.

#include <gtest/gtest.h>

#include "src/analysis/invariant_auditor.h"
#include "src/common/random.h"
#include "src/core/cluster.h"
#include "src/verify/linearizability.h"
#include "src/verify/ring_checker.h"
#include "src/workload/workload.h"

namespace scatter::core {
namespace {

class StructuralFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StructuralFuzz, RandomOpSoupStaysConsistent) {
  ClusterConfig cfg;
  cfg.seed = GetParam();
  cfg.initial_nodes = 24;
  cfg.initial_groups = 4;
  // Policies stay ON (they race the explicit ops — that is the point),
  // but with wide size bounds so explicit ops drive most structure.
  cfg.scatter.policy.min_group_size = 2;
  cfg.scatter.policy.max_group_size = 16;
  Cluster c(cfg);
  analysis::InvariantAuditor audit(&c);
  c.RunFor(Seconds(2));

  workload::WorkloadConfig wcfg;
  wcfg.num_clients = 4;
  wcfg.write_fraction = 0.5;
  wcfg.key_space = 300;
  wcfg.think_time = Millis(10);
  std::vector<KvClient*> clients;
  for (size_t i = 0; i < wcfg.num_clients; ++i) {
    clients.push_back(c.AddClient());
  }
  workload::WorkloadDriver driver(&c.sim(), clients, wcfg);
  driver.Start();

  Rng fuzz(GetParam() * 101 + 17);
  int crashes_left = 3;
  for (int round = 0; round < 20; ++round) {
    c.RunFor(Seconds(4));
    // Pick a random leader-led group and poke it.
    std::vector<std::pair<ScatterNode*, GroupId>> leaders;
    for (NodeId id : c.live_node_ids()) {
      ScatterNode* node = c.node(id);
      for (const ring::GroupInfo& info : node->ServingInfos()) {
        if (info.leader == id) {
          leaders.emplace_back(node, info.id);
        }
      }
    }
    if (leaders.empty()) {
      continue;
    }
    auto [node, group] = leaders[fuzz.Index(leaders.size())];
    switch (fuzz.Below(5)) {
      case 0:
        node->RequestSplit(group, [](Status) {});
        break;
      case 1:
        node->RequestMerge(group, [](Status) {});
        break;
      case 2: {
        const auto* sm = node->GroupSm(group);
        const ring::KeyRange r = sm->range();
        const Key boundary =
            r.begin + r.Size() / 8 * (1 + fuzz.Below(7));
        node->RequestRepartition(group, boundary, [](Status) {});
        break;
      }
      case 3:
        if (crashes_left > 0 && c.live_node_count() > 16) {
          auto ids = c.live_node_ids();
          c.CrashNode(ids[fuzz.Index(ids.size())]);
          crashes_left--;
        }
        break;
      case 4:
        c.SpawnNode();
        break;
    }
  }

  driver.Stop();
  c.RunFor(Seconds(30));  // Drain and settle (structural ops finish).
  driver.history().Close(c.sim().now());

  EXPECT_GT(driver.stats().ops_ok(), 1000u);
  verify::LinearizabilityChecker checker;
  auto lin = checker.CheckAll(driver.history().PerKeyHistories());
  EXPECT_TRUE(lin.linearizable) << "seed " << GetParam() << ": "
                                << lin.Summary();
  EXPECT_TRUE(lin.inconclusive.empty()) << lin.Summary();
  auto cover = verify::CheckQuiescentCover(c);
  EXPECT_TRUE(cover.ok) << (cover.problems.empty() ? "" : cover.problems[0]);
  auto agreement = verify::CheckReplicaAgreement(c);
  EXPECT_TRUE(agreement.ok)
      << (agreement.problems.empty() ? "" : agreement.problems[0]);
  for (NodeId id : c.live_node_ids()) {
    for (const auto* sm : c.node(id)->ServingGroups()) {
      EXPECT_FALSE(sm->IsFrozen()) << "g" << sm->id() << " frozen at end";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructuralFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace scatter::core
