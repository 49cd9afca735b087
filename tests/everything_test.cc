// The capstone integration test: every mechanism enabled simultaneously —
// churn (joins, departures, deaths), split/merge/migration, load-aware
// repartitioning, latency-aware leader placement, gossip, leases — on a
// heterogeneous WAN, under a skewed workload, for minutes of simulated
// time, with full verification at the end:
//   * exact linearizability of the complete observed history,
//   * zero definitely-stale reads,
//   * the ring settles back to a disjoint cover,
//   * availability stays high.
// Parameterized over seeds so regressions in rare interleavings surface.

#include <gtest/gtest.h>

#include "src/analysis/invariant_auditor.h"
#include "src/churn/churn.h"
#include "src/core/cluster.h"
#include "src/verify/linearizability.h"
#include "src/verify/ring_checker.h"
#include "src/verify/staleness.h"
#include "src/workload/workload.h"

namespace scatter::core {
namespace {

class EverythingSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EverythingSweep, AllMechanismsComposeConsistently) {
  ClusterConfig cfg;
  cfg.seed = GetParam();
  cfg.initial_nodes = 36;
  cfg.initial_groups = 6;
  cfg.network.latency = sim::LatencyModel::Lan();
  cfg.network.heterogeneity_sigma = 0.4;
  cfg.scatter.policy.enable_repartition = true;
  cfg.scatter.policy.repartition_imbalance = 2.5;
  cfg.scatter.policy.repartition_min_keys = 64;
  cfg.scatter.policy.load_aware_split = true;
  cfg.scatter.policy.latency_aware_leader = true;
  cfg.scatter.policy.gossip_interval = Seconds(3);
  Cluster c(cfg);
  analysis::InvariantAuditor audit(&c);
  c.RunFor(Seconds(3));

  workload::WorkloadConfig wcfg;
  wcfg.num_clients = 6;
  wcfg.write_fraction = 0.4;
  wcfg.key_space = 600;
  wcfg.zipf_s = 0.9;           // Skewed popularity.
  wcfg.clustered_keys = true;  // Placement skew too.
  wcfg.think_time = Millis(5);
  std::vector<KvClient*> clients;
  for (size_t i = 0; i < wcfg.num_clients; ++i) {
    clients.push_back(c.AddClient());
  }
  workload::WorkloadDriver driver(&c.sim(), clients, wcfg);
  driver.Start();

  churn::ChurnConfig ccfg;
  ccfg.median_lifetime = Seconds(120);
  ccfg.distribution = churn::ChurnConfig::Lifetime::kPareto;
  churn::ChurnDriver churner(&c.sim(), c.ChurnHooksFor(), ccfg);
  churner.Start();

  // Sample the continuous invariant while everything churns: no two
  // leader-led serving groups may ever overlap (split-brain precursor).
  auto ring_safety = analysis::MakeRingSafetyChecker();
  for (int tick = 0; tick < 360; ++tick) {
    c.RunFor(Millis(500));
    std::vector<std::string> overlap;
    ring_safety->Check(c, &overlap);
    ASSERT_TRUE(overlap.empty()) << overlap[0];
  }
  churner.Stop();
  driver.Stop();
  c.RunFor(Seconds(10));
  driver.history().Close(c.sim().now());

  // Activity actually happened (the test would be vacuous otherwise).
  EXPECT_GT(churner.stats().deaths, 10u);
  EXPECT_GT(driver.stats().ops_ok(), 5000u);

  // Verdicts.
  EXPECT_GT(driver.stats().availability(), 0.90);
  auto staleness = verify::AuditStaleness(driver.history());
  EXPECT_EQ(staleness.stale_reads, 0u) << staleness.Summary();
  verify::LinearizabilityChecker checker;
  auto lin = checker.CheckAll(driver.history().PerKeyHistories());
  EXPECT_TRUE(lin.linearizable) << lin.Summary();
  EXPECT_TRUE(lin.inconclusive.empty()) << lin.Summary();

  // After the dust settles, the ring is whole (or a group died, which the
  // availability bound above already constrains; at 120 s lifetimes with
  // 6-member groups, death is essentially impossible).
  c.RunFor(Seconds(30));
  auto cover = verify::CheckQuiescentCover(c);
  EXPECT_TRUE(cover.ok) << (cover.problems.empty() ? "" : cover.problems[0]);
  auto agreement = verify::CheckReplicaAgreement(c);
  EXPECT_TRUE(agreement.ok)
      << (agreement.problems.empty() ? "" : agreement.problems[0]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EverythingSweep,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005));

}  // namespace
}  // namespace scatter::core
