// Churn survival: run Scatter under aggressive node churn while a workload
// hammers it, then verify that every response was linearizable, that no
// acknowledged write was lost, and that the ring is a complete, disjoint
// cover once churn stops. Exits 1 when any of the three checks fails.
//
// This is the paper's thesis as a demo: "even with very short node
// lifetimes, it is possible to build a scalable and consistent system with
// practical performance."

#include <cstdio>

#include "src/churn/churn.h"
#include "src/core/cluster.h"
#include "src/verify/linearizability.h"
#include "src/verify/ring_checker.h"
#include "src/verify/staleness.h"
#include "src/workload/workload.h"

using namespace scatter;

int main() {
  core::ClusterConfig config;
  config.seed = 99;
  config.initial_nodes = 40;
  config.initial_groups = 8;
  core::Cluster cluster(config);
  cluster.RunFor(Seconds(2));
  std::printf("booted %zu nodes in %zu groups\n", config.initial_nodes,
              config.initial_groups);

  // A mixed read/write workload from 8 closed-loop clients.
  workload::WorkloadConfig wcfg;
  wcfg.num_clients = 8;
  wcfg.write_fraction = 0.5;
  wcfg.key_space = 500;
  std::vector<KvClient*> clients;
  for (size_t i = 0; i < wcfg.num_clients; ++i) {
    clients.push_back(cluster.AddClient());
  }
  workload::WorkloadDriver driver(&cluster.sim(), clients, wcfg);
  driver.Start();

  // Median node session: 60 simulated seconds — each node lives about a
  // minute before failing; a replacement joins shortly after.
  churn::ChurnConfig ccfg;
  ccfg.median_lifetime = Seconds(60);
  ccfg.distribution = churn::ChurnConfig::Lifetime::kPareto;
  churn::ChurnDriver churner(&cluster.sim(), cluster.ChurnHooksFor(), ccfg);
  churner.Start();

  std::printf("running 3 simulated minutes at 60s median lifetime "
              "(Pareto sessions)...\n");
  for (int minute = 1; minute <= 3; ++minute) {
    cluster.RunFor(Seconds(60));
    std::printf("  t=%dmin: %llu deaths, %llu joins, %llu ops ok, "
                "availability %.2f%%\n",
                minute,
                static_cast<unsigned long long>(churner.stats().deaths),
                static_cast<unsigned long long>(churner.stats().spawns),
                static_cast<unsigned long long>(driver.stats().ops_ok()),
                driver.stats().availability() * 100.0);
  }

  churner.Stop();
  driver.Stop();
  cluster.RunFor(Seconds(10));
  driver.history().Close(cluster.sim().now());

  // The verdicts.
  verify::LinearizabilityChecker checker;
  auto lin = checker.CheckAll(driver.history().PerKeyHistories());
  auto staleness = verify::AuditStaleness(driver.history());
  std::printf("\nlinearizability: %s\n", lin.Summary().c_str());
  std::printf("staleness audit: %s\n", staleness.Summary().c_str());

  cluster.RunFor(Seconds(30));  // Let repairs finish, then check the ring.
  auto cover = verify::CheckQuiescentCover(cluster);
  std::printf("ring cover after churn: %s\n",
              cover.ok ? "complete and disjoint" : cover.problems[0].c_str());

  std::printf("\nfinal ring:\n");
  for (const ring::GroupInfo& info : cluster.AuthoritativeRing()) {
    std::printf("  %s\n", info.ToString().c_str());
  }
  return lin.linearizable && staleness.stale_reads == 0 && cover.ok ? 0 : 1;
}
