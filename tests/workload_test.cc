// Tests for the measurement stack itself: workload drivers, the churn
// driver's lifetime distributions, stats accounting, and end-to-end
// determinism of whole simulations.

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/churn/churn.h"
#include "src/core/cluster.h"
#include "src/workload/chirpchat.h"
#include "src/workload/workload.h"

namespace scatter {
namespace {

core::ClusterConfig SmallConfig(uint64_t seed) {
  core::ClusterConfig cfg;
  cfg.seed = seed;
  cfg.initial_nodes = 10;
  cfg.initial_groups = 2;
  return cfg;
}

TEST(WorkloadDriverTest, StatsAccountForEveryOperation) {
  core::Cluster c(SmallConfig(1));
  c.RunFor(Seconds(2));
  workload::WorkloadConfig wcfg;
  wcfg.num_clients = 4;
  wcfg.write_fraction = 0.3;
  wcfg.key_space = 100;
  std::vector<KvClient*> clients;
  for (size_t i = 0; i < wcfg.num_clients; ++i) {
    clients.push_back(c.AddClient());
  }
  workload::WorkloadDriver driver(&c.sim(), clients, wcfg);
  driver.Start();
  c.RunFor(Seconds(10));
  driver.Stop();
  c.RunFor(Seconds(2));
  driver.history().Close(c.sim().now());

  const auto& s = driver.stats();
  EXPECT_GT(s.ops_ok(), 100u);
  // Histogram counts match op counts.
  EXPECT_EQ(s.read_latency.count(), s.reads_ok);
  EXPECT_EQ(s.write_latency.count(), s.writes_ok);
  // The mix is near the configured write fraction.
  const double frac =
      static_cast<double>(s.writes_ok) /
      static_cast<double>(s.reads_ok + s.writes_ok);
  EXPECT_NEAR(frac, 0.3, 0.05);
  // Every completed op is in the history.
  EXPECT_EQ(driver.history().total_ops(), s.ops_ok() + s.ops_failed());
}

TEST(WorkloadDriverTest, ClusteredKeysLandInOneArc) {
  workload::WorkloadConfig wcfg;
  wcfg.key_space = 1000;
  wcfg.clustered_keys = true;
  core::Cluster c(SmallConfig(2));
  std::vector<KvClient*> clients{c.AddClient()};
  workload::WorkloadDriver driver(&c.sim(), clients, wcfg);
  Key lo = ~uint64_t{0};
  Key hi = 0;
  for (uint64_t r = 0; r < wcfg.key_space; ++r) {
    const Key k = driver.KeyForRank(r);
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
  // Whole population inside ~1/16 of the ring.
  EXPECT_LT(hi - lo, ~uint64_t{0} / 8);
}

TEST(WorkloadDriverTest, HashedKeysSpread) {
  workload::WorkloadConfig wcfg;
  wcfg.key_space = 1000;
  core::Cluster c(SmallConfig(3));
  std::vector<KvClient*> clients{c.AddClient()};
  workload::WorkloadDriver driver(&c.sim(), clients, wcfg);
  size_t top_quarter = 0;
  for (uint64_t r = 0; r < wcfg.key_space; ++r) {
    if (driver.KeyForRank(r) > ~uint64_t{0} / 4 * 3) {
      top_quarter++;
    }
  }
  EXPECT_NEAR(static_cast<double>(top_quarter), 250.0, 60.0);
}

TEST(ChirpChatDriverTest, RunsAndAccounts) {
  core::Cluster c(SmallConfig(5));
  c.RunFor(Seconds(2));
  workload::ChirpChatConfig app;
  app.num_users = 200;
  app.num_clients = 3;
  app.post_fraction = 0.5;
  app.timeline_fanin = 4;
  workload::ChirpChatDriver driver(&c, app);
  driver.Start();
  c.RunFor(Seconds(10));
  driver.Stop();
  c.RunFor(Seconds(2));
  const auto& s = driver.stats();
  EXPECT_GT(s.posts_ok, 50u);
  EXPECT_GT(s.timelines_ok, 50u);
  EXPECT_EQ(s.post_latency.count(), s.posts_ok);
  EXPECT_EQ(s.timeline_latency.count(), s.timelines_ok);
  const double frac = static_cast<double>(s.posts_ok) /
                      static_cast<double>(s.posts_ok + s.timelines_ok);
  EXPECT_NEAR(frac, 0.5, 0.1);
}

TEST(ChurnDriverTest, MedianLifetimeRoughlyHonored) {
  core::ClusterConfig cfg = SmallConfig(7);
  core::Cluster c(cfg);
  churn::ChurnConfig ccfg;
  ccfg.median_lifetime = Seconds(100);
  churn::ChurnDriver driver(&c.sim(), c.ChurnHooksFor(), ccfg);
  // Sample the generator directly.
  std::vector<TimeMicros> lifetimes;
  for (int i = 0; i < 4000; ++i) {
    lifetimes.push_back(driver.SampleLifetime());
  }
  std::sort(lifetimes.begin(), lifetimes.end());
  const double median =
      static_cast<double>(lifetimes[lifetimes.size() / 2]) / 1e6;
  EXPECT_NEAR(median, 100.0, 8.0);
}

TEST(ChurnDriverTest, ParetoHasHeavierTailThanExponential) {
  core::Cluster c(SmallConfig(9));
  churn::ChurnConfig exp_cfg;
  exp_cfg.median_lifetime = Seconds(100);
  churn::ChurnConfig par_cfg = exp_cfg;
  par_cfg.distribution = churn::ChurnConfig::Lifetime::kPareto;
  churn::ChurnDriver exp_driver(&c.sim(), c.ChurnHooksFor(), exp_cfg);
  churn::ChurnDriver par_driver(&c.sim(), c.ChurnHooksFor(), par_cfg);
  TimeMicros exp_max = 0;
  TimeMicros par_max = 0;
  for (int i = 0; i < 20000; ++i) {
    exp_max = std::max(exp_max, exp_driver.SampleLifetime());
    par_max = std::max(par_max, par_driver.SampleLifetime());
  }
  EXPECT_GT(par_max, exp_max);
}

TEST(ChurnDriverTest, PopulationStaysStationary) {
  core::ClusterConfig cfg = SmallConfig(11);
  cfg.initial_nodes = 20;
  cfg.initial_groups = 4;
  core::Cluster c(cfg);
  c.RunFor(Seconds(2));
  churn::ChurnConfig ccfg;
  ccfg.median_lifetime = Seconds(40);
  churn::ChurnDriver driver(&c.sim(), c.ChurnHooksFor(), ccfg);
  driver.Start();
  c.RunFor(Seconds(120));
  driver.Stop();
  EXPECT_GT(driver.stats().deaths, 20u);
  // Deaths and spawns track each other; population within a small band.
  EXPECT_NEAR(static_cast<double>(c.live_node_count()), 20.0, 4.0);
}

TEST(ChurnDriverTest, StopRevokesScheduledDeaths) {
  core::Cluster c(SmallConfig(13));
  c.RunFor(Seconds(1));
  churn::ChurnConfig ccfg;
  ccfg.median_lifetime = Seconds(5);
  churn::ChurnDriver driver(&c.sim(), c.ChurnHooksFor(), ccfg);
  driver.Start();
  driver.Stop();  // Immediately.
  c.RunFor(Seconds(60));
  EXPECT_EQ(driver.stats().deaths, 0u);
  EXPECT_EQ(c.live_node_count(), 10u);
}

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalRuns) {
  auto run = [](uint64_t seed) {
    core::Cluster c(SmallConfig(seed));
    c.RunFor(Seconds(2));
    workload::WorkloadConfig wcfg;
    wcfg.num_clients = 4;
    wcfg.key_space = 100;
    std::vector<KvClient*> clients;
    for (size_t i = 0; i < wcfg.num_clients; ++i) {
      clients.push_back(c.AddClient());
    }
    workload::WorkloadDriver driver(&c.sim(), clients, wcfg);
    driver.Start();

    churn::ChurnConfig ccfg;
    ccfg.median_lifetime = Seconds(30);
    churn::ChurnDriver churner(&c.sim(), c.ChurnHooksFor(), ccfg);
    churner.Start();
    c.RunFor(Seconds(60));
    churner.Stop();
    driver.Stop();
    struct Fingerprint {
      uint64_t ops_ok, ops_failed, deaths, events;
      bool operator==(const Fingerprint&) const = default;
    };
    return Fingerprint{driver.stats().ops_ok(), driver.stats().ops_failed(),
                       churner.stats().deaths, c.sim().events_processed()};
  };
  auto a = run(424242);
  auto b = run(424242);
  EXPECT_TRUE(a == b) << "non-deterministic simulation";
  auto d = run(424243);
  EXPECT_FALSE(a == d);  // Different seed, different run.
}

}  // namespace
}  // namespace scatter
