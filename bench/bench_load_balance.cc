// E9 — storage load balance under skewed key popularity.
//
// A Zipf-skewed write-heavy workload concentrates keys on a few ranges.
// Compares the per-group key-count distribution with repartitioning off vs
// on, reporting the max/mean imbalance factor and the spread (min / p50 /
// max keys per group).
//
// Paper shape: repartitioning moves range boundaries toward the load,
// flattening the distribution (imbalance factor approaching ~1-2 instead
// of many-x).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/cluster.h"
#include "src/workload/workload.h"

namespace scatter {
namespace {

constexpr TimeMicros kWarmup = Seconds(3);
constexpr TimeMicros kLoad = Seconds(60);
constexpr TimeMicros kSettle = Seconds(60);

struct Result {
  std::vector<uint64_t> loads;  // keys per group, sorted
  double imbalance = 0;
  workload::WorkloadStats stats;
};

Result RunOne(bool repartition, uint64_t seed,
              bench::ScheduleDigest* digest) {
  core::ClusterConfig cfg;
  cfg.seed = seed;
  cfg.initial_nodes = 24;
  cfg.initial_groups = 6;
  cfg.scatter.policy.enable_repartition = repartition;
  cfg.scatter.policy.repartition_imbalance = 1.8;
  cfg.scatter.policy.repartition_min_keys = 32;
  core::Cluster cluster(cfg);
  cluster.RunFor(kWarmup);

  workload::WorkloadConfig wcfg;
  wcfg.num_clients = 8;
  wcfg.write_fraction = 0.9;  // Fill the store.
  // Hash-uniform keys spread evenly by construction, so use the clustered
  // insert pattern (sequential ring positions in one narrow arc) — the
  // placement skew that boundary repartitioning exists to fix.
  wcfg.key_space = 4000;
  wcfg.clustered_keys = true;
  wcfg.record_history = false;
  wcfg.think_time = Millis(1);
  std::vector<KvClient*> clients;
  for (size_t i = 0; i < wcfg.num_clients; ++i) {
    clients.push_back(cluster.AddClient());
  }
  workload::WorkloadDriver driver(&cluster.sim(), clients, wcfg);
  driver.Start();
  cluster.RunFor(kLoad);
  driver.Stop();
  cluster.RunFor(kSettle);  // Let repartitioning converge.
  digest->Add(cluster.sim(), cluster.net());

  Result out;
  out.stats = driver.stats();
  for (const ring::GroupInfo& info : cluster.AuthoritativeRing()) {
    out.loads.push_back(info.key_count);
  }
  std::sort(out.loads.begin(), out.loads.end());
  if (!out.loads.empty()) {
    uint64_t total = 0;
    for (uint64_t l : out.loads) {
      total += l;
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(out.loads.size());
    out.imbalance =
        mean > 0 ? static_cast<double>(out.loads.back()) / mean : 0;
  }
  return out;
}

void AddRow(bench::Table& table, const char* policy, const Result& r) {
  const auto& l = r.loads;
  table.AddRow({
      policy,
      bench::FmtInt(l.size()),
      l.empty() ? "-" : bench::FmtInt(l.front()),
      l.empty() ? "-" : bench::FmtInt(l[l.size() / 2]),
      l.empty() ? "-" : bench::FmtInt(l.back()),
      bench::Fmt(r.imbalance, 2),
      bench::FmtPct(r.stats.availability()),
  });
}

}  // namespace
}  // namespace scatter

int main() {
  using namespace scatter;
  bench::Banner("E9", "per-group storage balance: repartitioning off vs on");

  bench::Table table("keys per group after skewed load",
                     {"policy", "groups", "min_keys", "p50_keys", "max_keys",
                      "imbalance(max/mean)", "avail"});
  bench::ScheduleDigest digest;
  AddRow(table, "static", RunOne(/*repartition=*/false, 31337, &digest));
  AddRow(table, "repartition",
         RunOne(/*repartition=*/true, 31337, &digest));
  table.Print();
  std::printf(
      "\nExpected shape: repartitioning moves boundaries into loaded\n"
      "ranges, cutting the max/mean imbalance factor substantially.\n");
  digest.Print();
  return 0;
}
