// Property-based sweeps: randomized operation sequences against the
// supporting data structures, checking invariants rather than examples —
// plus a seeds × lifetimes churn sweep over the full system.

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/churn/churn.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/core/cluster.h"
#include "src/ring/ring_map.h"
#include "src/store/kv_store.h"
#include "src/verify/linearizability.h"
#include "src/workload/workload.h"

namespace scatter {
namespace {

// --- KvStore: byte accounting and model equivalence -------------------------

class KvStoreProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KvStoreProperty, MatchesModelUnderRandomOps) {
  Rng rng(GetParam());
  store::KvStore store;
  std::map<Key, Value> model;
  for (int step = 0; step < 3000; ++step) {
    const Key key = rng.Below(200);  // Small space: plenty of collisions.
    const int action = static_cast<int>(rng.Below(4));
    if (action == 0 || action == 1) {
      Value v(rng.Below(50), 'a' + static_cast<char>(rng.Below(26)));
      store.Put(key, v);
      model[key] = v;
    } else if (action == 2) {
      EXPECT_EQ(store.Delete(key), model.erase(key) > 0);
    } else {
      auto got = store.Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, it->second);
      }
    }
    // Byte accounting is exact at every step.
    size_t expected_bytes = 0;
    for (const auto& [k, v] : model) {
      expected_bytes += 8 + v.size();
    }
    ASSERT_EQ(store.byte_size(), expected_bytes) << "at step " << step;
    ASSERT_EQ(store.size(), model.size());
  }
}

TEST_P(KvStoreProperty, ExtractEraseRoundTrip) {
  Rng rng(GetParam() * 31);
  store::KvStore store;
  for (int i = 0; i < 500; ++i) {
    store.Put(rng.Next(), Value(rng.Below(20), 'x'));
  }
  const store::KvStore original = store;
  // Split at random points (possibly wrapping), erase + merge back.
  const Key a = rng.Next();
  const Key b = rng.Next();
  const ring::KeyRange arc{a, b};
  store::KvStore extracted = store.ExtractRange(arc);
  store.EraseRange(arc);
  EXPECT_EQ(extracted.size() + store.size(), original.size());
  EXPECT_EQ(extracted.byte_size() + store.byte_size(),
            original.byte_size());
  store.MergeFrom(extracted);
  EXPECT_EQ(store, original);
  EXPECT_EQ(store.byte_size(), original.byte_size());
}

// The store's contents in key order, checking that ForEach ascends.
std::map<Key, Value> Contents(const store::KvStore& store) {
  std::map<Key, Value> out;
  std::optional<Key> prev;
  store.ForEach([&out, &prev](Key k, const Value& v) {
    EXPECT_TRUE(!prev.has_value() || *prev < k) << "ForEach out of order";
    prev = k;
    out.emplace(k, v);
  });
  return out;
}

size_t ModelBytes(const std::map<Key, Value>& model) {
  size_t bytes = 0;
  for (const auto& [k, v] : model) {
    bytes += 8 + v.size();
  }
  return bytes;
}

// Tens of thousands of keys: the store's sorted runs split many times on the
// way up and empty out (and are dropped) on the way down. Every range
// operation is checked against a std::map model at each stage.
TEST_P(KvStoreProperty, LargeKeySpaceMatchesModel) {
  Rng rng(GetParam() * 101);
  store::KvStore store;
  std::map<Key, Value> model;
  // A pool of distinct keys spread over the whole ring, inserted in random
  // order so inserts land inside runs rather than only at the end.
  std::vector<Key> pool;
  for (int i = 0; i < 50000; ++i) {
    pool.push_back(rng.Next());
  }
  auto value_for = [&rng]() {
    return Value(rng.Below(24), 'a' + static_cast<char>(rng.Below(26)));
  };
  auto check_ranges = [&store, &model, &rng](const char* stage) {
    SCOPED_TRACE(stage);
    ASSERT_EQ(store.size(), model.size());
    ASSERT_EQ(store.byte_size(), ModelBytes(model));
    ASSERT_EQ(Contents(store), model);
    for (int trial = 0; trial < 8; ++trial) {
      // Plain, wrapping and full arcs.
      const Key a = rng.Next();
      const Key b = trial % 4 == 3 ? a : rng.Next();
      const ring::KeyRange arc{a, b};
      std::map<Key, Value> inside;
      std::map<Key, Value> outside;
      for (const auto& [k, v] : model) {
        (arc.Contains(k) ? inside : outside).emplace(k, v);
      }
      const store::KvStore extracted = store.ExtractRange(arc);
      EXPECT_EQ(Contents(extracted), inside);
      EXPECT_EQ(extracted.byte_size(), ModelBytes(inside));
      EXPECT_EQ(store.CountRange(arc), inside.size());
      const std::optional<Key> stray = store.FirstKeyOutside(arc);
      if (outside.empty()) {
        EXPECT_FALSE(stray.has_value());
      } else {
        ASSERT_TRUE(stray.has_value());
        EXPECT_EQ(outside.count(*stray), 1u);
      }
      store::KvStore rest = store;
      EXPECT_EQ(rest, store);
      rest.EraseRange(arc);
      EXPECT_EQ(Contents(rest), outside);
      EXPECT_EQ(rest.byte_size(), ModelBytes(outside));
      if (!arc.IsFull()) {
        // What is left lies on the complement arc.
        EXPECT_FALSE(rest.FirstKeyOutside(ring::KeyRange{b, a}).has_value());
      }
      if (!inside.empty()) {
        EXPECT_FALSE(rest == store);
      }
      rest.MergeFrom(extracted);
      EXPECT_EQ(rest, store);
    }
  };

  // Grow: random puts (some overwrites) with point lookups along the way.
  for (size_t i = 0; i < pool.size(); ++i) {
    const Key key = pool[rng.Below(i + 1)];
    Value v = value_for();
    store.Put(key, v);
    model[key] = std::move(v);
    const Key probe = rng.Bernoulli(0.5) ? pool[rng.Below(pool.size())]
                                         : rng.Next();
    auto it = model.find(probe);
    const std::optional<Value> got = store.Get(probe);
    ASSERT_EQ(got.has_value(), it != model.end()) << "step " << i;
    if (got.has_value()) {
      ASSERT_EQ(*got, it->second);
    }
  }
  check_ranges("after growth");

  // Shrink: delete most keys, so whole runs empty out.
  for (size_t i = 0; i < pool.size(); ++i) {
    const Key key = pool[rng.Below(pool.size())];
    ASSERT_EQ(store.Delete(key), model.erase(key) > 0) << "step " << i;
  }
  check_ranges("after deletes");

  // Delete contiguous stretches too: every key of a few random arcs.
  for (int i = 0; i < 4; ++i) {
    const ring::KeyRange arc{rng.Next(), rng.Next()};
    for (auto it = model.begin(); it != model.end();) {
      if (arc.Contains(it->first)) {
        EXPECT_TRUE(store.Delete(it->first));
        it = model.erase(it);
      } else {
        ++it;
      }
    }
  }
  check_ranges("after arc deletes");

  // Down to empty, then back up from empty.
  for (Key k : pool) {
    store.Delete(k);
    model.erase(k);
  }
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.byte_size(), 0u);
  EXPECT_EQ(store, store::KvStore());
  for (int i = 0; i < 1000; ++i) {
    const Key key = pool[rng.Below(pool.size())];
    store.Put(key, "v");
    model[key] = "v";
  }
  check_ranges("after regrowth");
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvStoreProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- RingMap: structural invariants under random feeds -----------------------

class RingMapProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RingMapProperty, InvariantsUnderRandomUpserts) {
  Rng rng(GetParam() * 7 + 5);
  ring::RingMap map;
  std::vector<ring::GroupInfo> fed;
  for (int step = 0; step < 400; ++step) {
    ring::GroupInfo info;
    info.id = 1 + rng.Below(40);
    const Key begin = rng.Next();
    info.range = ring::KeyRange{begin, begin + 1 + rng.Below(1ull << 60)};
    info.epoch = 1 + rng.Below(6);
    info.members = {1, 2, 3};
    map.Upsert(info);
    fed.push_back(info);

    // Invariant 1: no two cached arcs overlap.
    auto arcs = map.All();
    for (size_t i = 0; i < arcs.size(); ++i) {
      for (size_t j = i + 1; j < arcs.size(); ++j) {
        ASSERT_FALSE(arcs[i].range.Overlaps(arcs[j].range))
            << arcs[i].ToString() << " vs " << arcs[j].ToString();
      }
    }
    // Invariant 2: Lookup(key) returns an arc containing the key, or null.
    for (int probe = 0; probe < 5; ++probe) {
      const Key k = rng.Next();
      const ring::GroupInfo* hit = map.Lookup(k);
      if (hit != nullptr) {
        ASSERT_TRUE(hit->range.Contains(k));
      }
    }
    // Invariant 3: ClosestPreceding never returns null on a non-empty map.
    ASSERT_NE(map.ClosestPreceding(rng.Next()), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingMapProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- Histogram: percentile sanity under random merges ------------------------

class HistogramProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramProperty, PercentilesBoundedAndMonotone) {
  Rng rng(GetParam() * 13);
  Histogram merged;
  std::vector<int64_t> all;
  for (int part = 0; part < 4; ++part) {
    Histogram h;
    const int n = 100 + static_cast<int>(rng.Below(900));
    for (int i = 0; i < n; ++i) {
      const int64_t sample =
          static_cast<int64_t>(rng.Below(1) ? rng.Below(100)
                                            : rng.Below(10000000));
      h.Record(sample);
      all.push_back(sample);
    }
    merged.Merge(h);
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(merged.count(), all.size());
  EXPECT_EQ(merged.min(), all.front());
  EXPECT_EQ(merged.max(), all.back());
  int64_t prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const int64_t v = merged.Percentile(p);
    EXPECT_GE(v, prev);          // monotone in p
    EXPECT_GE(v, merged.min());
    EXPECT_LE(v, merged.max());
    // Bucketed accuracy: within ~7% of the exact order statistic.
    const size_t rank = std::min(
        all.size() - 1,
        static_cast<size_t>(p / 100.0 * static_cast<double>(all.size())));
    const double exact = static_cast<double>(all[rank]);
    EXPECT_LE(static_cast<double>(v), exact * 1.08 + 8);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- Full-system churn sweep --------------------------------------------------

struct ChurnSweepParam {
  uint64_t seed;
  TimeMicros lifetime;
};

class ScatterChurnSweep : public ::testing::TestWithParam<ChurnSweepParam> {};

TEST_P(ScatterChurnSweep, ConsistentAtEveryChurnLevel) {
  const ChurnSweepParam param = GetParam();
  core::ClusterConfig cfg;
  cfg.seed = param.seed;
  cfg.initial_nodes = 24;
  cfg.initial_groups = 4;
  core::Cluster c(cfg);
  c.RunFor(Seconds(2));

  workload::WorkloadConfig wcfg;
  wcfg.num_clients = 4;
  wcfg.write_fraction = 0.5;
  wcfg.key_space = 250;
  wcfg.think_time = Millis(10);
  std::vector<KvClient*> clients;
  for (size_t i = 0; i < wcfg.num_clients; ++i) {
    clients.push_back(c.AddClient());
  }
  workload::WorkloadDriver driver(&c.sim(), clients, wcfg);
  driver.Start();

  churn::ChurnConfig ccfg;
  ccfg.median_lifetime = param.lifetime;
  churn::ChurnDriver churner(&c.sim(), c.ChurnHooksFor(), ccfg);
  churner.Start();

  c.RunFor(Seconds(90));
  churner.Stop();
  driver.Stop();
  c.RunFor(Seconds(8));
  driver.history().Close(c.sim().now());

  verify::LinearizabilityChecker checker;
  auto lin = checker.CheckAll(driver.history().PerKeyHistories());
  EXPECT_TRUE(lin.linearizable)
      << "seed " << param.seed << ": " << lin.Summary();
  EXPECT_TRUE(lin.inconclusive.empty()) << lin.Summary();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScatterChurnSweep,
    ::testing::Values(ChurnSweepParam{10, Seconds(45)},
                      ChurnSweepParam{11, Seconds(45)},
                      ChurnSweepParam{12, Seconds(90)},
                      ChurnSweepParam{13, Seconds(90)},
                      ChurnSweepParam{14, Seconds(180)},
                      ChurnSweepParam{15, Seconds(180)}));

}  // namespace
}  // namespace scatter
