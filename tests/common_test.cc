// Unit tests for src/common: status, rng, histogram, hashing, the inline
// callable and the pooled allocator.

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/inline_fn.h"
#include "src/common/json.h"
#include "src/common/pooled.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace scatter {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = TimeoutError("op timed out");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_EQ(s.message(), "op timed out");
  EXPECT_EQ(s.ToString(), "TIMEOUT: op timed out");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(NotFoundError("missing"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(BallotTest, Ordering) {
  Ballot a{1, 5};
  Ballot b{1, 6};
  Ballot c{2, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
  EXPECT_FALSE(kInvalidBallot.valid());
  EXPECT_TRUE(a.valid());
  EXPECT_LT(kInvalidBallot, a);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::map<uint64_t, int> counts;
  constexpr int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t v = rng.Below(6);
    ASSERT_LT(v, 6u);
    counts[v]++;
  }
  for (const auto& [v, n] : counts) {
    EXPECT_NEAR(n, kDraws / 6, kDraws / 60) << "value " << v;
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    sum += rng.Exponential(250.0);
  }
  EXPECT_NEAR(sum / kDraws, 250.0, 5.0);
}

TEST(RngTest, ParetoRespectsMinimumAndHeavyTail) {
  Rng rng(13);
  double max_seen = 0;
  for (int i = 0; i < 100000; ++i) {
    double v = rng.Pareto(1.5, 10.0);
    ASSERT_GE(v, 10.0);
    max_seen = std::max(max_seen, v);
  }
  // A Pareto(1.5) tail should produce some very large values.
  EXPECT_GT(max_seen, 1000.0);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  // The child stream should not replicate the parent stream.
  Rng b(21);
  b.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(ZipfTest, DegenerateUniform) {
  Rng rng(31);
  ZipfSampler zipf(10, 0.0);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) {
    counts[zipf.Sample(rng)]++;
  }
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [v, n] : counts) {
    EXPECT_NEAR(n, 5000, 500) << "value " << v;
  }
}

TEST(ZipfTest, SkewFavorsLowRanks) {
  Rng rng(33);
  ZipfSampler zipf(1000, 1.0);
  std::map<uint64_t, int> counts;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t v = zipf.Sample(rng);
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Rank 0 should get ~ 1/H(1000) ~ 13% of the mass; rank 1 half of that.
  EXPECT_GT(counts[0], kDraws / 10);
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[4]);
  // Expected ratio rank0/rank1 = 2 for s=1.
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[1], 2.0, 0.4);
}

TEST(ZipfTest, SingleElement) {
  Rng rng(35);
  ZipfSampler zipf(1, 1.2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf.Sample(rng), 0u);
  }
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, SingleSample) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_NEAR(h.Percentile(50), 1000, 70);  // bucket resolution ~6%
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  Rng rng(41);
  for (int i = 0; i < 10000; ++i) {
    h.Record(static_cast<int64_t>(rng.Below(100000)));
  }
  const int64_t p50 = h.Percentile(50);
  const int64_t p90 = h.Percentile(90);
  const int64_t p99 = h.Percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  EXPECT_NEAR(static_cast<double>(p50), 50000.0, 5000.0);
  EXPECT_NEAR(static_cast<double>(p90), 90000.0, 9000.0);
}

TEST(HistogramTest, MeanExact) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(5);
  b.Record(500000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 5);
  EXPECT_EQ(a.max(), 500000);
}

TEST(HistogramTest, NegativeClampedToZero) {
  Histogram h;
  h.Record(-100);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, LargeValues) {
  Histogram h;
  const int64_t big = int64_t{1} << 40;
  h.Record(big);
  EXPECT_EQ(h.max(), big);
  // Percentile is bucket-approximate: within ~7%.
  EXPECT_NEAR(static_cast<double>(h.Percentile(99)),
              static_cast<double>(big), static_cast<double>(big) * 0.07);
}

TEST(HashTest, StableAcrossCalls) {
  EXPECT_EQ(KeyFromString("user:42"), KeyFromString("user:42"));
  EXPECT_NE(KeyFromString("user:42"), KeyFromString("user:43"));
}

TEST(HashTest, SpreadsShortKeys) {
  // Sequential keys should land far apart on the ring.
  std::set<uint64_t> buckets;
  for (int i = 0; i < 1000; ++i) {
    Key k = KeyFromString("k" + std::to_string(i));
    buckets.insert(k >> 56);  // top byte: 256 coarse buckets
  }
  EXPECT_GT(buckets.size(), 200u);
}

TEST(HashTest, MixHashDiffers) {
  EXPECT_NE(MixHash(1, 2), MixHash(2, 1));
  EXPECT_NE(MixHash(1, 2), MixHash(1, 3));
}

// --- InlineFn -------------------------------------------------------------

TEST(InlineFnTest, ForwardsArgumentsAndReturnsTheResult) {
  InlineFn<int(int, const std::string&)> f =
      [base = 10](int x, const std::string& s) {
        return base + x + static_cast<int>(s.size());
      };
  EXPECT_EQ(f(1, "abc"), 14);
}

TEST(InlineFnTest, AcceptsMoveOnlyCapturesAndArguments) {
  InlineFn<int(std::unique_ptr<int>)> f =
      [q = std::make_unique<int>(5)](std::unique_ptr<int> r) {
        return *q + *r;
      };
  InlineFn<int(std::unique_ptr<int>)> g = std::move(f);
  EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move): moved-from is empty
  ASSERT_TRUE(g);
  EXPECT_EQ(g(std::make_unique<int>(2)), 7);
}

TEST(InlineFnTest, LargeCapturesFallBackToTheHeap) {
  std::array<uint64_t, 32> big{};
  big[31] = 9;
  static_assert(sizeof(big) > InlineFn<uint64_t()>::kInlineSize);
  InlineFn<uint64_t()> f = [big] { return big[31]; };
  InlineFn<uint64_t()> g = std::move(f);
  EXPECT_EQ(g(), 9u);
}

TEST(InlineFnTest, DestroysTheCaptureExactlyOnce) {
  auto token = std::make_shared<int>(0);
  {
    InlineFn<void()> f = [token] {};
    EXPECT_EQ(token.use_count(), 2);
    InlineFn<void()> g = std::move(f);
    EXPECT_EQ(token.use_count(), 2);
    InlineFn<void()> h;
    h = std::move(g);
    EXPECT_EQ(token.use_count(), 2);
    h.Reset();
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// KvClient's std::function callbacks are handed to Client's InlineFn
// callbacks; the wrapped std::function fits the inline buffer.
TEST(InlineFnTest, WrapsAStdFunctionInline) {
  using Fn = std::function<void(Status)>;
  static_assert(sizeof(Fn) <= InlineFn<void(Status)>::kInlineSize);
  static_assert(std::is_nothrow_move_constructible_v<Fn>);
  Status seen = InternalError("unset");
  Fn std_fn = [&seen](Status s) { seen = std::move(s); };
  InlineFn<void(Status)> f = std::move(std_fn);
  f(TimeoutError("late"));
  EXPECT_EQ(seen.code(), StatusCode::kTimeout);
}

// --- MakePooled -----------------------------------------------------------

struct PooledBlob {
  explicit PooledBlob(int v) : value(v) {}
  int value;
  char pad[100] = {};
};

TEST(PooledTest, ReleasedBlockIsReusedForItsSizeClass) {
  auto a = MakePooled<PooledBlob>(1);
  const void* block = a.get();
  a.reset();
  auto b = MakePooled<PooledBlob>(2);
  EXPECT_EQ(static_cast<const void*>(b.get()), block);
  EXPECT_EQ(b->value, 2);
  // A live block is never handed out twice.
  auto c = MakePooled<PooledBlob>(3);
  EXPECT_NE(c.get(), b.get());
  EXPECT_EQ(b->value, 2);
  EXPECT_EQ(c->value, 3);
}

TEST(PooledTest, OversizeObjectsBypassThePool) {
  struct Huge {
    std::array<char, 4 * pool_internal::kMaxPooledSize> bytes{};
  };
  auto a = MakePooled<Huge>();
  a->bytes.back() = 7;
  std::shared_ptr<const Huge> b = a;
  a.reset();
  EXPECT_EQ(b->bytes.back(), 7);
}

#ifdef SCATTER_POOL_ASAN
// A released block stays poisoned while it sits on the free list, so a
// use of a released pooled object is still an ASan report.
TEST(PooledTest, FreeBlocksArePoisonedUnderAddressSanitizer) {
  auto a = MakePooled<PooledBlob>(1);
  const PooledBlob* raw = a.get();
  a.reset();
  EXPECT_TRUE(__asan_address_is_poisoned(&raw->value));
  EXPECT_DEATH(
      {
        volatile int v = raw->value;
        (void)v;
      },
      "use-after-poison");
  auto b = MakePooled<PooledBlob>(2);
  EXPECT_EQ(b.get(), raw);
  EXPECT_FALSE(__asan_address_is_poisoned(&b->value));
}
#endif

// ---------------------------------------------------------------------------
// JSON writer and reader
// ---------------------------------------------------------------------------

TEST(JsonTest, WritersEscapeAndFormat) {
  std::string out;
  json::AppendString(&out, "a\"b\\c\nd\te\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  out.clear();
  json::AppendU64(&out, "u", UINT64_MAX);
  out += ",";
  json::AppendI64(&out, "i", INT64_MIN);
  out += ",";
  json::AppendDouble(&out, "d", 0.1);
  EXPECT_EQ(out,
            "\"u\":18446744073709551615,\"i\":-9223372036854775808,"
            "\"d\":0.10000000000000001");
}

TEST(JsonTest, ParsesDocumentsAndRoundTripsStrings) {
  std::string doc = "{\"s\":";
  json::AppendString(&doc, std::string("q\"\x1f\\", 4));
  doc += ", \"a\": [true, false, null, -0.5e+2, {}], \"o\": {\"k\": []}}";
  json::Value v;
  std::string error;
  ASSERT_TRUE(json::Parse(doc, &v, &error)) << error;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Find("s")->text, std::string("q\"\x1f\\", 4));
  const json::Value* a = v.Find("a");
  ASSERT_TRUE(a != nullptr && a->is_array());
  ASSERT_EQ(a->array.size(), 5u);
  EXPECT_TRUE(a->array[0].boolean);
  EXPECT_EQ(a->array[2].type, json::Value::Type::kNull);
  double d = 0;
  ASSERT_TRUE(a->array[3].AsDouble(&d));
  EXPECT_EQ(d, -50.0);
  EXPECT_TRUE(a->array[4].is_object());
  EXPECT_TRUE(v.Find("o")->Find("k")->is_array());
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonTest, ReadsIntegersExactlyAndFailsOnOverflow) {
  auto number = [](const std::string& token) {
    json::Value v;
    EXPECT_TRUE(json::Parse(token, &v)) << token;
    return v;
  };
  uint64_t u = 0;
  int64_t i = 0;
  EXPECT_TRUE(number("18446744073709551615").AsU64(&u));
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_FALSE(number("18446744073709551616").AsU64(&u));
  EXPECT_FALSE(number("-1").AsU64(&u));
  EXPECT_TRUE(number("-9223372036854775808").AsI64(&i));
  EXPECT_EQ(i, INT64_MIN);
  EXPECT_TRUE(number("9223372036854775807").AsI64(&i));
  EXPECT_EQ(i, INT64_MAX);
  EXPECT_FALSE(number("9223372036854775808").AsI64(&i));
  EXPECT_FALSE(number("-9223372036854775809").AsI64(&i));
  // Integer reads want an integer token.
  EXPECT_FALSE(number("1e3").AsI64(&i));
  EXPECT_FALSE(number("1.0").AsU64(&u));
  double d = 0;
  EXPECT_FALSE(number("1e400").AsDouble(&d));
  EXPECT_FALSE(json::Value().AsDouble(&d));
}

TEST(JsonTest, RejectsWhatJsonDoesNotAllow) {
  for (const char* bad :
       {"", "+1", "0x10", "inf", "-inf", "nan", "01", "1.", ".5", "1e",
        "-", "[1,]", "{\"a\":1,}", "{\"a\" 1}", "{1:2}", "[1 2]",
        "\"unterminated", "\"bad\\q\"", "\"\\u12g4\"", "\"raw\ttab\"",
        "tru", "nul", "{} {}", "[] x", "1 2"}) {
    json::Value v;
    std::string error;
    EXPECT_FALSE(json::Parse(bad, &v, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  std::string deep(66, '[');
  deep += std::string(66, ']');
  json::Value v;
  EXPECT_FALSE(json::Parse(deep, &v));
  std::string shallow(65, '[');
  shallow += std::string(65, ']');
  EXPECT_TRUE(json::Parse(shallow, &v));
}

}  // namespace
}  // namespace scatter
