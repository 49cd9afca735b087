// BufferPool tests: freelist recycling (including the size-class fallback),
// bounded retention, disabled-mode pass-through, obs counter binding, and —
// the one that matters under AddressSanitizer — recycled buffers coming back
// clean after being dirtied and released. The ASan/debug release path
// poisons the old contents (0xA5) and clears the buffer, and Buffer's own
// manual ASan annotations mark everything past the write cursor
// unaddressable, so any stale read into a recycled buffer is a hard error;
// this test dirties and re-acquires buffers in a tight loop to give those
// annotations something to bite on.

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/wire/buffer_pool.h"

namespace scatter::wire {
namespace {

BufferPool::Config Capped(size_t cap = 64) {
  BufferPool::Config config;
  config.max_buffers_per_class = cap;
  return config;
}

TEST(BufferPoolTest, AcquireMissesThenHitsOnRecycle) {
  BufferPool pool(Capped());
  {
    BufferPool::Handle h = pool.Acquire(100);
    EXPECT_EQ(h.size(), 0u);
    EXPECT_GE(h->capacity(), 100u);
    EXPECT_EQ(pool.misses(), 1u);
    EXPECT_EQ(pool.hits(), 0u);
  }
  EXPECT_EQ(pool.pooled_buffers(), 1u);
  {
    BufferPool::Handle h = pool.Acquire(100);
    EXPECT_EQ(pool.hits(), 1u);
    EXPECT_EQ(pool.misses(), 1u);
  }
  EXPECT_EQ(pool.pooled_buffers(), 1u);
  EXPECT_EQ(pool.discards(), 0u);
}

TEST(BufferPoolTest, ClassCapacityCoversHint) {
  EXPECT_GE(BufferPool::ClassCapacity(1), 1u);
  EXPECT_GE(BufferPool::ClassCapacity(128), 128u);
  EXPECT_GE(BufferPool::ClassCapacity(129), 129u);
  EXPECT_GE(BufferPool::ClassCapacity(100000), 100000u);
  // Oversize hints fall outside every class and are served exactly.
  EXPECT_EQ(BufferPool::ClassCapacity(10 * 1000 * 1000), 10u * 1000 * 1000);
}

TEST(BufferPoolTest, LargerClassServesSmallerHint) {
  BufferPool pool(Capped());
  {
    // Grow a buffer well past its hinted class; Release re-bins it by the
    // grown capacity.
    BufferPool::Handle h = pool.Acquire(64);
    h->Reserve(4000);
  }
  ASSERT_EQ(pool.pooled_buffers(), 1u);
  {
    // A small hint must still reuse that parked buffer instead of
    // allocating a fresh one (the hinted class itself is empty).
    BufferPool::Handle h = pool.Acquire(64);
    EXPECT_EQ(pool.hits(), 1u);
    EXPECT_GE(h->capacity(), 4000u);
  }
}

TEST(BufferPoolTest, BoundedRetentionDiscardsBeyondCap) {
  BufferPool pool(Capped(/*cap=*/2));
  {
    BufferPool::Handle a = pool.Acquire(64);
    BufferPool::Handle b = pool.Acquire(64);
    BufferPool::Handle c = pool.Acquire(64);
  }
  // Only two fit the class freelist; the third release frees its buffer.
  EXPECT_EQ(pool.pooled_buffers(), 2u);
  EXPECT_EQ(pool.discards(), 1u);
}

TEST(BufferPoolTest, OversizeBuffersAreNeverPooled) {
  BufferPool pool(Capped());
  {
    BufferPool::Handle h = pool.Acquire(1 << 20);
    EXPECT_GE(h->capacity(), 1u << 20);
  }
  EXPECT_EQ(pool.pooled_buffers(), 0u);
  EXPECT_EQ(pool.discards(), 1u);
}

TEST(BufferPoolTest, HandleMoveTransfersTheLease) {
  BufferPool pool(Capped());
  BufferPool::Handle a = pool.Acquire(64);
  a->WriteU64(42);
  BufferPool::Handle b = std::move(a);
  EXPECT_EQ(b.size(), 8u);
  BufferPool::Handle c;
  c = std::move(b);
  EXPECT_EQ(c.size(), 8u);
  // One underlying buffer: nothing released yet, nothing double-released
  // when the chain collapses.
  EXPECT_EQ(pool.pooled_buffers(), 0u);
  c = BufferPool::Handle();
  EXPECT_EQ(pool.pooled_buffers(), 1u);
}

// Dirty a released buffer's backing store over and over and re-acquire it.
// Every re-acquire must come back empty with no trace of the previous
// contents observable through the Buffer API. Under ASan the release-time
// clear() poisons [size, capacity), so a decoder or encoder holding a stale
// pointer into the recycled buffer dies here rather than reading the next
// frame's bytes.
TEST(BufferPoolTest, RecycledBuffersComeBackCleanAfterDirtying) {
  BufferPool pool(Capped());
  std::vector<uint8_t> previous;
  for (int round = 0; round < 64; ++round) {
    BufferPool::Handle h = pool.Acquire(512);
    ASSERT_EQ(h.size(), 0u) << "round " << round;
    // Fill with a round-specific dirty pattern of varying length.
    const size_t len = 16 + static_cast<size_t>(round) * 7 % 400;
    for (size_t i = 0; i < len; ++i) {
      h->WriteU8(static_cast<uint8_t>(round * 31 + i));
    }
    // The whole visible region is exactly what this round wrote — nothing
    // from the previous tenant leaks through.
    ASSERT_EQ(h.size(), len);
    for (size_t i = 0; i < len; ++i) {
      ASSERT_EQ(h.data()[i], static_cast<uint8_t>(round * 31 + i));
    }
    previous.assign(h.data(), h.data() + h.size());
  }
  EXPECT_EQ(pool.hits(), 63u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPoolTest, BindsCountersIntoMetricsRegistry) {
  obs::MetricsRegistry metrics;
  BufferPool pool(Capped(), &metrics);
  {
    BufferPool::Handle h = pool.Acquire(64);
  }
  {
    BufferPool::Handle h = pool.Acquire(64);
  }
  EXPECT_EQ(metrics.GetCounter("wire.pool.miss").value, 1u);
  EXPECT_EQ(metrics.GetCounter("wire.pool.hit").value, 1u);
  EXPECT_EQ(metrics.GetCounter("wire.pool.discard").value, 0u);
  // The pool's own accessors read the same cells.
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

// Many leases outstanding at once across two size classes and four nodes,
// released oldest-first so the per-class cap keeps biting: every Acquire is
// exactly one hit or one miss (per node and in total), every fresh buffer
// ends up parked or discarded, and no two live leases share a buffer.
TEST(BufferPoolTest, InterleavedLeasesAccountEveryAcquire) {
  constexpr size_t kCap = 8;
  // More live leases than both freelists can park, so the cap bites.
  constexpr size_t kWindow = 3 * kCap;
  constexpr int kNodes = 4;
  constexpr int kRounds = 400;
  obs::MetricsRegistry metrics;
  BufferPool pool(Capped(kCap), &metrics);

  struct Lease {
    BufferPool::Handle handle;
    uint64_t tag;
  };
  std::vector<Lease> live;
  auto release_oldest = [&live] {
    Lease& oldest = live.front();
    ASSERT_EQ(oldest.handle.size(), sizeof(uint64_t));
    uint64_t got;
    std::memcpy(&got, oldest.handle.data(), sizeof(got));
    EXPECT_EQ(got, oldest.tag) << "two live leases shared a buffer";
    live.erase(live.begin());
  };
  uint64_t tag = 0;
  for (int i = 0; i < kRounds; ++i) {
    for (int node = 1; node <= kNodes; ++node) {
      if (live.size() == kWindow) release_oldest();
      BufferPool::Handle h =
          pool.Acquire(/*size_hint=*/64 << (i % 3), NodeId(node));
      h->WriteU64(++tag);
      live.push_back(Lease{std::move(h), tag});
    }
  }
  while (!live.empty()) release_oldest();

  constexpr uint64_t kAcquires = uint64_t{kNodes} * kRounds;
  EXPECT_EQ(pool.hits() + pool.misses(), kAcquires);
  EXPECT_GT(pool.hits(), 0u);
  EXPECT_GT(pool.discards(), 0u);
  EXPECT_EQ(pool.misses(), pool.discards() + pool.pooled_buffers());
  EXPECT_LE(pool.pooled_buffers(), 2 * kCap);  // two classes in play
  for (int node = 1; node <= kNodes; ++node) {
    EXPECT_EQ(metrics.GetCounter("wire.pool.hit", NodeId(node)).value +
                  metrics.GetCounter("wire.pool.miss", NodeId(node)).value,
              uint64_t{kRounds})
        << "node " << node;
  }
}

}  // namespace
}  // namespace scatter::wire
