#include "src/wire/buffer_pool.h"

#include <memory>
#include <utility>

#include "src/obs/metrics.h"

// Poison released buffers whenever asserts are live or ASan is watching.
// The memset makes a stale read through a kept pointer visibly wrong; the
// clear() that follows lets the libstdc++ container annotations mark the
// whole [0, capacity) region unaddressable under ASan, so the same mistake
// becomes a hard error there.
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__)
#define SCATTER_BUFFER_POOL_POISON 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SCATTER_BUFFER_POOL_POISON 1
#endif
#endif

namespace scatter::wire {
namespace {

// Capacities chosen against the frame population: most protocol frames
// (heartbeats, promises, acks) fit in 128–512 bytes; batched Accepts with
// command payloads land in the 2–8 KiB classes; the top class covers large
// snapshots. Anything bigger is served unpooled.
constexpr size_t kClassCapacities[] = {128, 512, 2048, 8192, 32768, 131072};
constexpr size_t kNumClasses =
    sizeof(kClassCapacities) / sizeof(kClassCapacities[0]);
constexpr size_t kNoClass = static_cast<size_t>(-1);

size_t ClassIndexFor(size_t size) {
  for (size_t i = 0; i < kNumClasses; ++i) {
    if (size <= kClassCapacities[i]) {
      return i;
    }
  }
  return kNoClass;
}

}  // namespace

BufferPool::BufferPool() : BufferPool(Config{}) {}

BufferPool::BufferPool(Config config, obs::MetricsRegistry* metrics)
    : config_(config), classes_(kNumClasses), metrics_(metrics) {}

BufferPool::Cells& BufferPool::CellsFor(NodeId node) {
  auto [it, inserted] = cells_.try_emplace(node);
  if (inserted) {
    Cells& cells = it->second;
    if (metrics_ != nullptr) {
      cells.hit = &metrics_->GetCounter("wire.pool.hit", node);
      cells.miss = &metrics_->GetCounter("wire.pool.miss", node);
      cells.discard = &metrics_->GetCounter("wire.pool.discard", node);
    } else {
      cells.hit = &local_hits_;
      cells.miss = &local_misses_;
      cells.discard = &local_discards_;
    }
  }
  return it->second;
}

BufferPool::~BufferPool() = default;

size_t BufferPool::ClassCapacity(size_t size_hint) {
  const size_t idx = ClassIndexFor(size_hint);
  return idx == kNoClass ? size_hint : kClassCapacities[idx];
}

BufferPool::Handle BufferPool::Acquire(size_t size_hint, NodeId node) {
  const size_t idx = ClassIndexFor(size_hint);
  if (idx != kNoClass) {
    // A larger class serves a smaller request fine, so scan upward from the
    // hinted class. This matters when ByteSize() hints low: the buffer grows
    // mid-encode and Release re-bins it into a bigger class, and without the
    // fallback the hinted class would stay empty forever — every Acquire a
    // fresh allocation plus a mid-encode realloc, with the grown buffers
    // piling up unused.
    for (size_t i = idx; i < classes_.size(); ++i) {
      if (!classes_[i].empty()) {
        Buffer* buffer = classes_[i].back().release();
        classes_[i].pop_back();
        ++*CellsFor(node).hit;
        total_hits_++;
        return Handle(this, buffer, node);
      }
    }
  }
  ++*CellsFor(node).miss;
  total_misses_++;
  auto buffer = std::make_unique<Buffer>();
  buffer->Reserve(ClassCapacity(size_hint));
  return Handle(this, buffer.release(), node);
}

void BufferPool::Release(Buffer* raw, NodeId node) {
  std::unique_ptr<Buffer> buffer(raw);
  // Re-bin by what the buffer actually grew to, not what was hinted: a
  // buffer that expanded mid-encode must land in the class whose next
  // Acquire can use that capacity without another growth.
  const size_t idx = ClassIndexFor(buffer->capacity());
  if (idx == kNoClass ||
      classes_[idx].size() >= config_.max_buffers_per_class) {
    ++*CellsFor(node).discard;
    total_discards_++;
    return;
  }
#ifdef SCATTER_BUFFER_POOL_POISON
  buffer->Poison(0xA5);
#endif
  buffer->clear();
  classes_[idx].push_back(std::move(buffer));
}

size_t BufferPool::pooled_buffers() const {
  size_t total = 0;
  for (const auto& freelist : classes_) {
    total += freelist.size();
  }
  return total;
}

}  // namespace scatter::wire
