// Size-classed freelist pool for wire::Buffer.
//
// The serializing transports encode and decode one frame per delivery; a
// fresh byte vector per frame puts an allocate/free pair plus cold-cache
// growth on the hottest path in the system. The pool keeps released buffers
// (with their grown capacity) on per-size-class freelists, so steady-state
// traffic recycles a handful of warm allocations instead of churning the
// allocator.
//
// Lifecycle: Acquire(size_hint) hands out an empty Buffer whose capacity
// class covers the hint, preferring the freelist (a "hit") over a fresh
// allocation (a "miss"). The returned Handle releases the buffer back to the
// pool when it goes out of scope; Release re-bins the buffer by its actual
// capacity, so a buffer that grew mid-encode migrates to the matching class.
// Freelists are bounded — releases beyond the cap free the buffer (a
// "discard") so a one-off burst cannot pin memory forever.
//
// Debug hygiene: in debug and sanitizer builds every released buffer is
// poisoned with 0xA5 before it re-enters a freelist, so code that kept a
// stale pointer into a released frame reads a recognizable pattern instead
// of the previous contents. Under AddressSanitizer the libstdc++ container
// annotations additionally poison the [size, capacity) region after the
// clear, turning a stale read into a hard ASan error — the pool-recycling
// test relies on this.
//
// Determinism: the pool never consumes simulation RNG or time; whether a
// frame came from the freelist or a fresh allocation is invisible to the
// bytes produced.

#ifndef SCATTER_SRC_WIRE_BUFFER_POOL_H_
#define SCATTER_SRC_WIRE_BUFFER_POOL_H_

#include <memory>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/histogram.h"
#include "src/common/types.h"
#include "src/wire/buffer.h"

namespace scatter::obs {
class MetricsRegistry;
}  // namespace scatter::obs

namespace scatter::wire {

class BufferPool {
 public:
  struct Config {
    // Per-class freelist bound; releases past it free the buffer.
    size_t max_buffers_per_class = 64;
  };

  // When `metrics` is non-null the pool binds its counters to registry cells
  // ("wire.pool.hit" / "wire.pool.miss" / "wire.pool.discard"), so pool
  // efficiency shows up in the standard metrics export next to the protocol
  // counters. Cells are keyed by the NodeId the caller passes to Acquire
  // (the frame's destination, when the transport knows it; 0 = unattributed)
  // so per-node health detection and scatter-top aren't reading one
  // cluster-wide aggregate. With a null registry the counters live in the
  // pool itself.
  BufferPool();  // Config defaults (standard class caps).
  explicit BufferPool(Config config, obs::MetricsRegistry* metrics = nullptr);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // RAII lease on a pooled buffer. Move-only; releasing happens exactly once
  // when the last holder goes out of scope. The Buffer must not be touched
  // after the Handle dies — debug builds poison it, ASan rejects the access.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& other) noexcept
        : pool_(other.pool_), buffer_(other.buffer_) {
      other.pool_ = nullptr;
      other.buffer_ = nullptr;
    }
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        Reset();
        pool_ = other.pool_;
        buffer_ = other.buffer_;
        other.pool_ = nullptr;
        other.buffer_ = nullptr;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { Reset(); }

    Buffer& operator*() { return *buffer_; }
    Buffer* operator->() { return buffer_; }
    const Buffer& operator*() const { return *buffer_; }
    const Buffer* operator->() const { return buffer_; }

    const uint8_t* data() const { return buffer_->data(); }
    size_t size() const { return buffer_->size(); }

   private:
    friend class BufferPool;
    Handle(BufferPool* pool, Buffer* buffer, NodeId node)
        : pool_(pool), buffer_(buffer), node_(node) {}
    void Reset() {
      if (pool_ != nullptr) {
        pool_->Release(buffer_, node_);
        pool_ = nullptr;
        buffer_ = nullptr;
      }
    }

    BufferPool* pool_ = nullptr;
    Buffer* buffer_ = nullptr;
    // Attribution for the eventual release: a discard counts against the
    // node whose frame grew the buffer.
    NodeId node_ = 0;
  };

  // Hands out an empty buffer whose capacity class covers `size_hint` bytes
  // (a hint, not a bound — the buffer still grows past it if an encoder
  // needs more). `node` attributes the hit/miss (and the eventual release)
  // to a per-node registry cell; 0 = unattributed.
  Handle Acquire(size_t size_hint, NodeId node = 0);

  // --- Introspection (tests, benchmarks, metrics mirrors) ----------------
  // Totals across all node attributions (maintained separately from the
  // registry cells, which are sharded by node).
  uint64_t hits() const { return total_hits_; }
  uint64_t misses() const { return total_misses_; }
  uint64_t discards() const { return total_discards_; }
  // Buffers currently parked on freelists.
  size_t pooled_buffers() const;

  // Capacity (bytes) of the size class that serves `size_hint`.
  static size_t ClassCapacity(size_t size_hint);

 private:
  friend class Handle;
  void Release(Buffer* buffer, NodeId node);

  // Per-node counter cells, bound lazily on first use of that node.
  struct Cells {
    Counter* hit = nullptr;
    Counter* miss = nullptr;
    Counter* discard = nullptr;
  };
  Cells& CellsFor(NodeId node);

  Config config_;
  // One freelist per size class; see kClassCapacities in buffer_pool.cc.
  std::vector<std::vector<std::unique_ptr<Buffer>>> classes_;
  // nullptr = registry-less pool; the cells then all point at the locals.
  obs::MetricsRegistry* metrics_ = nullptr;
  FlatMap<NodeId, Cells> cells_;
  // Local fallback cells; written only through Cells pointers.
  Counter local_hits_;
  Counter local_misses_;
  Counter local_discards_;
  uint64_t total_hits_ = 0;
  uint64_t total_misses_ = 0;
  uint64_t total_discards_ = 0;
};

}  // namespace scatter::wire

#endif  // SCATTER_SRC_WIRE_BUFFER_POOL_H_
