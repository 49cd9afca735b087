// MakePooled<T>(args...): std::allocate_shared over per-size-class free
// lists.
//
// Every RPC hop creates and drops a few shared objects — the request, the
// reply, a client's op record, a decoded command — and glibc malloc/free
// was a fifth of the request/reply path's CPU. PoolAllocator is a stateless
// allocator whose blocks (the shared_ptr control block and the object, in
// one allocation) come from a free list per 16-byte size class. A freed
// block goes back on its class's list and is handed out again as is, so a
// steady stream of same-sized objects allocates nothing after warm-up.
//
// The process has one thread, so the lists are plain globals. Blocks are
// never returned to the system allocator: pooled memory is bounded by the
// peak number of live pooled objects. Blocks come from ::operator new one
// at a time, so AddressSanitizer keeps its redzones around each one, and a
// block is poisoned — all but its free-list link — for as long as it sits
// on a free list: a use of a released object still trips ASan. Sizes above
// kMaxPooledSize bypass the pool. This is deliberately not a global
// operator new replacement — only the hot call sites opt in.

#ifndef SCATTER_SRC_COMMON_POOLED_H_
#define SCATTER_SRC_COMMON_POOLED_H_

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define SCATTER_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SCATTER_POOL_ASAN 1
#endif
#endif

#ifdef SCATTER_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace scatter {
namespace pool_internal {

inline constexpr size_t kGranule = 16;
inline constexpr size_t kMaxPooledSize = 1024;
inline constexpr size_t kClassCount = kMaxPooledSize / kGranule;

struct FreeBlock {
  FreeBlock* next;
};

// Head of each size class's free list; class c holds blocks of
// (c + 1) * kGranule bytes.
inline FreeBlock* free_lists[kClassCount] = {};

inline size_t ClassOf(size_t bytes) { return (bytes - 1) / kGranule; }

inline void* Allocate(size_t bytes) {
  if (bytes == 0 || bytes > kMaxPooledSize) {
    return ::operator new(bytes);
  }
  const size_t c = ClassOf(bytes);
  FreeBlock* block = free_lists[c];
  if (block == nullptr) {
    return ::operator new((c + 1) * kGranule);
  }
  free_lists[c] = block->next;
#ifdef SCATTER_POOL_ASAN
  ASAN_UNPOISON_MEMORY_REGION(block + 1,
                              (c + 1) * kGranule - sizeof(*block));
#endif
  return block;
}

inline void Release(void* p, size_t bytes) noexcept {
  if (bytes == 0 || bytes > kMaxPooledSize) {
    ::operator delete(p);
    return;
  }
  const size_t c = ClassOf(bytes);
  auto* block = ::new (p) FreeBlock{free_lists[c]};
  free_lists[c] = block;
#ifdef SCATTER_POOL_ASAN
  // The link word stays readable so LeakSanitizer can follow the list; it
  // overlays the shared_ptr control block's vtable pointer, never the
  // object, which lies past the control block and is poisoned in full.
  ASAN_POISON_MEMORY_REGION(block + 1,
                            (c + 1) * kGranule - sizeof(*block));
#endif
}

}  // namespace pool_internal

template <typename T>
class PoolAllocator {
 public:
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "pooled blocks carry operator new's default alignment");

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(size_t n) {
    return static_cast<T*>(pool_internal::Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept {
    pool_internal::Release(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T, typename... Args>
std::shared_ptr<T> MakePooled(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>(),
                                 std::forward<Args>(args)...);
}

}  // namespace scatter

#endif  // SCATTER_SRC_COMMON_POOLED_H_
