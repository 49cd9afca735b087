// Counts every allocation a test binary makes, so a test can pin a code path
// as allocation-free. The plain, array and nothrow forms of operator new and
// delete are replaced as a family (all over malloc/free) so sanitizers never
// see a mismatched allocator pair.
//
// The replacements are definitions, not declarations: include this header
// from exactly one source file of a test binary.

#ifndef SCATTER_TESTS_ALLOC_COUNTER_H_
#define SCATTER_TESTS_ALLOC_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace scatter::alloc_counter {

inline std::atomic<uint64_t> g_allocations{0};

// Allocations made so far by this process through operator new.
inline uint64_t AllocationCount() { return g_allocations.load(); }

// Out of line so the compiler never pairs an inlined free() with a
// new-expression (a -Wmismatched-new-delete false positive).
[[gnu::noinline]] inline void* CountedAlloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
[[gnu::noinline]] inline void CountedFree(void* p) { std::free(p); }

}  // namespace scatter::alloc_counter

void* operator new(std::size_t n) {
  if (void* p = scatter::alloc_counter::CountedAlloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return scatter::alloc_counter::CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return scatter::alloc_counter::CountedAlloc(n);
}
void operator delete(void* p) noexcept { scatter::alloc_counter::CountedFree(p); }
void operator delete[](void* p) noexcept { scatter::alloc_counter::CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept {
  scatter::alloc_counter::CountedFree(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  scatter::alloc_counter::CountedFree(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  scatter::alloc_counter::CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  scatter::alloc_counter::CountedFree(p);
}

#endif  // SCATTER_TESTS_ALLOC_COUNTER_H_
