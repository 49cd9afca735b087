// InlineFn<R(Args...)>: a small-buffer, move-only callable.
//
// The simulator's event callbacks, the RPC layer's reply callbacks and the
// protocol completion callbacks all sit on the request/reply hot path.
// std::function forces copy-constructible targets and heap-allocates any
// capture beyond its 16-byte small buffer. InlineFn accepts move-only
// captures and keeps anything up to kInlineSize bytes inline, so the common
// case — a lambda capturing `this` plus a few words, or a whole
// std::function — costs zero allocations. Larger callables still work; they
// fall back to one heap allocation.

#ifndef SCATTER_SRC_COMMON_INLINE_FN_H_
#define SCATTER_SRC_COMMON_INLINE_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace scatter {

template <typename Signature>
class InlineFn;

template <typename R, typename... Args>
class InlineFn<R(Args...)> {
 public:
  // Protocol callbacks capture `this` plus a handful of words: a client
  // retry's `[this, op]` is 24 bytes, a lease read's reply closure (request,
  // group, span, timestamps, key) about 72. TimerOwner stores callbacks as
  // they are, without a wrapper, so that is all a slot must hold; the rest
  // is headroom for test, bench and tool callbacks.
  static constexpr size_t kInlineSize = 88;

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFn(InlineFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { Reset(); }

  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-construct into `to` and destroy the source (storage is treated as
    // trivially relocatable at the InlineFn level).
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* storage);
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(s)))(
            std::forward<Args>(args)...);
      },
      [](void* from, void* to) {
        D* src = std::launder(reinterpret_cast<D*>(from));
        ::new (to) D(std::move(*src));
        src->~D();
      },
      [](void* s) { std::launder(reinterpret_cast<D*>(s))->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s, Args&&... args) -> R {
        return (**reinterpret_cast<D**>(s))(std::forward<Args>(args)...);
      },
      [](void* from, void* to) {
        *reinterpret_cast<D**>(to) = *reinterpret_cast<D**>(from);
      },
      [](void* s) { delete *reinterpret_cast<D**>(s); },
  };

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
};

}  // namespace scatter

#endif  // SCATTER_SRC_COMMON_INLINE_FN_H_
