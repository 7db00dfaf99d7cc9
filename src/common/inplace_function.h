// Small-buffer-optimized callable: the event-closure replacement for
// std::function on the simulator's hottest path.
//
// Every scheduled event used to cost one heap allocation: std::function's
// small-object buffer (16 bytes on libstdc++) is too small for the closures
// the transport and CPU model capture (a peer pointer, a liveness guard, a
// payload — 50-100 bytes), so each schedule() heap-allocated ~200 bytes and
// each dispatch freed them. BENCH_host.json priced that at 1 alloc per
// event. InplaceFunction stores the callable inline up to `Capacity` bytes
// and only falls back to the heap for oversized closures; the kernel counts
// those fallbacks (KernelStats::closure_heap_fallbacks) so a capture that
// quietly outgrows the buffer shows up in the bench wall instead of
// silently re-inflating the alloc rate.
//
// Differences from std::function, all deliberate:
//  * move-only — events are scheduled once and fired once; requiring
//    copyability would forbid move-only captures (e.g. a unique_ptr the
//    callback consumes), which std::function forces callers to shared_ptr
//    around;
//  * callables must be nothrow-move-constructible (statically asserted) —
//    the kernel's binary heap relocates events during sifts and a throwing
//    move would corrupt it;
//  * invoking an empty InplaceFunction is an assert, not std::bad_function_call
//    — an empty event in the kernel queue is a bug, not a recoverable state.
//
// Memory-discipline toggle: when common::memory_pooling_enabled() is false
// (set_memory_pooling_enabled(false)), every construction takes the heap
// path even when the callable would fit inline.
// Behavior is bit-identical either way — the determinism suite runs the
// same seed through both modes and diffs the results — the toggle exists
// precisely so that test can exist.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace magma::common {

// Defined in pool.cpp (shared with common::BlockPool): false disables all
// inline storage / pooling fast paths at runtime.
bool memory_pooling_enabled() noexcept;
void set_memory_pooling_enabled(bool enabled) noexcept;

template <typename Signature, std::size_t Capacity = 64>
class InplaceFunction;  // primary template: only the R(Args...) form exists

template <typename R, typename... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity> {
 public:
  static constexpr std::size_t kCapacity = Capacity;

  InplaceFunction() = default;
  InplaceFunction(std::nullptr_t) {}  // NOLINT: match std::function's = nullptr

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InplaceFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InplaceFunction(F&& f) {  // NOLINT: implicit, like std::function
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "event closures must be nothrow-move-constructible: the "
                  "kernel heap relocates them during sifts");
    if constexpr (sizeof(D) <= Capacity && alignof(D) <= alignof(Storage)) {
      if (memory_pooling_enabled()) {
        ::new (static_cast<void*>(&storage_)) D(std::forward<F>(f));
        ops_ = &kInlineOps<D>;
        return;
      }
    }
    ::new (static_cast<void*>(&storage_))
        D*(new D(std::forward<F>(f)));
    ops_ = &kHeapOps<D>;
  }

  InplaceFunction(InplaceFunction&& other) noexcept {
    move_from(std::move(other));
  }

  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(std::move(other));
    }
    return *this;
  }

  InplaceFunction& operator=(std::nullptr_t) noexcept {
    destroy();
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { destroy(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // True when the callable lives on the heap (oversized for Capacity, or
  // pooling disabled). The kernel surfaces this as a stats counter.
  bool on_heap() const noexcept { return ops_ != nullptr && ops_->on_heap; }

  R operator()(Args... args) {
    assert(ops_ != nullptr && "invoking an empty InplaceFunction");
    return ops_->invoke(&storage_, std::forward<Args>(args)...);
  }

 private:
  using Storage = std::aligned_storage_t<
      (Capacity < sizeof(void*) ? sizeof(void*) : Capacity),
      alignof(std::max_align_t)>;

  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move the callable from src storage into dst storage, then destroy the
    // src (one virtual hop for the common relocate-on-heap-sift path).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool on_heap;
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* storage, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(storage)))(
            std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        D* from = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* storage) noexcept {
        std::launder(reinterpret_cast<D*>(storage))->~D();
      },
      false};

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* storage, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<D**>(storage)))(
            std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
      },
      [](void* storage) noexcept {
        delete *std::launder(reinterpret_cast<D**>(storage));
      },
      true};

  void move_from(InplaceFunction&& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(&storage_, &other.storage_);
      other.ops_ = nullptr;
    }
  }

  void destroy() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(&storage_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  Storage storage_;
};

}  // namespace magma::common
