// Freelist pools for the simulator's steady-state hot paths.
//
// The host profiler's per-label allocation counts (PR 7) showed where the
// heap traffic lives: reliable-channel retransmit/reorder map nodes, the
// datapath microflow-cache nodes, and event closures. Pools turn that
// steady-state churn into freelist pushes and pops. Two layers:
//
//  * BlockPool — untyped fixed-size blocks carved from geometrically grown
//    chunks, recycled through a non-intrusive freelist (the free stack lives
//    outside the blocks so released memory can be fully poisoned).
//  * PoolAllocator<T> — std::allocator adapter so node containers
//    (std::map, std::unordered_map) draw their nodes from a BlockPool
//    without restructuring the container code.
//
// Memory discipline (DESIGN.md §9):
//  * Poison-on-release: every released block is filled with kPoisonByte and
//    (under ASan) marked unaddressable, so a use-after-release either trips
//    the sanitizer or corrupts the pattern; acquire verifies the pattern and
//    counts violations (PoolStats::poison_violations) — a nonzero count is
//    a lifetime bug, full stop.
//  * Heap fallback is legal but counted: pool exhaustion (bounded pools),
//    size mismatch (an allocator asked for an array), or the global
//    set_memory_pooling_enabled(false) toggle all route to plain operator
//    new, tagged in a per-block header so release always returns memory
//    where it came from. PoolStats::heap_fallbacks growing in steady state
//    means the pool is mis-sized — the bench wall catches it as reappearing
//    *_allocs.
//  * Determinism: pooling on vs. off must be behavior-invisible. Nothing a
//    pool does may feed back into simulation state; the same-seed
//    pools-on/pools-off diff test asserts it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace magma::common {

// Global runtime toggle (shared with InplaceFunction's inline storage). On
// by default; tests flip it to run the same scenario both ways.
bool memory_pooling_enabled() noexcept;
void set_memory_pooling_enabled(bool enabled) noexcept;

// Process-wide heap-fallback count summed over every BlockPool (pools are
// private to their owners; telemetry reads this aggregate — see the
// pool_heap_fallbacks gauge).
std::uint64_t total_pool_heap_fallbacks() noexcept;

struct PoolStats {
  std::uint64_t acquired = 0;         // allocate calls served (any path)
  std::uint64_t released = 0;         // deallocate calls
  std::uint64_t pool_hits = 0;        // served by freelist or fresh carve
  std::uint64_t heap_fallbacks = 0;   // exhausted / mismatched / disabled
  std::uint64_t poison_violations = 0;  // released block mutated before reuse
  std::size_t live = 0;               // blocks currently out
  std::size_t live_hwm = 0;
  std::size_t free_blocks = 0;        // parked on the freelist
  std::size_t capacity = 0;           // blocks ever carved from chunks
};

// Fixed-block-size raw pool. `block_size` 0 binds lazily to the first
// pooled request (what PoolAllocator needs: the node size is only known at
// the container's first insert). `max_blocks` bounds the carved capacity;
// 0 means grow without bound. Single-threaded, like the simulator.
class BlockPool {
 public:
  explicit BlockPool(std::size_t block_size = 0, std::size_t max_blocks = 0)
      : block_size_(block_size), max_blocks_(max_blocks) {}
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;
  ~BlockPool();

  // A block of `size` bytes. Pool-served when size matches the (bound)
  // block size and capacity allows; heap otherwise. Never returns nullptr
  // (heap path throws bad_alloc like operator new).
  void* allocate(std::size_t size);
  // Return a block. Safe for any block this pool's allocate() returned,
  // pooled or heap-tagged; blocks are poisoned before parking.
  void deallocate(void* p) noexcept;

  const PoolStats& stats() const { return stats_; }
  std::size_t block_size() const { return block_size_; }

  // Test hook: flip one byte inside the newest parked block (ASan-safely),
  // so the next acquire of it must report a poison violation. Returns false
  // when the freelist is empty.
  bool corrupt_newest_free_for_test();

  static constexpr std::uint8_t kPoisonByte = 0xEF;

 private:
  // Every block is prefixed by its owner pointer (nullptr = plain heap), so
  // deallocate routes correctly even after the global toggle flips or a
  // node handle migrates between same-typed containers.
  struct alignas(std::max_align_t) Header {
    BlockPool* owner;
  };

  void* payload_from_heap(std::size_t size);
  void carve_chunk();
  void poison(void* payload) noexcept;
  bool verify_poison(void* payload) noexcept;  // false → violation counted

  std::size_t block_size_ = 0;   // payload bytes per pooled block
  std::size_t max_blocks_ = 0;
  std::vector<void*> free_;      // payload pointers, poisoned while parked
  // Chunk base pointer + byte size (needed to lift ASan poison at teardown).
  std::vector<std::pair<void*, std::size_t>> chunks_;
  std::size_t next_chunk_blocks_ = 8;  // geometric chunk growth
  PoolStats stats_;
};

// std::allocator adapter over a shared BlockPool. Single-element requests
// (container nodes) are pooled; array requests (hash-table bucket vectors)
// go straight to the heap. Rebound copies share the pool, so one map's
// nodes all cycle through one freelist.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  PoolAllocator() : pool_(std::make_shared<BlockPool>()) {}
  explicit PoolAllocator(std::shared_ptr<BlockPool> pool)
      : pool_(std::move(pool)) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : pool_(other.pool()) {}

  T* allocate(std::size_t n) {
    if (n == 1) return static_cast<T*>(pool_->allocate(sizeof(T)));
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1) {
      pool_->deallocate(p);
      return;
    }
    ::operator delete(p);
  }

  const std::shared_ptr<BlockPool>& pool() const { return pool_; }

  template <typename U>
  bool operator==(const PoolAllocator<U>& other) const {
    return pool_ == other.pool();
  }

 private:
  std::shared_ptr<BlockPool> pool_;
};

}  // namespace magma::common
