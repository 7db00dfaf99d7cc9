#include "common/pool.h"

#include <atomic>
#include <cstring>

#if defined(__SANITIZE_ADDRESS__)
#define MAGMA_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MAGMA_POOL_ASAN 1
#endif
#endif

#if defined(MAGMA_POOL_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace magma::common {

namespace {

// ASan-aware addressability shims: parked pool blocks are unaddressable so a
// use-after-release trips the sanitizer exactly like a real use-after-free.
// No-ops in plain builds, where the 0xEF poison pattern is the only tripwire.
inline void mark_unaddressable(void* p, std::size_t n) {
#if defined(MAGMA_POOL_ASAN)
  ASAN_POISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

inline void mark_addressable(void* p, std::size_t n) {
#if defined(MAGMA_POOL_ASAN)
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

std::atomic<bool> g_pooling_enabled{true};

// Process-wide heap-fallback tally across every BlockPool. Individual pools
// are private members of their owners (channel maps, microflow cache), so
// fleet telemetry reads this instead of chasing pointers — the same pattern
// as the process-wide host_alloc_bytes gauge.
std::uint64_t g_total_heap_fallbacks = 0;

}  // namespace

bool memory_pooling_enabled() noexcept {
  return g_pooling_enabled.load(std::memory_order_relaxed);
}

void set_memory_pooling_enabled(bool enabled) noexcept {
  g_pooling_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t total_pool_heap_fallbacks() noexcept {
  return g_total_heap_fallbacks;
}

BlockPool::~BlockPool() {
  for (const auto& [base, bytes] : chunks_) {
    // Chunks were carved into poisoned blocks; lift the ASan poison before
    // the allocator reclaims the pages.
    mark_addressable(base, bytes);
    ::operator delete(base);
  }
}

void* BlockPool::payload_from_heap(std::size_t size) {
  auto* header =
      static_cast<Header*>(::operator new(sizeof(Header) + size));
  header->owner = nullptr;
  ++stats_.heap_fallbacks;
  ++g_total_heap_fallbacks;
  return header + 1;
}

void BlockPool::carve_chunk() {
  // One operator-new per chunk, amortized over geometrically more blocks;
  // each block within is poisoned and parked on the freelist.
  std::size_t blocks = next_chunk_blocks_;
  if (max_blocks_ != 0) {
    const std::size_t room = max_blocks_ - stats_.capacity;
    if (blocks > room) blocks = room;
  }
  if (blocks == 0) return;
  // Round the per-block stride up so every Header (and payload) keeps
  // max_align_t alignment across the chunk.
  constexpr std::size_t kAlign = alignof(std::max_align_t);
  const std::size_t stride =
      (sizeof(Header) + block_size_ + kAlign - 1) / kAlign * kAlign;
  const std::size_t bytes = blocks * stride;
  auto* base = static_cast<unsigned char*>(::operator new(bytes));
  chunks_.emplace_back(base, bytes);
  free_.reserve(free_.size() + blocks);
  for (std::size_t i = 0; i < blocks; ++i) {
    auto* header = reinterpret_cast<Header*>(base + i * stride);
    header->owner = this;
    void* payload = header + 1;
    poison(payload);
    free_.push_back(payload);
  }
  stats_.capacity += blocks;
  if (next_chunk_blocks_ < 1024) next_chunk_blocks_ *= 2;
}

void BlockPool::poison(void* payload) noexcept {
  std::memset(payload, kPoisonByte, block_size_);
  mark_unaddressable(payload, block_size_);
}

bool BlockPool::verify_poison(void* payload) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(payload);
  for (std::size_t i = 0; i < block_size_; ++i) {
    if (bytes[i] != kPoisonByte) {
      ++stats_.poison_violations;
      return false;
    }
  }
  return true;
}

void* BlockPool::allocate(std::size_t size) {
  ++stats_.acquired;
  void* payload = nullptr;
  if (memory_pooling_enabled()) {
    if (block_size_ == 0) block_size_ = size;  // lazy bind to first request
    if (size == block_size_) {
      if (free_.empty() &&
          (max_blocks_ == 0 || stats_.capacity < max_blocks_)) {
        carve_chunk();
      }
      if (!free_.empty()) {
        payload = free_.back();
        free_.pop_back();
        mark_addressable(payload, block_size_);
        verify_poison(payload);
        ++stats_.pool_hits;
      }
    }
  }
  if (payload == nullptr) payload = payload_from_heap(size);
  ++stats_.live;
  if (stats_.live > stats_.live_hwm) stats_.live_hwm = stats_.live;
  stats_.free_blocks = free_.size();
  return payload;
}

void BlockPool::deallocate(void* p) noexcept {
  if (p == nullptr) return;
  Header* header = static_cast<Header*>(p) - 1;
  BlockPool* owner = header->owner;
  if (owner == nullptr) {
    ::operator delete(header);
    ++stats_.released;
    if (stats_.live > 0) --stats_.live;
    return;
  }
  // Route to the owning pool: correct even if the block migrated through a
  // container node handle or the global toggle flipped mid-lifetime.
  owner->poison(p);
  owner->free_.push_back(p);
  ++owner->stats_.released;
  if (owner->stats_.live > 0) --owner->stats_.live;
  owner->stats_.free_blocks = owner->free_.size();
}

bool BlockPool::corrupt_newest_free_for_test() {
  if (free_.empty() || block_size_ == 0) return false;
  void* payload = free_.back();
  mark_addressable(payload, block_size_);
  static_cast<std::uint8_t*>(payload)[block_size_ / 2] =
      static_cast<std::uint8_t>(~kPoisonByte);
  mark_unaddressable(payload, block_size_);
  return true;
}

}  // namespace magma::common
