#include "orc8r/ingest.h"

#include <algorithm>

#include "obs/host_profiler.h"

namespace magma::orc8r {

namespace {
// Delay from the first queued apply to its shard's pump, and between pumps
// while a backlog remains.
constexpr sim::Duration kPumpInterval = 5 * sim::kMillisecond;
}  // namespace

IngestShards::IngestShards(sim::Kernel& kernel, IngestConfig config)
    : kernel_(kernel), config_(config) {
  config_.shards = std::max<std::size_t>(1, config_.shards);
  config_.batch_per_pump = std::max<std::size_t>(1, config_.batch_per_pump);
  shards_.resize(config_.shards);
}

std::size_t IngestShards::shard_of(const std::string& gateway_id,
                                   std::size_t shards) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const char c : gateway_id) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return shards == 0 ? 0 : static_cast<std::size_t>(h % shards);
}

bool IngestShards::submit(const std::string& gateway_id, IngestKind kind,
                          std::function<void()> apply) {
  ++stats_.submitted;
  const std::size_t index = shard_of(gateway_id, shards_.size());
  Shard& shard = shards_[index];
  std::deque<Item>& queue = shard.queues[gateway_id];
  if (queue.size() >= config_.gateway_queue_max) {
    ++stats_.shed;
    ++stats_.shed_by_kind[static_cast<std::size_t>(kind)];
    if (queue.empty()) shard.queues.erase(gateway_id);
    return false;
  }
  queue.push_back(Item{kind, std::move(apply)});
  ++shard.pending;
  stats_.max_gateway_queue =
      std::max<std::uint64_t>(stats_.max_gateway_queue, queue.size());
  stats_.max_pending = std::max<std::uint64_t>(stats_.max_pending, pending());
  if (!shard.pump_scheduled) {
    shard.pump_scheduled = true;
    kernel_.schedule(kPumpInterval, [this, index]() { pump(index); });
  }
  return true;
}

std::size_t IngestShards::pending() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) n += shard.pending;
  return n;
}

void IngestShards::pump(std::size_t index) {
  // The pump is the orchestrator's southbound drain loop: at fleet scale it
  // runs every 5 ms of sim time, so its host cost scales with checkin rate.
  MAGMA_HOST_SCOPE("ingest", "pump");
  Shard& shard = shards_[index];
  std::size_t done = 0;
  // Round-robin across gateways, one apply per gateway per pass, resuming
  // after the last gateway served — a deep single-gateway backlog drains at
  // the same per-pump rate as everyone else's fresh reports.
  while (done < config_.batch_per_pump && !shard.queues.empty()) {
    auto it = shard.queues.upper_bound(shard.resume_after);
    if (it == shard.queues.end()) it = shard.queues.begin();
    Item item = std::move(it->second.front());
    it->second.pop_front();
    --shard.pending;
    shard.resume_after = it->first;
    if (it->second.empty()) shard.queues.erase(it);
    item.apply();
    ++done;
    ++stats_.processed;
  }
  if (done > 0) ++stats_.batches;
  if (!shard.queues.empty()) {
    kernel_.schedule(kPumpInterval, [this, index]() { pump(index); });
  } else {
    shard.pump_scheduled = false;
  }
}

}  // namespace magma::orc8r
