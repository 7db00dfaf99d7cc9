// Sharded southbound ingest for the orchestrator.
//
// Every AGW in the fleet pushes checkins, metric reports, histogram
// snapshots, and trace summaries at the orchestrator; applying each report
// inline in the RPC handler means one chatty or malfunctioning gateway can
// monopolize the control plane, and ingest work grows unbounded with fleet
// size. This generalizes the bounded-work-queue pattern accessd uses for
// attach processing: reports are decoded (and answered) inline, but the
// *apply* — the statusd/metricsd mutation — is enqueued on a per-gateway
// bounded FIFO inside one of a fixed number of shards. Each shard drains a
// batch per pump tick, round-robin across its gateways, so no single
// gateway can starve its shard-mates. A full per-gateway queue sheds the
// report (counted, never queued) — the same loss-tolerant posture as the
// metrics path itself (§3.4): a shed report's data is simply absent, and
// the next report self-corrects.
//
// Determinism: gateways hash to shards with FNV-1a (stable across runs and
// platforms, unlike std::hash), queues live in std::map (iteration in key
// order), and pumps are ordinary kernel events — the same fleet replays the
// same ingest order every run.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/kernel.h"
#include "sim/time.h"

namespace magma::orc8r {

enum class IngestKind : std::uint8_t {
  kCheckin = 0,
  kMetrics = 1,
  kHistograms = 2,
  kTraceSummaries = 3,
  kSketches = 4,
};
inline constexpr std::size_t kIngestKindCount = 5;

struct IngestConfig {
  std::size_t shards = 4;
  // Pending applies per gateway before sheds start. One poll cycle's worth
  // of reports is ~5 (checkin + metrics + histograms + traces + sketches);
  // 64 absorbs a pump stall of a dozen cycles before anything is lost.
  std::size_t gateway_queue_max = 64;
  std::size_t batch_per_pump = 16;  // applies per shard per pump tick
};

struct IngestStats {
  std::uint64_t submitted = 0;
  std::uint64_t processed = 0;
  std::uint64_t shed = 0;  // rejected at a full per-gateway queue
  std::uint64_t shed_by_kind[kIngestKindCount] = {};
  std::uint64_t batches = 0;  // pump ticks that applied at least one item
  // High-water marks: deepest single gateway queue and deepest total
  // backlog ever seen (the gauges that size the bounds).
  std::uint64_t max_gateway_queue = 0;
  std::uint64_t max_pending = 0;
};

class IngestShards {
 public:
  explicit IngestShards(sim::Kernel& kernel, IngestConfig config = {});

  // Enqueue `apply` on the gateway's FIFO. False: the queue is full and the
  // report was shed (caller should count it and answer the gateway anyway —
  // southbound reports are best-effort, a retry would just re-shed).
  bool submit(const std::string& gateway_id, IngestKind kind,
              std::function<void()> apply);

  std::size_t pending() const;
  const IngestStats& stats() const { return stats_; }
  const IngestConfig& config() const { return config_; }

  // Stable gateway -> shard assignment (FNV-1a, not std::hash).
  static std::size_t shard_of(const std::string& gateway_id,
                              std::size_t shards);

 private:
  struct Item {
    IngestKind kind;
    std::function<void()> apply;
  };
  struct Shard {
    std::map<std::string, std::deque<Item>> queues;  // per-gateway FIFO
    std::string resume_after;  // round-robin cursor (last gateway served)
    bool pump_scheduled = false;
    std::size_t pending = 0;
  };

  void pump(std::size_t index);

  sim::Kernel& kernel_;
  IngestConfig config_;
  std::vector<Shard> shards_;
  IngestStats stats_;
};

}  // namespace magma::orc8r
