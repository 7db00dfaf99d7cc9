// Multi-table software datapath — the repository's Open vSwitch (§3.5).
//
// Packets enter table 0 and flow through GotoTable actions; each table is a
// priority-matched FlowTable. Per-session rules (tunnel handling, QoS
// meters, counters) are programmed by the AGW's `pipelined` service exactly
// as Magma programs OVS via OpenFlow. A table miss drops the packet: an
// unknown UE has no session and therefore no connectivity.
//
// Table layout used by pipelined (mirroring Magma's gtp/ingress/enforcement
// pipeline):
//   0: classification + tunnel handling (pop uplink GTP, push downlink GTP)
//   1: policy enforcement (meters, DSCP, usage counting)
//   2: egress (output port selection)
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/pool.h"
#include "datapath/flow_table.h"
#include "datapath/gtpu.h"
#include "datapath/meter.h"
#include "sim/time.h"

namespace magma::datapath {

constexpr std::uint8_t kTableClassify = 0;
constexpr std::uint8_t kTableEnforce = 1;
constexpr std::uint8_t kTableEgress = 2;
constexpr std::size_t kNumTables = 3;

// Well-known ports on the AGW bridge.
constexpr std::uint32_t kPortRan = 1;   // toward eNodeB/gNB/AP (GTP side)
constexpr std::uint32_t kPortSgi = 2;   // toward the Internet
constexpr std::uint32_t kPortLocal = 3; // AGW-local services (DNS, captive portal)

enum class Verdict : std::uint8_t {
  kForwarded,
  kDroppedNoMatch,   // table miss (no session)
  kDroppedByPolicy,  // explicit drop rule
  kDroppedByMeter,   // rate limiter
};

struct PipelineResult {
  Verdict verdict = Verdict::kDroppedNoMatch;
  std::uint32_t out_port = 0;
  Packet packet;  // post-processing form (tunnel pushed/popped, DSCP set)
  // Surviving packet count: batch size minus meter drops (equals the input
  // count when nothing metered the batch).
  std::uint64_t out_count = 0;
};

// A run of identical packets processed as one unit. Traffic generators emit
// batches so that multi-minute, multi-hundred-Mbps experiments stay
// tractable; matching happens once, counters and meters are charged for the
// whole batch (meters conform or drop a batch atomically — the batch
// interval bounds the granularity error).
struct PacketBatch {
  Packet packet;            // representative packet
  std::uint64_t count = 1;  // number of identical packets
  std::uint64_t bytes() const {
    return count * static_cast<std::uint64_t>(packet.wire_size());
  }
};

struct PipelineStats {
  std::uint64_t forwarded_packets = 0;
  std::uint64_t forwarded_bytes = 0;
  std::uint64_t dropped_no_match = 0;
  std::uint64_t dropped_by_policy = 0;
  std::uint64_t dropped_by_meter = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

class Pipeline {
 public:
  FlowTable& table(std::uint8_t id) { return tables_.at(id); }
  const FlowTable& table(std::uint8_t id) const { return tables_.at(id); }
  MeterBank& meters() { return meters_; }

  PipelineResult process(Packet pkt, Direction dir, sim::TimePoint now);
  // Batch form: one table walk, counters/meters charged `count` times.
  PipelineResult process_batch(PacketBatch batch, Direction dir,
                               sim::TimePoint now);

  // Remove every rule installed with this cookie, across all tables.
  std::size_t remove_session_rules(std::uint64_t cookie);

  const PipelineStats& stats() const { return stats_; }
  std::size_t total_flow_entries() const;

  // Local tunnel endpoint address used when pushing GTP-U (the AGW's
  // RAN-facing interface address).
  void set_local_address(common::Ipv4 addr) { local_addr_ = addr; }

  // Microflow cache (the OVS design this datapath reproduces): the first
  // packet of a flow takes the full multi-table walk; the resolved path —
  // transforms, meters, matched entries for counter charging — is cached by
  // exact header match. Table mutations invalidate via the generation
  // counters. On by default; the ablation microbench switches it off.
  void set_flow_cache_enabled(bool enabled);

 private:
  struct CacheKey {
    std::uint8_t dir;
    std::uint32_t tunnel;
    std::uint32_t src;
    std::uint32_t dst;
    std::uint8_t proto;
    std::uint16_t sport;
    std::uint16_t dport;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const;
  };
  // One counter-charge or meter application along the cached walk, in
  // order (order matters: a meter can shrink the batch mid-walk).
  struct CachedOp {
    bool is_meter;
    FlowEntry* entry;       // charge op: entry whose counters to bump
    std::uint32_t meter_id; // meter op
    // Wire-size delta of the packet form at this point relative to the
    // input packet (tunnel headers come and go along the walk).
    std::int32_t byte_delta;
  };
  struct CachedPath {
    std::uint64_t generation = 0;  // sum of table generations at fill time
    Verdict verdict = Verdict::kDroppedNoMatch;
    std::uint32_t out_port = 0;
    bool pop_gtpu = false;
    bool push_gtpu = false;
    common::Teid push_teid;
    common::Ipv4 push_dst;
    bool set_dscp = false;
    std::uint8_t dscp = 0;
    std::vector<CachedOp> ops;
  };

  static CacheKey make_key(const Packet& pkt, Direction dir);
  std::uint64_t tables_generation() const;
  PipelineResult process_slow(PacketBatch batch, Direction dir,
                              sim::TimePoint now, CachedPath* fill);
  PipelineResult apply_cached(const CachedPath& path, PacketBatch batch,
                              sim::TimePoint now);

  std::array<FlowTable, kNumTables> tables_;
  MeterBank meters_;
  PipelineStats stats_;
  common::Ipv4 local_addr_ = common::Ipv4::from_octets(10, 0, 0, 1);

  bool cache_enabled_ = true;
  static constexpr std::size_t kMaxCacheEntries = 65536;
  // Nodes come from a freelist pool: session churn (install/remove bumps the
  // table generation and evicts) otherwise makes the cache a steady-state
  // allocator. Bucket arrays (n > 1 requests) bypass the pool by design.
  std::unordered_map<
      CacheKey, CachedPath, CacheKeyHash, std::equal_to<CacheKey>,
      common::PoolAllocator<std::pair<const CacheKey, CachedPath>>>
      cache_;
};

}  // namespace magma::datapath
