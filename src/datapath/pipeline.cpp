#include "datapath/pipeline.h"

#include "common/bytes.h"
#include "obs/host_profiler.h"

namespace magma::datapath {

// ---------------------------------------------------------------------------
// Microflow cache plumbing
// ---------------------------------------------------------------------------

std::size_t Pipeline::CacheKeyHash::operator()(const CacheKey& k) const {
  return static_cast<std::size_t>(common::fnv1a(common::BytesView(
      reinterpret_cast<const std::uint8_t*>(&k), sizeof(CacheKey))));
}

Pipeline::CacheKey Pipeline::make_key(const Packet& pkt, Direction dir) {
  CacheKey key{};
  key.dir = static_cast<std::uint8_t>(dir);
  key.tunnel = pkt.gtpu.has_value() ? pkt.gtpu->teid.value : 0;
  key.src = pkt.ip.src.addr;
  key.dst = pkt.ip.dst.addr;
  key.proto = static_cast<std::uint8_t>(pkt.ip.protocol);
  key.sport = pkt.l4.src_port;
  key.dport = pkt.l4.dst_port;
  return key;
}

std::uint64_t Pipeline::tables_generation() const {
  std::uint64_t sum = 0;
  for (const FlowTable& table : tables_) sum += table.generation();
  return sum;
}

void Pipeline::set_flow_cache_enabled(bool enabled) {
  cache_enabled_ = enabled;
  cache_.clear();
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

PipelineResult Pipeline::process(Packet pkt, Direction dir,
                                 sim::TimePoint now) {
  return process_batch(PacketBatch{std::move(pkt), 1}, dir, now);
}

PipelineResult Pipeline::process_batch(PacketBatch batch, Direction dir,
                                       sim::TimePoint now) {
  MAGMA_HOST_SCOPE("datapath", "process_batch");
  if (!cache_enabled_) {
    return process_slow(std::move(batch), dir, now, nullptr);
  }
  const CacheKey key = make_key(batch.packet, dir);
  auto it = cache_.find(key);
  if (it != cache_.end() && it->second.generation == tables_generation()) {
    ++stats_.cache_hits;
    return apply_cached(it->second, std::move(batch), now);
  }
  ++stats_.cache_misses;
  CachedPath path;
  PipelineResult result = process_slow(std::move(batch), dir, now, &path);
  // A walk cut short by meter exhaustion never reached its real terminal
  // action; caching it would freeze "dropped" for packets that conform
  // later. Everything else (including no-match and policy drops) caches.
  if (result.verdict != Verdict::kDroppedByMeter) {
    if (cache_.size() >= kMaxCacheEntries) cache_.clear();
    cache_[key] = std::move(path);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Slow path: the full multi-table walk (optionally filling a cache entry)
// ---------------------------------------------------------------------------

PipelineResult Pipeline::process_slow(PacketBatch batch, Direction dir,
                                      sim::TimePoint now, CachedPath* fill) {
  // Separates the full multi-table walk from the microflow-cache fast path:
  // self-time of process_batch ≈ cached-path cost, child slow_walk ≈ miss
  // cost — exactly the split an arena/pool decision needs.
  MAGMA_HOST_SCOPE("datapath", "slow_walk");
  PipelineResult result;
  Packet& pkt = batch.packet;
  std::uint64_t count = batch.count;
  const std::int64_t base_wire = pkt.wire_size();

  if (fill != nullptr) {
    fill->generation = tables_generation();
    fill->pop_gtpu = false;
    fill->push_gtpu = false;
    fill->set_dscp = false;
    fill->ops.clear();
  }
  auto record_charge = [&](FlowEntry* entry) {
    if (fill == nullptr) return;
    fill->ops.push_back(CachedOp{
        false, entry, 0,
        static_cast<std::int32_t>(static_cast<std::int64_t>(pkt.wire_size()) -
                                  base_wire)});
  };
  auto record_meter = [&](std::uint32_t meter_id) {
    if (fill == nullptr) return;
    fill->ops.push_back(CachedOp{
        true, nullptr, meter_id,
        static_cast<std::int32_t>(static_cast<std::int64_t>(pkt.wire_size()) -
                                  base_wire)});
  };
  auto finish = [&](Verdict verdict, std::uint32_t out_port) {
    result.verdict = verdict;
    result.out_port = out_port;
    result.out_count = count;
    result.packet = std::move(pkt);
    if (fill != nullptr) {
      fill->verdict = verdict;
      fill->out_port = out_port;
    }
    return std::move(result);
  };

  std::uint8_t table_id = kTableClassify;
  // Bounded walk: each GotoTable must strictly increase the table id, so at
  // most kNumTables lookups happen.
  while (table_id < kNumTables) {
    FlowEntry* entry = tables_[table_id].lookup(pkt, dir);
    if (entry == nullptr) {
      stats_.dropped_no_match += count;
      return finish(Verdict::kDroppedNoMatch, 0);
    }
    record_charge(entry);
    entry->counters.packets += count;
    entry->counters.bytes += count * pkt.wire_size();

    bool moved_on = false;
    for (const Action& action : entry->actions) {
      switch (action.type) {
        case ActionType::kDrop:
          stats_.dropped_by_policy += count;
          return finish(Verdict::kDroppedByPolicy, 0);
        case ActionType::kPopGtpu:
          pkt = gtpu_decap(std::move(pkt));
          if (fill != nullptr) fill->pop_gtpu = true;
          break;
        case ActionType::kPushGtpu:
          pkt = gtpu_encap(std::move(pkt), action.teid, local_addr_,
                           action.tunnel_dst);
          if (fill != nullptr) {
            fill->push_gtpu = true;
            fill->push_teid = action.teid;
            fill->push_dst = action.tunnel_dst;
          }
          break;
        case ActionType::kSetMeter: {
          record_meter(action.meter_id);
          TokenBucket* meter = meters_.find(action.meter_id);
          if (meter != nullptr) {
            // Partial conformance: the conforming prefix of the batch
            // continues; the excess is dropped here.
            const std::uint64_t allowed =
                meter->allow_batch(count, pkt.wire_size(), now);
            stats_.dropped_by_meter += count - allowed;
            if (allowed == 0) {
              return finish(Verdict::kDroppedByMeter, 0);
            }
            count = allowed;
          }
          break;
        }
        case ActionType::kSetDscp:
          pkt.ip.dscp = action.dscp;
          if (fill != nullptr) {
            fill->set_dscp = true;
            fill->dscp = action.dscp;
          }
          break;
        case ActionType::kGotoTable:
          if (action.table_id > table_id) {
            table_id = action.table_id;
            moved_on = true;
          }
          break;
        case ActionType::kOutput:
          stats_.forwarded_packets += count;
          stats_.forwarded_bytes += count * pkt.wire_size();
          return finish(Verdict::kForwarded, action.port);
      }
      if (moved_on) break;
    }
    if (!moved_on) {
      // Entry had neither Output/Drop nor GotoTable: treat as drop (an
      // incompletely programmed session must not leak traffic).
      stats_.dropped_by_policy += count;
      return finish(Verdict::kDroppedByPolicy, 0);
    }
  }
  stats_.dropped_no_match += count;
  return finish(Verdict::kDroppedNoMatch, 0);
}

// ---------------------------------------------------------------------------
// Fast path: replay a cached megaflow
// ---------------------------------------------------------------------------

PipelineResult Pipeline::apply_cached(const CachedPath& path,
                                      PacketBatch batch, sim::TimePoint now) {
  PipelineResult result;
  Packet& pkt = batch.packet;
  std::uint64_t count = batch.count;
  const std::int64_t base_wire = pkt.wire_size();

  bool meter_dropped_all = false;
  for (const CachedOp& op : path.ops) {
    const auto bytes_each =
        static_cast<std::uint64_t>(base_wire + op.byte_delta);
    if (op.is_meter) {
      TokenBucket* meter = meters_.find(op.meter_id);
      if (meter != nullptr) {
        const std::uint64_t allowed =
            meter->allow_batch(count, bytes_each, now);
        stats_.dropped_by_meter += count - allowed;
        if (allowed == 0) {
          meter_dropped_all = true;
          break;
        }
        count = allowed;
      }
    } else {
      op.entry->counters.packets += count;
      op.entry->counters.bytes += count * bytes_each;
    }
  }

  // Transforms (same whether or not a meter cut the batch short of the
  // output stage — a fully-dropped batch reports its pre-transform form,
  // matching the slow path's early return).
  if (!meter_dropped_all) {
    if (path.pop_gtpu) pkt = gtpu_decap(std::move(pkt));
    if (path.push_gtpu) {
      pkt = gtpu_encap(std::move(pkt), path.push_teid, local_addr_,
                       path.push_dst);
    }
    if (path.set_dscp) pkt.ip.dscp = path.dscp;
  }

  const Verdict verdict =
      meter_dropped_all ? Verdict::kDroppedByMeter : path.verdict;
  switch (verdict) {
    case Verdict::kForwarded:
      stats_.forwarded_packets += count;
      stats_.forwarded_bytes += count * pkt.wire_size();
      break;
    case Verdict::kDroppedNoMatch:
      stats_.dropped_no_match += count;
      break;
    case Verdict::kDroppedByPolicy:
      stats_.dropped_by_policy += count;
      break;
    case Verdict::kDroppedByMeter:
      if (!meter_dropped_all) stats_.dropped_by_meter += count;
      break;
  }
  result.verdict = verdict;
  result.out_port = verdict == Verdict::kForwarded ? path.out_port : 0;
  result.out_count = count;
  result.packet = std::move(pkt);
  return result;
}

// ---------------------------------------------------------------------------
// Management
// ---------------------------------------------------------------------------

std::size_t Pipeline::remove_session_rules(std::uint64_t cookie) {
  std::size_t removed = 0;
  for (FlowTable& table : tables_) removed += table.remove_by_cookie(cookie);
  return removed;
}

std::size_t Pipeline::total_flow_entries() const {
  std::size_t n = 0;
  for (const FlowTable& table : tables_) n += table.size();
  return n;
}

}  // namespace magma::datapath
