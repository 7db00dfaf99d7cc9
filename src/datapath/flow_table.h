// OpenFlow-style flow table: priority-ordered wildcard matching with
// per-entry counters — the core abstraction pipelined programs (§3.5: the
// data plane must "recognize the flows for active sessions" and "collect
// statistics for those flows").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "datapath/packet.h"

namespace magma::datapath {

// Direction is how Magma's pipeline distinguishes uplink (UE→Internet) and
// downlink (Internet→UE) traffic; it plays the role of OVS's in_port match.
enum class Direction : std::uint8_t { kUplink = 0, kDownlink = 1 };

struct IpPrefix {
  common::Ipv4 base;
  std::uint8_t prefix_len = 32;

  bool matches(common::Ipv4 addr) const {
    if (prefix_len == 0) return true;
    const std::uint32_t mask =
        prefix_len >= 32 ? 0xFFFFFFFFu : ~((1u << (32 - prefix_len)) - 1);
    return (addr.addr & mask) == (base.addr & mask);
  }
  bool operator==(const IpPrefix&) const = default;
};

// All-absent fields are wildcards.
struct FlowMatch {
  std::optional<Direction> direction;
  std::optional<IpPrefix> ip_src;
  std::optional<IpPrefix> ip_dst;
  std::optional<IpProto> ip_proto;
  std::optional<std::uint16_t> l4_src;
  std::optional<std::uint16_t> l4_dst;
  std::optional<common::Teid> tunnel_id;  // matches the GTP-U TEID

  bool matches(const Packet& pkt, Direction dir) const;
  bool operator==(const FlowMatch&) const = default;
};

enum class ActionType : std::uint8_t {
  kOutput,     // forward to port `port`
  kDrop,
  kPushGtpu,   // encapsulate with `teid` toward `tunnel_dst`
  kPopGtpu,    // strip tunnel header
  kSetMeter,   // subject packet to meter `meter_id`
  kSetDscp,    // rewrite DSCP (QoS marking)
  kGotoTable,  // continue processing in table `table_id`
};

struct Action {
  ActionType type;
  std::uint32_t port = 0;
  common::Teid teid;
  common::Ipv4 tunnel_dst;
  std::uint32_t meter_id = 0;
  std::uint8_t dscp = 0;
  std::uint8_t table_id = 0;

  static Action output(std::uint32_t port) {
    return Action{ActionType::kOutput, port, {}, {}, 0, 0, 0};
  }
  static Action drop() { return Action{ActionType::kDrop, 0, {}, {}, 0, 0, 0}; }
  static Action push_gtpu(common::Teid teid, common::Ipv4 dst) {
    return Action{ActionType::kPushGtpu, 0, teid, dst, 0, 0, 0};
  }
  static Action pop_gtpu() {
    return Action{ActionType::kPopGtpu, 0, {}, {}, 0, 0, 0};
  }
  static Action set_meter(std::uint32_t id) {
    return Action{ActionType::kSetMeter, 0, {}, {}, id, 0, 0};
  }
  static Action set_dscp(std::uint8_t dscp) {
    return Action{ActionType::kSetDscp, 0, {}, {}, 0, dscp, 0};
  }
  static Action goto_table(std::uint8_t table) {
    return Action{ActionType::kGotoTable, 0, {}, {}, 0, 0, table};
  }
  bool operator==(const Action&) const = default;
};

struct FlowCounters {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

struct FlowEntry {
  std::uint16_t priority = 0;  // higher wins
  FlowMatch match;
  std::vector<Action> actions;
  std::uint64_t cookie = 0;  // owner tag (session id / rule id)
  FlowCounters counters;
};

class FlowTable {
 public:
  // Entries are kept sorted by descending priority; insertion order breaks
  // ties (first-added wins), matching OVS behaviour closely enough.
  // Storage is a flat sorted vector: lookups walk contiguous memory instead
  // of chasing list nodes, and adds stop costing one node allocation each.
  // FlowEntry addresses are stable only between mutations — the pipeline's
  // microflow cache holds pointers into the vector, guarded by a generation
  // counter bumped on every mutation (which is exactly when the vector may
  // reallocate).
  void add(FlowEntry entry);
  // Remove all entries with the given cookie; returns count removed.
  std::size_t remove_by_cookie(std::uint64_t cookie);
  std::size_t size() const { return entries_.size(); }

  // Highest-priority matching entry, or nullptr. Counters are charged by
  // the pipeline (which knows the batch size), not here.
  FlowEntry* lookup(const Packet& pkt, Direction dir);

  const std::vector<FlowEntry>& entries() const { return entries_; }

  // Sum of counters across entries with this cookie.
  FlowCounters counters_for_cookie(std::uint64_t cookie) const;

  // Bumped on every add/remove; readers holding FlowEntry pointers must
  // revalidate when this changes.
  std::uint64_t generation() const { return generation_; }

 private:
  std::vector<FlowEntry> entries_;  // sorted by descending priority
  std::uint64_t generation_ = 0;
};

// Per-cookie counter sums of one table, gathered in a single pass: a caller
// that needs every session's usage reads the table once instead of calling
// counters_for_cookie (a whole-table scan) per session. The storage is
// reused across fills, so a steady-state fill allocates nothing.
class CookieCounters {
 public:
  // Replace the contents with `table`'s sums: get(c) then equals
  // table.counters_for_cookie(c) until the table next changes.
  void fill(const FlowTable& table);
  // Zero for a cookie the table did not hold.
  FlowCounters get(std::uint64_t cookie) const;

 private:
  std::vector<std::pair<std::uint64_t, FlowCounters>> sums_;  // by cookie
};

}  // namespace magma::datapath
