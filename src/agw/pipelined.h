// pipelined — Data Plane Configuration (Table 1): translates session-level
// intent into flow rules and meters in the software datapath.
//
// §3.5: "The 'data plane configuration' box generates the commands
// necessary to program the data plane with a set of rules to handle the
// flows of current sessions. Currently, those commands are OpenFlow
// commands. If OVS were replaced with a different forwarding engine, only
// the 'data plane configuration' component would be affected." — This class
// is that box: everything above it speaks SessionFlows; everything below is
// datapath::Pipeline specifics.
//
// It supports both a CRUD interface (install/remove one session) and the
// desired-state interface (§3.4: "the set of sessions is now X, Y, Z"),
// which reconciles the full session set idempotently. The state-sync
// ablation bench drives both over a lossy channel.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/result.h"
#include "datapath/pipeline.h"
#include "obs/status.h"

namespace magma::agw {

// Everything the data plane needs to know about one active session.
struct SessionFlows {
  std::uint64_t cookie = 0;  // session identity (rule owner tag)
  common::Ipv4 ue_ip;
  // LTE/5G sessions are GTP-tunneled toward the RAN; WiFi sessions are
  // plain IP (the AP bridges the client) — the "WiFi data plane" row of
  // Table 1 realized in the same pipeline.
  bool tunneled = true;
  common::Teid agw_teid_ul;   // uplink tunnel terminating at this AGW
  common::Teid enb_teid_dl;   // downlink tunnel endpoint at the eNodeB
  common::Ipv4 enb_address;
  std::uint64_t dl_rate_bps = 0;  // 0 = unlimited
  std::uint64_t ul_rate_bps = 0;
  bool blocked = false;  // hard-block (cap exhausted / quota denied)
  // ECM-IDLE: the UE has no radio connection. Downlink for its address is
  // routed to the AGW-local port, which triggers paging; there is no
  // uplink. The session (and its usage accounting) survives.
  bool idle = false;

  // Federation, home-routing mode (§3.6): uplink is re-tunneled to the GTP
  // aggregator instead of breaking out locally; downlink arrives
  // GTP-encapsulated from it on home_teid_local.
  bool home_routed = false;
  common::Teid home_teid_remote;  // tunnel id at the GTP-A for our uplink
  common::Ipv4 home_agg_address;  // GTP-A address
  common::Teid home_teid_local;   // our tunnel id for downlink from GTP-A

  bool operator==(const SessionFlows&) const = default;
  common::Bytes serialize() const;
  static common::Result<SessionFlows> deserialize(common::BytesView data);
};

struct PipelinedStats {
  std::uint64_t sessions_installed = 0;
  std::uint64_t sessions_removed = 0;
  std::uint64_t reconciliations = 0;
};

class Pipelined {
 public:
  Pipelined();

  datapath::Pipeline& pipeline() { return pipeline_; }
  const datapath::Pipeline& pipeline() const { return pipeline_; }

  // CRUD interface.
  common::Status install_session(const SessionFlows& flows,
                                 sim::TimePoint now);
  common::Status remove_session(std::uint64_t cookie);
  bool has_session(std::uint64_t cookie) const;
  std::size_t session_count() const { return sessions_.size(); }
  std::vector<std::uint64_t> installed_cookies() const;

  // Desired-state interface: after this call the installed session set is
  // exactly `sessions`. Unchanged sessions keep their counters and meter
  // fill levels (reinstalling them would reset usage accounting).
  void set_desired_sessions(const std::vector<SessionFlows>& sessions,
                            sim::TimePoint now);

  // Per-session user-plane usage: bytes/packets delivered past policy
  // enforcement (exactly once per packet, unlike a sum over all tables).
  datapath::FlowCounters session_usage(std::uint64_t cookie) const;
  // Every session's usage in one pass: out.get(cookie) equals
  // session_usage(cookie) until the rules next change.
  void read_usage(datapath::CookieCounters& out) const;

  const PipelinedStats& stats() const { return stats_; }

  // Service303 handle (optional): rule CRUD and reconciliations count
  // requests and errors.
  void set_status(obs::Service303* status) { status_ = status; }

  // High bit marks auxiliary (block) rules owned by a session but excluded
  // from its usage counters.
  static constexpr std::uint64_t kBlockCookieFlag = 1ull << 63;

 private:
  static std::uint32_t dl_meter_id(std::uint64_t cookie) {
    return static_cast<std::uint32_t>(cookie * 2);
  }
  static std::uint32_t ul_meter_id(std::uint64_t cookie) {
    return static_cast<std::uint32_t>(cookie * 2 + 1);
  }

  datapath::Pipeline pipeline_;
  std::unordered_map<std::uint64_t, SessionFlows> sessions_;
  PipelinedStats stats_;
  obs::Service303* status_ = nullptr;
};

}  // namespace magma::agw
