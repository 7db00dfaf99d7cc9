// sessiond — Session & Policy Management (Table 1: MME/PCRF, SMF/PCF, or
// RADIUS AAA, depending on generation — here, one generic service).
//
// Owns the runtime state of every active session on this AGW (§3.4):
// creation at attach, teardown at detach, periodic usage polling against
// the data plane's counters, tier transitions ("X Mbps until Y GB, then Z
// Mbps"), hard caps, and volume-billing quota against an external OCS.
//
// Quota protocol (§3.4): usage is authorized in small grants; when the
// session nears the end of its granted bytes sessiond asynchronously
// requests more; a denied grant blocks the session in the data plane.
// Whether a user *has* a grant is config state; how much remains is runtime
// state — both live here, and both are checkpointed (§3.3).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "agw/pipelined.h"
#include "common/ids.h"
#include "common/result.h"
#include "core/policy.h"
#include "obs/sketch/subscriber_sketches.h"
#include "obs/status.h"
#include "obs/trace.h"
#include "rpc/rpc.h"
#include "sim/kernel.h"

namespace magma::agw {

struct SessionRecord {
  common::SessionId id;
  common::Imsi imsi;
  SessionFlows flows;         // data-plane spec currently installed
  core::Policy policy;
  sim::TimePoint started = 0;
  sim::TimePoint interval_start = 0;
  std::uint64_t interval_base_bytes = 0;  // usage value at interval start
  std::uint64_t used_bytes = 0;           // cumulative (whole session)
  // Usage accumulated in *previous* incarnations of this session's flow
  // rules. Reprogramming the data plane (tier change, block) zeroes the
  // flow counters, so cumulative usage = counter_base_bytes + live counter.
  // Not serialized: recomputed at restore (counters start at zero there).
  std::uint64_t counter_base_bytes = 0;

  // OCS quota bookkeeping (ChargingMode::kOcsQuota only).
  std::uint64_t quota_granted = 0;   // total bytes granted by the OCS
  std::uint64_t quota_reported = 0;  // usage already reconciled
  bool quota_request_inflight = false;
  bool quota_denied = false;

  // Sketch-feed throttle: per-IMSI liveness marks and byte deltas go to
  // the subscriber sketches once per kSketchMarkInterval, not every 2 s
  // poll — deltas accumulate here in between (flushed at session end too,
  // so sketch byte totals stay exact). Not serialized: a restore re-marks
  // on the next poll and the pending delta was already flushed or lost
  // with the counters.
  sim::TimePoint next_sketch_mark = 0;
  std::uint64_t pending_sketch_bytes = 0;

  std::uint64_t used_in_interval() const {
    return used_bytes - interval_base_bytes;
  }

  common::Bytes serialize() const;
  static common::Result<SessionRecord> deserialize(common::BytesView data);
};

struct SessiondStats {
  std::uint64_t sessions_created = 0;
  std::uint64_t sessions_ended = 0;
  std::uint64_t tier_transitions = 0;
  std::uint64_t caps_enforced = 0;
  std::uint64_t quota_requests = 0;
  std::uint64_t quota_denials = 0;
};

class Sessiond {
 public:
  // `ocs` may be null (no volume billing anywhere in the deployment).
  Sessiond(sim::Kernel& kernel, Pipelined& pipelined, rpc::RpcNode* ocs);

  // Late OCS wiring (deployments add billing after boot).
  void set_ocs(rpc::RpcNode* ocs) { ocs_ = ocs; }

  // Tracing (optional): session creation and flow installation emit spans
  // parented on the caller's current context.
  void set_observability(obs::Tracer* tracer, std::string node);

  // Service303 handle (optional): session lifecycle calls count requests
  // and errors.
  void set_status(obs::Service303* status) { status_ = status; }

  // Per-subscriber sketches (optional): usage deltas feed the bytes
  // heavy-hitter sketch, quota denials and cap enforcement feed the
  // quota-rejection sketch, re-attach teardowns feed bearer drops, and
  // every polled session marks its IMSI active.
  void set_subscriber_sketches(obs::sketch::SubscriberSketches* sketches) {
    sketches_ = sketches;
  }

  struct CreateRequest {
    common::Imsi imsi;
    common::Ipv4 ue_ip;
    bool tunneled = true;  // false for WiFi sessions
    common::Teid agw_teid_ul;
    common::Teid enb_teid_dl;
    common::Ipv4 enb_address;
    core::Policy policy;
    // Federation (home routing, §3.6).
    bool home_routed = false;
    common::Teid home_teid_remote;
    common::Ipv4 home_agg_address;
    common::Teid home_teid_local;
  };

  common::Result<common::SessionId> create_session(const CreateRequest& req);

  // RAN-side tunnel endpoint update (the eNodeB reports its downlink TEID
  // in InitialContextSetupResponse, after the session already exists —
  // LTE's ModifyBearer step). Also clears idle: a fresh bearer means the
  // UE is back in ECM-CONNECTED.
  common::Status update_bearer(const common::Imsi& imsi,
                               common::Teid enb_teid_dl,
                               common::Ipv4 enb_address);

  // ECM-IDLE transition (§3.4 runtime state): the session and its usage
  // survive, the radio path is torn down, and downlink triggers paging.
  common::Status set_idle(const common::Imsi& imsi, bool idle);
  common::Status end_session(const common::Imsi& imsi);
  const SessionRecord* find(const common::Imsi& imsi) const;
  std::size_t active_sessions() const { return by_imsi_.size(); }
  std::vector<common::Imsi> active_imsis() const;

  // Periodic sweep: refresh usage from data-plane counters and enforce
  // tiers/caps/quota. Called by the AGW's service loop.
  void poll_usage();
  // How often the AGW runs poll_usage (public so the AGW can schedule it).
  static constexpr sim::Duration kPollInterval = 2 * sim::kSecond;
  // How often a live session marks its IMSI active / flushes byte deltas
  // into the subscriber sketches. Coarser than the usage poll: the HLL
  // activity window is minutes wide, so per-poll marking would buy nothing
  // but hash work.
  static constexpr sim::Duration kSketchMarkInterval = 60 * sim::kSecond;

  const SessiondStats& stats() const { return stats_; }

  // Checkpoint/restore of all session runtime state (§3.3). checkpoint()
  // appends it to `w`. restore() decodes all of `image` before it replaces
  // any session, then reprograms the data plane to match.
  void checkpoint(rpc::Writer& w) const;
  common::Status restore(common::BytesView image);

 private:
  common::Result<common::SessionId> do_create_session(const CreateRequest& req);
  // Fold the session's live counter reading (bytes on its current rules)
  // into its cumulative usage.
  void refresh_usage(SessionRecord& session, std::uint64_t live_bytes);
  void refresh_usage(SessionRecord& session);
  void enforce(SessionRecord& session);
  void flush_sketch_bytes(SessionRecord& session);
  void apply_flows(SessionRecord& session, const SessionFlows& desired);
  void request_quota(SessionRecord& session);

  sim::Kernel& kernel_;
  Pipelined& pipelined_;
  rpc::RpcNode* ocs_;
  std::uint64_t next_session_id_ = 1;
  std::unordered_map<common::Imsi, SessionRecord> by_imsi_;
  SessiondStats stats_;
  obs::Tracer* tracer_ = nullptr;
  std::string node_;
  obs::Service303* status_ = nullptr;
  obs::sketch::SubscriberSketches* sketches_ = nullptr;
  // The usage poll's one-pass counter read, kept to reuse its storage.
  datapath::CookieCounters poll_counters_;
};

}  // namespace magma::agw
