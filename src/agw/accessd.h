// accessd — generic Access Control & Management (Table 1: the role of the
// LTE MME, the 5G AMF, and WiFi's RADIUS AAA, provided once).
//
// §3.1: "UE authentication and session establishment are done in a common
// way by generic functions that cover 4G, 5G, and WiFi procedures." The
// radio-specific front-ends terminate their protocols and drive this
// service through three technology-independent stages:
//
//   1. begin_attach(imsi, rat)   → authentication challenge
//   2. verify_auth(imsi, response) → security keys (or resync via AUTS)
//   3. establish(imsi, bearer endpoints) → session info (IP, QoS, TEIDs)
//   4. detach(imsi)
//
// Stage transitions follow the shared EMM FSM; invalid sequencing is
// rejected. Control-plane CPU cost is charged per stage through the host's
// CpuModel, serialized across a configurable number of worker shards —
// this is the "MME component" bottleneck of Figure 6 ("Maximum supported
// attach rates are limited by the AGW (specifically, the MME component)").
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>

#include "agw/mobilityd.h"
#include "agw/policydb.h"
#include "agw/sessiond.h"
#include "agw/subscriberdb.h"
#include "common/ids.h"
#include "common/result.h"
#include "crypto/kdf.h"
#include "obs/sketch/subscriber_sketches.h"
#include "obs/status.h"
#include "obs/trace.h"
#include "proto/lte/emm_fsm.h"
#include "sim/cpu.h"
#include "sim/kernel.h"

namespace magma::agw {

enum class RanType : std::uint8_t { kLte = 0, kNr5g = 1, kWifi = 2 };
const char* ran_type_name(RanType rat);

struct AuthChallenge {
  std::array<std::uint8_t, 16> rand{};
  std::array<std::uint8_t, 16> autn{};  // unused for WiFi CHAP
};

struct SecurityKeys {
  crypto::Key256 kasme{};  // root; front-ends derive NAS/AS keys from it
};

struct SessionInfo {
  common::SessionId session_id;
  common::Ipv4 ue_ip;
  common::Teid agw_teid_ul;  // uplink tunnel endpoint at this AGW (LTE/5G)
  std::uint8_t qci = 9;
  std::uint64_t ambr_dl_bps = 0;
  std::uint64_t ambr_ul_bps = 0;
};

struct AccessdConfig {
  // Parallelism of control-plane processing (MME worker shards). The
  // bare-metal AGW profile uses 1; the virtual AGW parallelizes. The
  // per-stage CPU costs each worker pays are calibrated constants in
  // accessd.cpp (DESIGN.md §6).
  int workers = 1;
  // Reject new control work beyond this queue depth (overload shedding,
  // the SCTP-backlog analogue). Bounded queueing is what makes CSR degrade
  // *gradually* toward capacity/offered under overload (Figures 6/8)
  // instead of collapsing when queueing delay crosses the NAS guard timer.
  // 32 pending stages ≈ 10 s of backlog on the bare-metal profile — safely
  // inside T3410, so shedding (not timeout collapse) governs overload.
  std::size_t max_queue = 32;
};

struct AccessdStats {
  std::uint64_t attach_started[3] = {0, 0, 0};   // by RanType
  std::uint64_t attach_completed[3] = {0, 0, 0};
  std::uint64_t attach_rejected[3] = {0, 0, 0};
  std::uint64_t auth_failures = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t detaches = 0;
  std::uint64_t overload_rejections = 0;
  std::uint64_t invalid_transitions = 0;
};

class Accessd {
 public:
  // `cpu` may be null (unit tests without CPU modeling: work runs in zero
  // simulated time).
  Accessd(sim::Kernel& kernel, sim::CpuModel* cpu, SubscriberDb& subscribers,
          PolicyDb& policies, Mobilityd& mobilityd, Sessiond& sessiond,
          AccessdConfig config = {});

  void begin_attach(const common::Imsi& imsi, RanType rat,
                    std::function<void(common::Result<AuthChallenge>)> done);

  // `response`: 8-byte RES (LTE), 16-byte RES* (5G; the first 8 bytes must
  // match XRES in this simplified hierarchy), or 8-byte CHAP digest (WiFi).
  void verify_auth(const common::Imsi& imsi, common::BytesView response,
                   std::function<void(common::Result<SecurityKeys>)> done);

  // UE reported SQN desynchronisation (AUTS): resync and issue a fresh
  // challenge.
  void resync_auth(const common::Imsi& imsi,
                   const std::array<std::uint8_t, 14>& auts,
                   std::function<void(common::Result<AuthChallenge>)> done);

  struct EstablishRequest {
    common::Imsi imsi;
    common::Teid enb_teid_dl;  // RAN-side tunnel endpoint (0 for WiFi)
    common::Ipv4 enb_address;
  };
  void establish(const EstablishRequest& req,
                 std::function<void(common::Result<SessionInfo>)> done);

  void detach(const common::Imsi& imsi,
              std::function<void(common::Status)> done);

  // --- federation (§3.6, home-routing mode) ------------------------------
  // When a federation hook is set, session establishment delegates the
  // user-plane anchor to the partner MNO: the hook (backed by the FeG)
  // creates the session at the MNO's P-GW via the GTP aggregator and
  // returns the MNO-allocated UE address plus tunnel endpoints. The local
  // breakout mode needs no hook: only the subscriber data is federated.
  struct FederatedSession {
    common::Ipv4 ue_ip;              // allocated by the MNO P-GW
    common::Teid home_teid_remote;   // our uplink tunnel id at the GTP-A
    common::Ipv4 home_agg_address;   // GTP-A address
  };
  using FederationHook = std::function<void(
      const common::Imsi&, common::Teid local_teid,
      std::function<void(common::Result<FederatedSession>)>)>;
  void set_federation(FederationHook hook) { federation_ = std::move(hook); }

  // Tracing (optional): stage spans cover queueing + CPU charge + logic,
  // parented on the context current at the entry point (the front-end's
  // attach root). `node` names this gateway in span records.
  void set_observability(obs::Tracer* tracer, std::string node);

  // Service303 handle (optional): every public entry point counts a
  // request; overload shedding counts an error.
  void set_status(obs::Service303* status) { status_ = status; }

  // Per-subscriber sketches (optional): every attach rejection records the
  // IMSI into the attach-failure heavy-hitter sketch (with the failing
  // stage span as exemplar), and every attach attempt marks the IMSI
  // active — "who fails to attach" stays answerable at fleet scale.
  void set_subscriber_sketches(obs::sketch::SubscriberSketches* sketches) {
    sketches_ = sketches;
  }

  // Attach-context state, for tests and the AGW checkpoint.
  std::optional<proto::lte::EmmState> ue_state(const common::Imsi& imsi) const;
  std::size_t pending_contexts() const { return contexts_.size(); }
  std::size_t queued_work() const { return work_queue_.size(); }
  const AccessdStats& stats() const { return stats_; }

 private:
  struct UeContext {
    RanType rat = RanType::kLte;
    proto::lte::EmmFsm fsm;
    AuthVector vector;
    bool has_vector = false;
    sim::EventId guard_timer;
  };

  // Control-plane work scheduling: at most `workers` items execute
  // concurrently; the rest wait FIFO. Each item charges `cost` to the CPU
  // before its logic runs, attributed to `label` in the CPU profiler.
  // `origin` is the span the work belongs to (the stage span): its time in
  // the shard queue is charged as run-queue wait, and the CPU submission
  // runs under it so the scheduler's own runq/cpu charges land there too.
  void submit_work(sim::LabelId label, double cost, obs::TraceContext origin,
                   std::function<void()> logic,
                   std::function<void()> on_reject);
  void pump();

  void arm_guard(const common::Imsi& imsi);
  void drop_context(const common::Imsi& imsi);
  // Feed one attach rejection into the heavy-hitter sketch, with the
  // current stage span (error-pinned by its tag) as exemplar.
  void note_attach_failure(const common::Imsi& imsi);

  common::Result<AuthChallenge> do_begin(const common::Imsi& imsi,
                                         RanType rat);
  common::Result<SecurityKeys> do_verify(const common::Imsi& imsi,
                                         const common::Bytes& response);
  void do_establish(const EstablishRequest& req,
                    std::function<void(common::Result<SessionInfo>)> done);
  common::Result<SessionInfo> finish_establish(
      const EstablishRequest& req, UeContext& ctx,
      const core::Policy& policy, common::Ipv4 ue_ip, bool home_routed,
      const FederatedSession& fed, common::Teid agw_teid,
      common::Teid home_teid_local);

  sim::Kernel& kernel_;
  sim::CpuModel* cpu_;
  SubscriberDb& subscribers_;
  PolicyDb& policies_;
  Mobilityd& mobilityd_;
  Sessiond& sessiond_;
  AccessdConfig config_;

  std::unordered_map<common::Imsi, UeContext> contexts_;
  std::uint32_t next_teid_ = 1;

  struct Work {
    sim::LabelId label;
    double cost;
    obs::TraceContext origin;  // stage span the charges belong to
    sim::TimePoint queued_at = 0;
    std::function<void()> logic;
  };
  std::deque<Work> work_queue_;
  int active_workers_ = 0;

  FederationHook federation_;
  AccessdStats stats_;
  obs::Tracer* tracer_ = nullptr;
  std::string node_;
  obs::Service303* status_ = nullptr;
  obs::sketch::SubscriberSketches* sketches_ = nullptr;
  // Profiler labels for the per-stage CPU charges (interned once at
  // construction when a CPU model is present).
  sim::LabelId label_begin_ = sim::kUnattributed;
  sim::LabelId label_verify_ = sim::kUnattributed;
  sim::LabelId label_establish_ = sim::kUnattributed;
  sim::LabelId label_detach_ = sim::kUnattributed;
  sim::LabelId label_resync_ = sim::kUnattributed;
};

}  // namespace magma::agw
