// LTE front-end: terminates S1AP + NAS from eNodeBs (Figure 4, left side).
//
// This is the radio-specific module for 4G: it speaks TS 36.413/24.301
// toward the RAN, and the generic Accessd/Sessiond interfaces toward the
// rest of the AGW. Everything 3GPP-shaped about LTE — the attach state
// machine legs, NAS integrity MACs, S1AP id pairs, the ModifyBearer-style
// TEID update after InitialContextSetup — lives here and leaks no further
// (§3.1: control protocols "are terminated early in technology-specific
// modules close to the radio").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "agw/accessd.h"
#include "common/ids.h"
#include "crypto/kdf.h"
#include "net/channel.h"
#include "obs/events.h"
#include "obs/trace.h"
#include "proto/lte/nas.h"
#include "proto/lte/s1ap.h"
#include "sim/kernel.h"

namespace magma::agw {

struct LteFrontendStats {
  std::uint64_t s1_setups = 0;
  std::uint64_t initial_ue_messages = 0;
  std::uint64_t auth_requests_sent = 0;
  std::uint64_t auth_resyncs = 0;
  std::uint64_t smc_sent = 0;
  std::uint64_t attach_accepts = 0;
  std::uint64_t attach_rejects = 0;
  std::uint64_t attach_completes = 0;
  std::uint64_t detaches = 0;
  std::uint64_t bad_mac = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t idle_transitions = 0;
  std::uint64_t pages_sent = 0;
  std::uint64_t service_requests = 0;
  std::uint64_t service_accepts = 0;
  std::uint64_t path_switches = 0;
};

class LteFrontend {
 public:
  LteFrontend(sim::Kernel& kernel, Accessd& accessd, Sessiond& sessiond,
              common::Ipv4 agw_address);

  // Attach one eNodeB's S1 connection. The frontend takes the receive side
  // of the channel; responses flow back over the same channel.
  void add_enb_channel(net::Channel& channel);

  // Page an ECM-IDLE UE (downlink pending at the data plane). Broadcast on
  // every S1 connection, rate-limited per IMSI.
  void page(const common::Imsi& imsi);

  // Tracing + events (optional): each attach procedure gets a root span
  // covering InitialUeMessage → AttachComplete; outcomes are recorded as
  // structured events in `events` (shipped to the orchestrator by magmad).
  void set_observability(obs::Tracer* tracer, std::string node,
                         obs::EventBuffer* events = nullptr);

  const LteFrontendStats& stats() const { return stats_; }

 private:
  struct EnbConn {
    net::Channel* channel = nullptr;
  };

  struct UeCtx {
    common::Imsi imsi;
    EnbConn* conn = nullptr;
    std::uint32_t enb_ue_id = 0;
    std::uint32_t mme_ue_id = 0;
    crypto::Key256 kasme{};
    crypto::Key256 k_nas_int{};
    bool security_active = false;
    bool idle = false;  // ECM-IDLE: context kept, no radio association
    std::uint32_t dl_count = 0;
    std::uint32_t ul_count = 0;
    // NAS ciphering (EEA2-style) starts once security is active; separate
    // per-direction counters keyed to ciphered messages only. The
    // SecurityModeComplete itself is sent unciphered in this model (it
    // activates ciphering on both sides).
    crypto::Key256 k_nas_enc{};
    std::uint32_t dl_cipher_count = 0;
    std::uint32_t ul_cipher_count = 0;
    std::uint32_t m_tmsi = 0;
    // Root span of the in-flight attach procedure (invalid once closed).
    obs::TraceContext trace{};
    // When the attach last went quiet waiting for the UE (a downlink NAS
    // that needs an uplink answer is in flight); -1 when not waiting. The
    // gap to the next uplink is charged to the root span as link transit —
    // the radio-leg round trips that are otherwise invisible to the AGW.
    sim::TimePoint awaiting_ue_since = -1;
  };

  void on_message(EnbConn& conn, common::Bytes raw);
  void handle(EnbConn& conn, proto::lte::S1apMessage msg);
  void handle_nas(UeCtx& ue, const proto::lte::NasMessage& nas);
  void handle_service_request(EnbConn& conn, std::uint32_t enb_ue_id,
                              const proto::lte::ServiceRequest& sr);
  void send(EnbConn& conn, const proto::lte::S1apMessage& msg);
  void send_nas(UeCtx& ue, const proto::lte::NasMessage& nas);
  void reject(UeCtx& ue, proto::lte::EmmCause cause);
  void release_ue(UeCtx& ue, const std::string& cause);
  UeCtx* find_by_mme_id(std::uint32_t mme_ue_id);
  // Close the attach root span with `outcome`, emit an event of `type`,
  // and invalidate ue.trace. No-op if no attach trace is open.
  void finish_attach_trace(UeCtx& ue, const char* outcome, const char* type,
                           const std::string& detail);

  // Apply NAS ciphering to an outgoing (downlink) pdu if security is
  // active; consumes one downlink cipher count.
  common::Bytes protect_downlink(UeCtx& ue, common::Bytes pdu);

  sim::Kernel& kernel_;
  Accessd& accessd_;
  Sessiond& sessiond_;
  common::Ipv4 agw_address_;

  std::vector<std::unique_ptr<EnbConn>> conns_;
  std::unordered_map<std::uint32_t, UeCtx> ues_;  // by mme_ue_id
  std::unordered_map<common::Imsi, std::uint32_t> imsi_to_mme_id_;
  std::unordered_map<std::uint32_t, std::uint32_t> tmsi_to_mme_id_;
  std::unordered_map<common::Imsi, sim::TimePoint> last_page_;
  std::uint32_t next_mme_ue_id_ = 1;
  std::uint32_t next_m_tmsi_ = 0x1000;
  LteFrontendStats stats_;
  obs::Tracer* tracer_ = nullptr;
  std::string node_;
  obs::EventBuffer* events_ = nullptr;
};

}  // namespace magma::agw
