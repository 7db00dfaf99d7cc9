// UE (user equipment) models.
//
// Each UE carries a real USIM implementation: it runs the same Milenage
// computation as the network side, verifies AUTN (including SQN freshness,
// answering with an AUTS resynchronisation token when the network is
// behind), derives the key hierarchy, and checks NAS integrity MACs. The
// attach dialogue is therefore a genuine mutual-authentication exchange,
// not scripted responses — an auth vector computed with the wrong key or a
// stale SQN really fails, which is what the security tests exercise.
//
// Attach outcomes are reported through a callback together with the attach
// latency, and a T3410-style guard marks attaches that the network never
// completed as failures — the raw material of the Figure 6/8 connection
// success rate (CSR) metric.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <variant>

#include "common/ids.h"
#include "crypto/kdf.h"
#include "crypto/milenage.h"
#include "datapath/pipeline.h"
#include "proto/lte/emm_fsm.h"
#include "proto/lte/nas.h"
#include "proto/nr5g/nas5g.h"
#include "ran/enodeb.h"
#include "ran/gnb.h"
#include "ran/wifi_ap.h"
#include "sim/kernel.h"

namespace magma::ran {

// ---------------------------------------------------------------------------
// USIM
// ---------------------------------------------------------------------------

struct UsimAuthSuccess {
  std::array<std::uint8_t, 8> res{};
  crypto::Key256 kasme{};
};
struct UsimSyncFailure {
  std::array<std::uint8_t, 14> auts{};
};
struct UsimMacFailure {};

using UsimOutcome =
    std::variant<UsimAuthSuccess, UsimSyncFailure, UsimMacFailure>;

class Usim {
 public:
  Usim(common::Imsi imsi, crypto::Key128 k, crypto::Key128 opc);

  // TS 33.102 §6.3.3: verify AUTN's MAC-A, check SQN freshness, produce RES
  // and the key hierarchy — or AUTS on desynchronisation.
  UsimOutcome authenticate(const std::array<std::uint8_t, 16>& rand,
                           const std::array<std::uint8_t, 16>& autn);

  const common::Imsi& imsi() const { return imsi_; }
  std::uint64_t sqn_ms() const { return sqn_ms_; }
  // Test hook: force the USIM ahead of the network to trigger resync.
  void force_sqn(std::uint64_t sqn) { sqn_ms_ = sqn; }

 private:
  common::Imsi imsi_;
  crypto::Milenage milenage_;
  crypto::ServingNetwork sn_;
  std::uint64_t sqn_ms_ = 0;
};

// ---------------------------------------------------------------------------
// Attach reporting (shared by all RATs)
// ---------------------------------------------------------------------------

struct AttachOutcome {
  bool success = false;
  sim::Duration latency = 0;
  std::string failure_reason;
};
using AttachCallback = std::function<void(const AttachOutcome&)>;

struct UeTrafficStats {
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t rx_packets = 0;
};

// What the three UE models share: the attach report, the address the
// network assigned, and the user-plane counters.
class Ue {
 public:
  std::optional<common::Ipv4> ip() const { return ip_; }
  const UeTrafficStats& traffic() const { return traffic_; }

 protected:
  explicit Ue(sim::Kernel& kernel) : kernel_(kernel) {}

  // Starts an attach attempt, cancelling the guard timer of one still
  // pending; `done` fires once, from report().
  void begin_attach(AttachCallback done);
  // Cancels the guard timer and reports the attempt with its latency.
  // Later reports of the same attempt are dropped.
  void report(bool success, std::string failure_reason = {});
  // `packet_count` UDP packets from ip() to `dst`, counted as sent.
  datapath::PacketBatch uplink_batch(common::Ipv4 dst, std::uint16_t dport,
                                     std::uint32_t packet_bytes,
                                     std::uint64_t packet_count);
  void count_downlink(const datapath::PacketBatch& batch);

  sim::Kernel& kernel_;
  sim::EventId guard_timer_;  // armed by the RATs that have one
  std::optional<common::Ipv4> ip_;

 private:
  AttachCallback attach_cb_;
  sim::TimePoint attach_started_ = 0;
  UeTrafficStats traffic_;
};

// ---------------------------------------------------------------------------
// LTE UE
// ---------------------------------------------------------------------------

class UeLte final : public Ue, public LteUeLink {
 public:
  UeLte(sim::Kernel& kernel, Usim usim);

  // Begin the attach dialogue through `enb`. `done` fires exactly once.
  void attach(EnodeB& enb, AttachCallback done);
  void detach(bool switch_off = false);

  bool registered() const {
    return fsm_.state() == proto::lte::EmmState::kRegistered;
  }
  const Usim& usim() const { return usim_; }
  Usim& usim() { return usim_; }

  // Send uplink application traffic (UDP toward `dst`).
  void send_uplink(common::Ipv4 dst, std::uint16_t dport,
                   std::uint32_t packet_bytes, std::uint64_t packet_count);

  // --- ECM-IDLE (§3.4 runtime state: the session outlives the radio) -----
  // Drop the radio connection after inactivity; the UE camps on the cell
  // and wakes on paging (or explicitly via service_request()).
  void enter_idle();
  bool idle() const { return idle_; }
  // Idle→active: NAS ServiceRequest with the stored security context.
  void service_request();
  std::uint64_t pages_received() const { return pages_received_; }

  // --- intra-AGW mobility (§3.2) -------------------------------------------
  // X2-style handover to `target` (must be served by the same AGW).
  // Returns false if the target rejected (capacity): the UE stays put.
  bool handover_to(EnodeB& target);

  // LteUeLink:
  void on_downlink_nas(common::Bytes nas_pdu) override;
  void on_downlink_data(const datapath::PacketBatch& batch) override {
    count_downlink(batch);
  }
  void on_rrc_release() override;
  void on_paging() override;
  void on_handover_complete(EnodeB& target,
                            std::uint32_t new_enb_ue_id) override;

 private:
  void fail(const std::string& reason);
  void send_nas(const proto::lte::NasMessage& msg);

  Usim usim_;

  EnodeB* enb_ = nullptr;
  std::uint32_t enb_ue_id_ = 0;
  proto::lte::EmmFsm fsm_;

  crypto::Key256 kasme_{};
  crypto::Key256 k_nas_int_{};
  crypto::Key256 k_nas_enc_{};
  bool security_active_ = false;  // NAS ciphering engaged (post-SMC)
  std::uint32_t dl_count_ = 0;
  std::uint32_t ul_count_ = 0;
  std::uint32_t dl_cipher_count_ = 0;
  std::uint32_t ul_cipher_count_ = 0;
  std::uint32_t m_tmsi_ = 0;
  bool idle_ = false;
  bool expecting_idle_release_ = false;
  std::uint64_t pages_received_ = 0;
};

// ---------------------------------------------------------------------------
// 5G UE
// ---------------------------------------------------------------------------

class UeNr final : public Ue, public CellUeLink {
 public:
  UeNr(sim::Kernel& kernel, Usim usim);

  // Full 5G bring-up: registration then PDU session. `done` fires once,
  // after the PDU session is established (or on failure/timeout).
  void attach(Gnb& gnb, AttachCallback done);
  void detach(bool switch_off = false);

  bool registered() const { return registered_; }
  bool session_up() const { return ip_.has_value(); }

  void send_uplink(common::Ipv4 dst, std::uint16_t dport,
                   std::uint32_t packet_bytes, std::uint64_t packet_count);

  // CellUeLink:
  void on_downlink_nas(common::Bytes nas_pdu) override;
  void on_downlink_data(const datapath::PacketBatch& batch) override {
    count_downlink(batch);
  }
  void on_rrc_release() override;

 private:
  void fail(const std::string& reason);
  void send_nas(const proto::nr5g::Nas5gMessage& msg);

  Usim usim_;

  Gnb* gnb_ = nullptr;
  std::uint32_t ran_ue_id_ = 0;
  bool registered_ = false;

  crypto::Key256 kasme_{};
  crypto::Key256 k_nas_int_{};
  std::uint32_t dl_count_ = 0;
  std::uint32_t ul_count_ = 0;
};

// ---------------------------------------------------------------------------
// WiFi client
// ---------------------------------------------------------------------------

class WifiClient final : public Ue, public WifiClientLink {
 public:
  WifiClient(sim::Kernel& kernel, common::Imsi user, std::string password);

  void connect(WifiAp& ap, AttachCallback done);
  void disconnect();

  bool connected() const { return ip_.has_value(); }
  const common::Imsi& user() const { return user_; }

  void send_uplink(common::Ipv4 dst, std::uint16_t dport,
                   std::uint32_t packet_bytes, std::uint64_t packet_count);

  // WifiClientLink:
  void on_association_result(common::Result<common::Ipv4> ip) override;
  void on_downlink_data(const datapath::PacketBatch& batch) override {
    count_downlink(batch);
  }

 private:
  common::Imsi user_;
  std::string password_;
  WifiAp* ap_ = nullptr;
};

}  // namespace magma::ran
