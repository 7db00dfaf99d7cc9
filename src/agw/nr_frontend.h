// 5G front-end: terminates NGAP + 5G NAS from gNBs.
//
// Exercises the part of Figure 1 that differs from LTE: registration and
// session management are decoupled (AMF vs SMF), so the UE first registers
// (auth + security + RegistrationAccept) and only then requests a PDU
// session. Both legs drive the *same* generic Accessd/Sessiond services as
// the LTE front-end — the architectural claim of Table 1.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "agw/accessd.h"
#include "common/ids.h"
#include "crypto/kdf.h"
#include "net/channel.h"
#include "proto/nr5g/nas5g.h"
#include "proto/nr5g/ngap.h"

namespace magma::agw {

struct NrFrontendStats {
  std::uint64_t ng_setups = 0;
  std::uint64_t registrations_started = 0;
  std::uint64_t registrations_accepted = 0;
  std::uint64_t registrations_rejected = 0;
  std::uint64_t pdu_sessions_established = 0;
  std::uint64_t pdu_sessions_rejected = 0;
  std::uint64_t deregistrations = 0;
  std::uint64_t bad_mac = 0;
  std::uint64_t decode_errors = 0;
};

class NrFrontend {
 public:
  NrFrontend(Accessd& accessd, Sessiond& sessiond, common::Ipv4 agw_address);

  void add_gnb_channel(net::Channel& channel);

  const NrFrontendStats& stats() const { return stats_; }

 private:
  struct UeCtx {
    common::Imsi supi;
    net::Channel* conn = nullptr;
    std::uint32_t ran_ue_id = 0;
    std::uint32_t amf_ue_id = 0;
    crypto::Key256 kasme{};  // plays the role of KAMF
    crypto::Key256 k_nas_int{};
    bool registered = false;
    std::uint32_t dl_count = 0;
    std::uint32_t ul_count = 0;
  };

  void on_message(net::Channel& conn, common::Bytes raw);
  void handle(net::Channel& conn, proto::nr5g::NgapMessage msg);
  void handle_nas(UeCtx& ue, const proto::nr5g::Nas5gMessage& nas);
  void send(net::Channel& conn, const proto::nr5g::NgapMessage& msg);
  void send_nas(UeCtx& ue, const proto::nr5g::Nas5gMessage& nas);
  void reject_registration(UeCtx& ue, proto::nr5g::FgmmCause cause);
  void release_ue(UeCtx& ue, const std::string& cause);
  UeCtx* find_by_amf_id(std::uint32_t amf_ue_id);

  Accessd& accessd_;
  Sessiond& sessiond_;
  common::Ipv4 agw_address_;

  std::unordered_map<std::uint32_t, UeCtx> ues_;  // by amf_ue_id
  std::unordered_map<common::Imsi, std::uint32_t> supi_to_amf_id_;
  std::uint32_t next_amf_ue_id_ = 1;
  std::uint32_t next_fg_tmsi_ = 0x5000;
  NrFrontendStats stats_;
};

}  // namespace magma::agw
