// S1 Application Protocol messages (TS 36.413), eNodeB ↔ AGW.
//
// In a traditional EPC these run over SCTP between the eNodeB and a distant
// MME; in Magma the S1 interface terminates in the AGW co-located with the
// radio (§3), so these messages only ever cross one LAN hop. The subset here
// covers S1 setup, NAS transport, initial context (bearer) setup, and UE
// context release — everything the attach/detach/service flows need.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <variant>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/result.h"

namespace magma::proto::lte {

struct S1SetupRequest {
  common::RanNodeId enb_id;
  std::string enb_name;
  std::string plmn = common::kPlmn;
  std::uint16_t tac = 1;
  bool operator==(const S1SetupRequest&) const = default;
};

struct S1SetupResponse {
  std::string mme_name;
  std::uint8_t relative_capacity = 255;
  bool operator==(const S1SetupResponse&) const = default;
};

struct S1SetupFailure {
  std::string cause;
  bool operator==(const S1SetupFailure&) const = default;
};

struct InitialUeMessage {
  std::uint32_t enb_ue_s1ap_id = 0;
  std::uint16_t tac = 1;
  common::Bytes nas_pdu;
  bool operator==(const InitialUeMessage&) const = default;
};

struct UplinkNasTransport {
  std::uint32_t enb_ue_s1ap_id = 0;
  std::uint32_t mme_ue_s1ap_id = 0;
  common::Bytes nas_pdu;
  bool operator==(const UplinkNasTransport&) const = default;
};

struct DownlinkNasTransport {
  std::uint32_t enb_ue_s1ap_id = 0;
  std::uint32_t mme_ue_s1ap_id = 0;
  common::Bytes nas_pdu;
  bool operator==(const DownlinkNasTransport&) const = default;
};

// Sets up the radio-side of the default bearer: the eNodeB learns the AGW's
// GTP-U endpoint and the AS security key, and relays the piggybacked
// AttachAccept to the UE.
struct InitialContextSetupRequest {
  std::uint32_t enb_ue_s1ap_id = 0;
  std::uint32_t mme_ue_s1ap_id = 0;
  common::Teid agw_teid_ul;        // uplink GTP-U TEID at the AGW
  common::Ipv4 agw_address;        // AGW GTP-U endpoint
  std::array<std::uint8_t, 32> kenb{};  // AS root key (K_eNB)
  common::Bytes nas_pdu;           // piggybacked AttachAccept
  bool operator==(const InitialContextSetupRequest&) const = default;
};

struct InitialContextSetupResponse {
  std::uint32_t enb_ue_s1ap_id = 0;
  std::uint32_t mme_ue_s1ap_id = 0;
  common::Teid enb_teid_dl;  // downlink GTP-U TEID at the eNodeB
  common::Ipv4 enb_address;
  bool operator==(const InitialContextSetupResponse&) const = default;
};

struct InitialContextSetupFailure {
  std::uint32_t enb_ue_s1ap_id = 0;
  std::uint32_t mme_ue_s1ap_id = 0;
  std::string cause;
  bool operator==(const InitialContextSetupFailure&) const = default;
};

struct UeContextReleaseCommand {
  std::uint32_t enb_ue_s1ap_id = 0;
  std::uint32_t mme_ue_s1ap_id = 0;
  std::string cause;
  bool operator==(const UeContextReleaseCommand&) const = default;
};

// eNodeB-initiated release (TS 36.413 §8.3.2), e.g. user inactivity: the
// UE drops to ECM-IDLE but stays EMM-REGISTERED — its session survives.
struct UeContextReleaseRequest {
  std::uint32_t enb_ue_s1ap_id = 0;
  std::uint32_t mme_ue_s1ap_id = 0;
  std::string cause = "user-inactivity";
  bool operator==(const UeContextReleaseRequest&) const = default;
};

// X2-style intra-AGW handover completion: the *target* eNodeB asks the core
// to switch the downlink path to its tunnel endpoint (TS 36.413 §8.4.4).
struct PathSwitchRequest {
  std::uint32_t enb_ue_s1ap_id = 0;  // id at the target eNodeB
  std::uint32_t mme_ue_s1ap_id = 0;
  common::Teid enb_teid_dl;  // target's downlink tunnel endpoint
  common::Ipv4 enb_address;
  bool operator==(const PathSwitchRequest&) const = default;
};

struct PathSwitchRequestAcknowledge {
  std::uint32_t enb_ue_s1ap_id = 0;
  std::uint32_t mme_ue_s1ap_id = 0;
  bool operator==(const PathSwitchRequestAcknowledge&) const = default;
};

// Paging (TS 36.413 §8.5): wake an ECM-IDLE UE for pending downlink.
struct PagingMessage {
  common::Imsi imsi;  // real paging uses S-TMSI; the identity role is the same
  bool operator==(const PagingMessage&) const = default;
};

struct UeContextReleaseComplete {
  std::uint32_t enb_ue_s1ap_id = 0;
  std::uint32_t mme_ue_s1ap_id = 0;
  bool operator==(const UeContextReleaseComplete&) const = default;
};

using S1apMessage =
    std::variant<S1SetupRequest, S1SetupResponse, S1SetupFailure,
                 InitialUeMessage, UplinkNasTransport, DownlinkNasTransport,
                 InitialContextSetupRequest, InitialContextSetupResponse,
                 InitialContextSetupFailure, UeContextReleaseCommand,
                 UeContextReleaseComplete, UeContextReleaseRequest,
                 PathSwitchRequest, PathSwitchRequestAcknowledge,
                 PagingMessage>;

common::Bytes encode_s1ap(const S1apMessage& msg);
common::Result<S1apMessage> decode_s1ap(common::BytesView data);

}  // namespace magma::proto::lte
