// NGAP messages (TS 38.413), gNB ↔ AGW — the 5G analogue of S1AP.
//
// As with NAS, the structural parallel to proto/lte/s1ap.h is the point: the
// AGW's NR front-end terminates NGAP next to the radio and the generic
// services behind it never see the difference (Table 1).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <variant>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/result.h"

namespace magma::proto::nr5g {

struct NgSetupRequest {
  common::RanNodeId gnb_id;
  std::string gnb_name;
  std::string plmn = common::kPlmn;
  bool operator==(const NgSetupRequest&) const = default;
};

struct NgSetupResponse {
  std::string amf_name;
  bool operator==(const NgSetupResponse&) const = default;
};

struct InitialUeMessage5g {
  std::uint32_t ran_ue_ngap_id = 0;
  common::Bytes nas_pdu;
  bool operator==(const InitialUeMessage5g&) const = default;
};

struct UplinkNasTransport5g {
  std::uint32_t ran_ue_ngap_id = 0;
  std::uint32_t amf_ue_ngap_id = 0;
  common::Bytes nas_pdu;
  bool operator==(const UplinkNasTransport5g&) const = default;
};

struct DownlinkNasTransport5g {
  std::uint32_t ran_ue_ngap_id = 0;
  std::uint32_t amf_ue_ngap_id = 0;
  common::Bytes nas_pdu;
  bool operator==(const DownlinkNasTransport5g&) const = default;
};

// 5G separates the PDU session resource setup from initial context setup;
// this carries the user-plane tunnel info for one PDU session.
struct PduSessionResourceSetupRequest {
  std::uint32_t ran_ue_ngap_id = 0;
  std::uint32_t amf_ue_ngap_id = 0;
  std::uint8_t pdu_session_id = 1;
  common::Teid agw_teid_ul;
  common::Ipv4 agw_address;
  common::Bytes nas_pdu;  // piggybacked PduSessionEstablishmentAccept
  bool operator==(const PduSessionResourceSetupRequest&) const = default;
};

struct PduSessionResourceSetupResponse {
  std::uint32_t ran_ue_ngap_id = 0;
  std::uint32_t amf_ue_ngap_id = 0;
  std::uint8_t pdu_session_id = 1;
  common::Teid gnb_teid_dl;
  common::Ipv4 gnb_address;
  bool operator==(const PduSessionResourceSetupResponse&) const = default;
};

struct UeContextReleaseCommand5g {
  std::uint32_t ran_ue_ngap_id = 0;
  std::uint32_t amf_ue_ngap_id = 0;
  std::string cause;
  bool operator==(const UeContextReleaseCommand5g&) const = default;
};

struct UeContextReleaseComplete5g {
  std::uint32_t ran_ue_ngap_id = 0;
  std::uint32_t amf_ue_ngap_id = 0;
  bool operator==(const UeContextReleaseComplete5g&) const = default;
};

using NgapMessage =
    std::variant<NgSetupRequest, NgSetupResponse, InitialUeMessage5g,
                 UplinkNasTransport5g, DownlinkNasTransport5g,
                 PduSessionResourceSetupRequest,
                 PduSessionResourceSetupResponse, UeContextReleaseCommand5g,
                 UeContextReleaseComplete5g>;

common::Bytes encode_ngap(const NgapMessage& msg);
common::Result<NgapMessage> decode_ngap(common::BytesView data);

}  // namespace magma::proto::nr5g
