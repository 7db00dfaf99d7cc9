// GTP-C v2 messages (TS 29.274), subset for session management.
//
// Used in two places: the Federation Gateway speaks GTP-C toward an MNO's
// P-GW (§3.6), and the ablation bench A2 runs GTP-C over a lossy backhaul
// with its own standards-style naive retransmission (T3-RESPONSE timer, N3
// retries) to demonstrate why Magma terminates GTP at the AGW instead
// (§3.1: GTP "struggles to operate over lower quality or congested backhaul
// links").
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/result.h"

namespace magma::proto::lte {

// GTP-C retransmission parameters (TS 29.274 §7.6): the protocol's own
// reliability, which performs poorly at high loss/latency.
struct GtpcTimers {
  static constexpr std::int64_t kT3Response_ms = 3000;
  static constexpr int kN3Requests = 3;
};

struct CreateSessionRequest {
  common::Imsi imsi;
  std::string apn = "internet";
  common::Teid sender_teid_c;  // control TEID the peer should reply to
  common::Ipv4 sender_address;
  std::uint32_t sequence = 0;
  bool operator==(const CreateSessionRequest&) const = default;
};

struct CreateSessionResponse {
  std::uint8_t cause = 16;  // 16 = accepted
  common::Teid pgw_teid_c;
  common::Teid pgw_teid_u;   // user-plane tunnel at the P-GW / GTP-A
  common::Ipv4 pgw_address;
  common::Ipv4 pdn_address;  // UE address allocated by the P-GW
  std::uint32_t sequence = 0;
  bool operator==(const CreateSessionResponse&) const = default;
};

struct ModifyBearerRequest {
  common::Teid teid;  // peer's control TEID
  common::Teid enb_teid_u;
  common::Ipv4 enb_address;
  std::uint32_t sequence = 0;
  bool operator==(const ModifyBearerRequest&) const = default;
};

struct ModifyBearerResponse {
  std::uint8_t cause = 16;
  std::uint32_t sequence = 0;
  bool operator==(const ModifyBearerResponse&) const = default;
};

struct DeleteSessionRequest {
  common::Teid teid;
  std::uint32_t sequence = 0;
  bool operator==(const DeleteSessionRequest&) const = default;
};

struct DeleteSessionResponse {
  std::uint8_t cause = 16;
  std::uint32_t sequence = 0;
  bool operator==(const DeleteSessionResponse&) const = default;
};

using GtpcMessage =
    std::variant<CreateSessionRequest, CreateSessionResponse,
                 ModifyBearerRequest, ModifyBearerResponse,
                 DeleteSessionRequest, DeleteSessionResponse>;

common::Bytes encode_gtpc(const GtpcMessage& msg);
common::Result<GtpcMessage> decode_gtpc(common::BytesView data);

// Sequence number accessor (retransmission matching).
std::uint32_t gtpc_sequence(const GtpcMessage& msg);

}  // namespace magma::proto::lte
