// RADIUS (RFC 2865/2866) — the WiFi world's AAA protocol.
//
// Table 1: for WiFi, access control, subscriber management, and session
// management all correspond to "RADIUS AAA". Magma's WiFi front-end
// terminates RADIUS from access points and maps it onto the same generic
// services the LTE/5G front-ends use. Attributes are encoded as real RFC
// TLVs (type, length, value) and round-trip through encode/decode.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/result.h"

namespace magma::proto::wifi {

enum class RadiusCode : std::uint8_t {
  kAccessRequest = 1,
  kAccessAccept = 2,
  kAccessReject = 3,
  kAccountingRequest = 4,
  kAccountingResponse = 5,
  kAccessChallenge = 11,
};

enum class AcctStatus : std::uint32_t {
  kStart = 1,
  kStop = 2,
  kInterimUpdate = 3,
};

// Attribute set used by the Magma WiFi front-end (absent = not included).
struct RadiusAttributes {
  std::optional<std::string> user_name;           // 1
  std::optional<common::Bytes> chap_password;     // 3 (response to challenge)
  std::optional<common::Ipv4> framed_ip;          // 8
  std::optional<std::string> calling_station_id;  // 31 (client MAC)
  std::optional<AcctStatus> acct_status;          // 40
  std::optional<std::uint32_t> acct_input_octets;   // 42
  std::optional<std::uint32_t> acct_output_octets;  // 43
  std::optional<std::string> acct_session_id;     // 44
  std::optional<common::Bytes> chap_challenge;    // 60

  bool operator==(const RadiusAttributes&) const = default;
};

struct RadiusPacket {
  RadiusCode code = RadiusCode::kAccessRequest;
  std::uint8_t identifier = 0;
  RadiusAttributes attributes;

  bool operator==(const RadiusPacket&) const = default;
};

common::Bytes encode_radius(const RadiusPacket& pkt);
common::Result<RadiusPacket> decode_radius(common::BytesView data);

}  // namespace magma::proto::wifi
