// 5G NAS messages (TS 24.501): registration + PDU session establishment.
//
// Deliberately parallel to proto/lte/nas.h — the message *shapes* differ
// (SUPI vs IMSI naming, PDU sessions vs EPS bearers, RES* vs RES) but the
// functions are the same, which is the observation behind Table 1: the
// Magma AGW terminates either dialect in a thin front-end and drives the
// same generic access/subscriber/session services.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <variant>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/result.h"
#include "crypto/kdf.h"

namespace magma::proto::nr5g {

enum class FgmmCause : std::uint8_t {
  kIllegalUe = 3,
  kPlmnNotAllowed = 11,
  kNetworkFailure = 17,
  kCongestion = 22,
};

struct RegistrationRequest {
  common::Imsi supi;  // SUPI in IMSI format
  bool operator==(const RegistrationRequest&) const = default;
};

struct AuthenticationRequest5g {
  std::array<std::uint8_t, 16> rand{};
  std::array<std::uint8_t, 16> autn{};
  bool operator==(const AuthenticationRequest5g&) const = default;
};

struct AuthenticationResponse5g {
  // RES* (TS 33.501 A.4) is 16 bytes, vs LTE's 8-byte RES.
  std::array<std::uint8_t, 16> res_star{};
  bool operator==(const AuthenticationResponse5g&) const = default;
};

struct SecurityModeCommand5g {
  std::uint8_t ciphering_alg = 2;  // NEA2
  std::uint8_t integrity_alg = 2;  // NIA2
  std::uint32_t mac = 0;
  bool operator==(const SecurityModeCommand5g&) const = default;
};

struct SecurityModeComplete5g {
  std::uint32_t mac = 0;
  bool operator==(const SecurityModeComplete5g&) const = default;
};

struct RegistrationAccept {
  std::uint32_t fg_tmsi = 0;
  std::uint32_t mac = 0;
  bool operator==(const RegistrationAccept&) const = default;
};

struct RegistrationComplete {
  std::uint32_t mac = 0;
  bool operator==(const RegistrationComplete&) const = default;
};

struct RegistrationReject {
  FgmmCause cause = FgmmCause::kNetworkFailure;
  bool operator==(const RegistrationReject&) const = default;
};

// 5G separates session management from registration (Figure 1: SMF vs AMF);
// the PDU session is requested after registration completes.
struct PduSessionEstablishmentRequest {
  std::uint8_t pdu_session_id = 1;
  std::string dnn = "internet";  // 5G name for APN
  bool operator==(const PduSessionEstablishmentRequest&) const = default;
};

struct PduSessionEstablishmentAccept {
  std::uint8_t pdu_session_id = 1;
  common::Ipv4 ue_address;
  std::uint8_t fiveqi = 9;
  std::uint64_t ambr_dl_bps = 0;
  std::uint64_t ambr_ul_bps = 0;
  bool operator==(const PduSessionEstablishmentAccept&) const = default;
};

struct PduSessionEstablishmentReject {
  std::uint8_t pdu_session_id = 1;
  FgmmCause cause = FgmmCause::kNetworkFailure;
  bool operator==(const PduSessionEstablishmentReject&) const = default;
};

struct DeregistrationRequest5g {
  bool switch_off = false;
  bool operator==(const DeregistrationRequest5g&) const = default;
};

struct DeregistrationAccept5g {
  bool operator==(const DeregistrationAccept5g&) const = default;
};

using Nas5gMessage = std::variant<
    RegistrationRequest, AuthenticationRequest5g, AuthenticationResponse5g,
    SecurityModeCommand5g, SecurityModeComplete5g, RegistrationAccept,
    RegistrationComplete, RegistrationReject, PduSessionEstablishmentRequest,
    PduSessionEstablishmentAccept, PduSessionEstablishmentReject,
    DeregistrationRequest5g, DeregistrationAccept5g>;

common::Bytes encode_nas5g(const Nas5gMessage& msg);
common::Result<Nas5gMessage> decode_nas5g(common::BytesView data);

// Integrity MAC of `msg` under K_NASint at NAS COUNT `count`: computed over
// its encoding with its `mac` field (if it has one) zeroed. The UE and the
// AGW both call this, so the two ends agree by construction.
std::uint32_t nas_mac(const crypto::Key256& k_nas_int, std::uint32_t count,
                      Nas5gMessage msg);

}  // namespace magma::proto::nr5g
