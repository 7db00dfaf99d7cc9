// LTE Non-Access Stratum messages (TS 24.301, EMM + ESM).
//
// These are the radio-specific control messages the AGW's LTE front-end
// terminates (§3.1, Figure 4 left side). Field sets follow the standard; the
// byte encoding is our own wire format (DESIGN.md "Known non-goals").
//
// The attach flow implemented end-to-end (UE ↔ eNodeB ↔ AGW):
//   AttachRequest → AuthenticationRequest → AuthenticationResponse →
//   SecurityModeCommand → SecurityModeComplete →
//   AttachAccept (carrying the ESM ActivateDefaultEpsBearer) →
//   AttachComplete
// plus AuthenticationFailure/AttachReject error legs, and Detach / Service
// Request flows.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <variant>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/result.h"
#include "crypto/kdf.h"

namespace magma::proto::lte {

// EMM cause values (TS 24.301 §9.9.3.9), subset we use.
enum class EmmCause : std::uint8_t {
  kImsiUnknownInHss = 2,
  kIllegalUe = 3,
  kPlmnNotAllowed = 11,
  kNetworkFailure = 17,
  kCongestion = 22,
  kSecurityModeRejected = 24,
  kSynchFailure = 21,
};

struct UeNetworkCapability {
  bool supports_eea2 = true;  // AES ciphering
  bool supports_eia2 = true;  // AES integrity
  bool operator==(const UeNetworkCapability&) const = default;
};

struct AttachRequest {
  common::Imsi imsi;
  UeNetworkCapability capability;
  bool operator==(const AttachRequest&) const = default;
};

struct AuthenticationRequest {
  std::array<std::uint8_t, 16> rand{};
  std::array<std::uint8_t, 16> autn{};  // SQN^AK(6) || AMF(2) || MAC-A(8)
  bool operator==(const AuthenticationRequest&) const = default;
};

struct AuthenticationResponse {
  std::array<std::uint8_t, 8> res{};
  bool operator==(const AuthenticationResponse&) const = default;
};

struct AuthenticationFailure {
  EmmCause cause = EmmCause::kSynchFailure;
  std::array<std::uint8_t, 14> auts{};  // resync token (SQNms^AK* || MAC-S)
  bool operator==(const AuthenticationFailure&) const = default;
};

struct SecurityModeCommand {
  std::uint8_t ciphering_alg = 2;  // EEA2
  std::uint8_t integrity_alg = 2;  // EIA2
  std::uint32_t mac = 0;           // integrity-protected by K_NASint
  bool operator==(const SecurityModeCommand&) const = default;
};

struct SecurityModeComplete {
  std::uint32_t mac = 0;
  bool operator==(const SecurityModeComplete&) const = default;
};

// ESM payload carried inside AttachAccept: default EPS bearer activation.
struct DefaultBearer {
  std::uint8_t ebi = 5;  // EPS bearer id
  std::string apn = "internet";
  common::Ipv4 pdn_address;
  std::uint8_t qci = 9;
  std::uint64_t ambr_dl_bps = 0;  // 0 = unlimited
  std::uint64_t ambr_ul_bps = 0;
  bool operator==(const DefaultBearer&) const = default;
};

struct AttachAccept {
  std::uint32_t m_tmsi = 0;  // GUTI short form
  DefaultBearer bearer;
  std::uint32_t mac = 0;
  bool operator==(const AttachAccept&) const = default;
};

struct AttachComplete {
  std::uint32_t mac = 0;
  bool operator==(const AttachComplete&) const = default;
};

struct AttachReject {
  EmmCause cause = EmmCause::kNetworkFailure;
  bool operator==(const AttachReject&) const = default;
};

struct DetachRequest {
  bool switch_off = false;  // no DetachAccept expected when true
  bool operator==(const DetachRequest&) const = default;
};

struct DetachAccept {
  bool operator==(const DetachAccept&) const = default;
};

// Idle→active transition for a UE with an existing context.
struct ServiceRequest {
  std::uint32_t m_tmsi = 0;
  std::uint32_t mac = 0;
  bool operator==(const ServiceRequest&) const = default;
};

struct ServiceReject {
  EmmCause cause = EmmCause::kNetworkFailure;
  bool operator==(const ServiceReject&) const = default;
};

// Confirms the idle→active transition (bearers re-established).
struct ServiceAccept {
  std::uint32_t mac = 0;
  bool operator==(const ServiceAccept&) const = default;
};

using NasMessage =
    std::variant<AttachRequest, AuthenticationRequest, AuthenticationResponse,
                 AuthenticationFailure, SecurityModeCommand,
                 SecurityModeComplete, AttachAccept, AttachComplete,
                 AttachReject, DetachRequest, DetachAccept, ServiceRequest,
                 ServiceReject, ServiceAccept>;

common::Bytes encode_nas(const NasMessage& msg);
common::Result<NasMessage> decode_nas(common::BytesView data);

// Integrity MAC of `msg` under K_NASint at NAS COUNT `count`: computed over
// its encoding with its `mac` field (if it has one) zeroed. The UE and the
// AGW both call this, so the two ends agree by construction.
std::uint32_t nas_mac(const crypto::Key256& k_nas_int, std::uint32_t count,
                      NasMessage msg);

}  // namespace magma::proto::lte
