// EPS-AKA key hierarchy (TS 33.401 Annex A).
//
// Given the Milenage outputs (CK, IK) plus the serving network identity and
// SQN^AK, derives KASME, and from it the NAS encryption/integrity keys used
// to protect signalling between the UE and the AGW's access management
// service. The 5G path derives KAUSF/KSEAF/KAMF analogously (TS 33.501);
// since the paper's point is that one generic implementation serves both, we
// expose a single hierarchy with generation-tagged entry points.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/ids.h"
#include "crypto/hmac.h"

namespace magma::crypto {

using Key256 = std::array<std::uint8_t, 32>;

// Serving network identity: MCC+MNC packed per TS 24.301 (we use the ASCII
// PLMN string; faithful packing is not load-bearing here).
struct ServingNetwork {
  std::string plmn = common::kPlmn;
};

// KASME = KDF(CK || IK, FC=0x10, P0 = SN id, P1 = SQN xor AK).
Key256 derive_kasme(const std::array<std::uint8_t, 16>& ck,
                    const std::array<std::uint8_t, 16>& ik,
                    const ServingNetwork& sn,
                    const std::array<std::uint8_t, 6>& sqn_xor_ak);

enum class NasAlgorithm : std::uint8_t {
  kEea0 = 0,  // null ciphering
  kEea2 = 2,  // AES-based ciphering
  kEia2 = 2,  // AES-based integrity (same id, different distinguisher)
};

// K_NASenc = KDF(KASME, FC=0x15, P0=0x01 (NAS-enc-alg), P1=alg id).
Key256 derive_k_nas_enc(const Key256& kasme, NasAlgorithm alg);
// K_NASint = KDF(KASME, FC=0x15, P0=0x02 (NAS-int-alg), P1=alg id).
Key256 derive_k_nas_int(const Key256& kasme, NasAlgorithm alg);
// K_eNB = KDF(KASME, FC=0x11, P0 = uplink NAS count).
Key256 derive_k_enb(const Key256& kasme, std::uint32_t nas_count);

// NAS message MAC: 4-byte truncation of HMAC-SHA256(K_NASint, count||msg),
// standing in for 128-EIA2's CMAC (same shape: keyed 32-bit MAC).
std::uint32_t nas_mac(const Key256& k_nas_int, std::uint32_t count,
                      common::BytesView message);

// NAS ciphering, 128-EEA2 shape: AES-128 in counter mode keyed by the first
// half of K_NASenc, with the keystream IV built from the NAS COUNT and the
// direction bit (TS 33.401 B.1.2). XOR-symmetric: the same call encrypts
// and decrypts.
common::Bytes nas_cipher(const Key256& k_nas_enc, std::uint32_t count,
                         bool downlink, common::BytesView data);

}  // namespace magma::crypto
