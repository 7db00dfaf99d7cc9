// HMAC-SHA256 (RFC 2104) — the MAC underlying the 3GPP LTE/5G key
// derivation function (TS 33.401 / TS 33.220 Annex B).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace magma::crypto {

Digest256 hmac_sha256(common::BytesView key, common::BytesView message);

// 3GPP generic KDF (TS 33.220 B.2): output = HMAC-SHA256(key, S) where
// S = FC || P0 || L0 || P1 || L1 || ... Each Pi is a parameter, Li its
// two-byte big-endian length. S is built in place, without the heap: the
// buffer fits the largest S the key hierarchy derives, KASME's 16 bytes
// (FC, the 5-byte PLMN and the 6-byte SQN xor AK, each with its length).
// param() throws std::length_error rather than write past it.
class KdfInput {
 public:
  static constexpr std::size_t kCapacity = 16;

  explicit KdfInput(std::uint8_t fc) : s_{fc} {}
  KdfInput& param(common::BytesView p);
  common::BytesView view() const { return {s_.data(), size_}; }

 private:
  std::array<std::uint8_t, kCapacity> s_;
  std::size_t size_ = 1;
};

Digest256 kdf(common::BytesView key, const KdfInput& input);

}  // namespace magma::crypto
