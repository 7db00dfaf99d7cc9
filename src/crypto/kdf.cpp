#include "crypto/kdf.h"

#include <algorithm>
#include <cstring>

#include "crypto/aes128.h"

namespace magma::crypto {

namespace {
// KASME's S (FC, the PLMN and SQN xor AK with their lengths) is the
// largest S the hierarchy builds.
static_assert(1 + (sizeof(common::kPlmn) - 1) + 2 + 6 + 2 <=
              KdfInput::kCapacity);

Key256 to_key(const Digest256& d) {
  Key256 k;
  std::memcpy(k.data(), d.data(), d.size());
  return k;
}
}  // namespace

Key256 derive_kasme(const std::array<std::uint8_t, 16>& ck,
                    const std::array<std::uint8_t, 16>& ik,
                    const ServingNetwork& sn,
                    const std::array<std::uint8_t, 6>& sqn_xor_ak) {
  std::array<std::uint8_t, 32> key;
  std::memcpy(key.data(), ck.data(), 16);
  std::memcpy(key.data() + 16, ik.data(), 16);

  KdfInput input(0x10);
  input.param(common::BytesView(
      reinterpret_cast<const std::uint8_t*>(sn.plmn.data()), sn.plmn.size()));
  input.param(sqn_xor_ak);
  return to_key(kdf(key, input));
}

namespace {
Key256 derive_alg_key(const Key256& kasme, std::uint8_t distinguisher,
                      NasAlgorithm alg) {
  const std::uint8_t alg_id = static_cast<std::uint8_t>(alg);
  KdfInput input(0x15);
  input.param(common::BytesView(&distinguisher, 1));
  input.param(common::BytesView(&alg_id, 1));
  return to_key(kdf(kasme, input));
}
}  // namespace

Key256 derive_k_nas_enc(const Key256& kasme, NasAlgorithm alg) {
  return derive_alg_key(kasme, 0x01, alg);
}

Key256 derive_k_nas_int(const Key256& kasme, NasAlgorithm alg) {
  return derive_alg_key(kasme, 0x02, alg);
}

Key256 derive_k_enb(const Key256& kasme, std::uint32_t nas_count) {
  std::uint8_t count_be[4] = {
      static_cast<std::uint8_t>(nas_count >> 24),
      static_cast<std::uint8_t>(nas_count >> 16),
      static_cast<std::uint8_t>(nas_count >> 8),
      static_cast<std::uint8_t>(nas_count),
  };
  KdfInput input(0x11);
  input.param(common::BytesView(count_be, 4));
  return to_key(kdf(kasme, input));
}

common::Bytes nas_cipher(const Key256& k_nas_enc, std::uint32_t count,
                         bool downlink, common::BytesView data) {
  Key128 key;
  std::memcpy(key.data(), k_nas_enc.data(), key.size());
  const Aes128 aes(key);

  // IV block: COUNT (4B) || BEARER/DIRECTION byte || zero, per-block
  // counter in the trailing 4 bytes (CTR mode).
  Block iv{};
  iv[0] = static_cast<std::uint8_t>(count >> 24);
  iv[1] = static_cast<std::uint8_t>(count >> 16);
  iv[2] = static_cast<std::uint8_t>(count >> 8);
  iv[3] = static_cast<std::uint8_t>(count);
  iv[4] = downlink ? 0x04 : 0x00;

  common::Bytes out(data.begin(), data.end());
  std::uint32_t block_index = 0;
  for (std::size_t offset = 0; offset < out.size(); offset += 16) {
    Block ctr = iv;
    ctr[12] = static_cast<std::uint8_t>(block_index >> 24);
    ctr[13] = static_cast<std::uint8_t>(block_index >> 16);
    ctr[14] = static_cast<std::uint8_t>(block_index >> 8);
    ctr[15] = static_cast<std::uint8_t>(block_index);
    ++block_index;
    const Block keystream = aes.encrypt(ctr);
    const std::size_t n = std::min<std::size_t>(16, out.size() - offset);
    for (std::size_t i = 0; i < n; ++i) {
      out[offset + i] ^= keystream[i];
    }
  }
  return out;
}

std::uint32_t nas_mac(const Key256& k_nas_int, std::uint32_t count,
                      common::BytesView message) {
  common::Bytes data;
  data.reserve(4 + message.size());
  data.push_back(static_cast<std::uint8_t>(count >> 24));
  data.push_back(static_cast<std::uint8_t>(count >> 16));
  data.push_back(static_cast<std::uint8_t>(count >> 8));
  data.push_back(static_cast<std::uint8_t>(count));
  data.insert(data.end(), message.begin(), message.end());
  const Digest256 d = hmac_sha256(k_nas_int, data);
  return (std::uint32_t(d[0]) << 24) | (std::uint32_t(d[1]) << 16) |
         (std::uint32_t(d[2]) << 8) | std::uint32_t(d[3]);
}

}  // namespace magma::crypto
