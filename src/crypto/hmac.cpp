#include "crypto/hmac.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace magma::crypto {

Digest256 hmac_sha256(common::BytesView key, common::BytesView message) {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > 64) {
    const Digest256 kh = sha256(key);
    std::memcpy(k_block.data(), kh.data(), kh.size());
  } else {
    std::memcpy(k_block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> ipad, opad;
  for (int i = 0; i < 64; ++i) {
    ipad[static_cast<std::size_t>(i)] = k_block[static_cast<std::size_t>(i)] ^ 0x36;
    opad[static_cast<std::size_t>(i)] = k_block[static_cast<std::size_t>(i)] ^ 0x5c;
  }

  Sha256 inner;
  inner.update(ipad);
  inner.update(message);
  const Digest256 inner_digest = inner.finish();

  Sha256 outer;
  outer.update(opad);
  outer.update(inner_digest);
  return outer.finish();
}

KdfInput& KdfInput::param(common::BytesView p) {
  if (p.size() + 2 > kCapacity - size_) {
    throw std::length_error("KDF input S exceeds its buffer");
  }
  std::copy(p.begin(), p.end(), s_.begin() + size_);
  size_ += p.size();
  s_[size_++] = static_cast<std::uint8_t>(p.size() >> 8);
  s_[size_++] = static_cast<std::uint8_t>(p.size() & 0xFF);
  return *this;
}

Digest256 kdf(common::BytesView key, const KdfInput& input) {
  return hmac_sha256(key, input.view());
}

}  // namespace magma::crypto
