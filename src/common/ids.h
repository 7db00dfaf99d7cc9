// Identifier types used across the system.
//
// 3GPP identifiers (IMSI, TEID, eNB IDs, ...) plus Magma-internal handles.
// These are thin value types; the point is to avoid mixing them up.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

namespace magma::common {

// The simulated network's PLMN identity (MCC 001, MNC 01: the test
// network). EPS-AKA binds KASME to it, so the USIMs and the AGW's
// subscriber cache must derive with the same value; the eNodeB and gNB
// announce it in S1/NG setup.
inline constexpr char kPlmn[] = "00101";

// International Mobile Subscriber Identity. Stored as the canonical
// "IMSI001010000000001"-style string Magma uses as subscriber key.
struct Imsi {
  std::string value;

  bool operator==(const Imsi&) const = default;
  auto operator<=>(const Imsi&) const = default;
  bool valid() const {
    if (value.rfind("IMSI", 0) != 0) return false;
    if (value.size() < 4 + 5 || value.size() > 4 + 15) return false;
    for (std::size_t i = 4; i < value.size(); ++i) {
      if (value[i] < '0' || value[i] > '9') return false;
    }
    return true;
  }
  static Imsi from_digits(std::uint64_t digits) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "IMSI%015llu",
                  static_cast<unsigned long long>(digits));
    return Imsi{buf};
  }
};

// GTP Tunnel Endpoint Identifier.
struct Teid {
  std::uint32_t value = 0;
  bool operator==(const Teid&) const = default;
  auto operator<=>(const Teid&) const = default;
};

// IPv4 address in host byte order.
struct Ipv4 {
  std::uint32_t addr = 0;
  bool operator==(const Ipv4&) const = default;
  auto operator<=>(const Ipv4&) const = default;

  static Ipv4 from_octets(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                          std::uint8_t d) {
    return Ipv4{(std::uint32_t(a) << 24) | (std::uint32_t(b) << 16) |
                (std::uint32_t(c) << 8) | std::uint32_t(d)};
  }
  std::string to_string() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (addr >> 24) & 0xFF,
                  (addr >> 16) & 0xFF, (addr >> 8) & 0xFF, addr & 0xFF);
    return buf;
  }
};

// Identifies a gateway (AGW) within a Magma network.
struct GatewayId {
  std::string value;
  bool operator==(const GatewayId&) const = default;
  auto operator<=>(const GatewayId&) const = default;
};

// Identifies an eNodeB / gNB / AP.
struct RanNodeId {
  std::uint32_t value = 0;
  bool operator==(const RanNodeId&) const = default;
  auto operator<=>(const RanNodeId&) const = default;
};

// Per-UE, per-AGW session handle.
struct SessionId {
  std::uint64_t value = 0;
  bool operator==(const SessionId&) const = default;
  auto operator<=>(const SessionId&) const = default;
};

}  // namespace magma::common

namespace std {
template <>
struct hash<magma::common::Imsi> {
  size_t operator()(const magma::common::Imsi& id) const {
    return hash<string>()(id.value);
  }
};
template <>
struct hash<magma::common::Teid> {
  size_t operator()(const magma::common::Teid& id) const {
    return hash<uint32_t>()(id.value);
  }
};
template <>
struct hash<magma::common::Ipv4> {
  size_t operator()(const magma::common::Ipv4& ip) const {
    return hash<uint32_t>()(ip.addr);
  }
};
template <>
struct hash<magma::common::GatewayId> {
  size_t operator()(const magma::common::GatewayId& id) const {
    return hash<string>()(id.value);
  }
};
template <>
struct hash<magma::common::SessionId> {
  size_t operator()(const magma::common::SessionId& id) const {
    return hash<uint64_t>()(id.value);
  }
};
template <>
struct hash<magma::common::RanNodeId> {
  size_t operator()(const magma::common::RanNodeId& id) const {
    return hash<uint32_t>()(id.value);
  }
};
}  // namespace std
