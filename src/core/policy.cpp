#include "core/policy.h"

#include "rpc/wire.h"

namespace magma::core {

const PolicyTier& Policy::tier_at(std::uint64_t used_bytes) const {
  for (std::size_t i = 0; i + 1 < tiers.size(); ++i) {
    if (used_bytes < tiers[i].until_usage_bytes) return tiers[i];
  }
  return tiers.back();
}

common::Bytes Policy::serialize() const {
  rpc::Writer w;
  w.str(name);
  w.u32(static_cast<std::uint32_t>(tiers.size()));
  for (const PolicyTier& t : tiers) {
    w.u64(t.dl_rate_bps);
    w.u64(t.ul_rate_bps);
    w.u64(t.until_usage_bytes);
  }
  w.u8(static_cast<std::uint8_t>(charging));
  w.u64(quota_bytes);
  w.i64(interval_ns);
  w.u8(qci);
  return std::move(w).take();
}

common::Result<Policy> Policy::deserialize(common::BytesView data) {
  rpc::Reader r(data);
  Policy p;
  p.name = r.str();
  const std::uint32_t tier_count = r.u32();
  if (tier_count == 0 || tier_count > 64) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "bad tier count"};
  }
  p.tiers.clear();
  for (std::uint32_t i = 0; i < tier_count && r.ok(); ++i) {
    PolicyTier t;
    t.dl_rate_bps = r.u64();
    t.ul_rate_bps = r.u64();
    t.until_usage_bytes = r.u64();
    p.tiers.push_back(t);
  }
  p.charging = static_cast<ChargingMode>(r.u8());
  p.quota_bytes = r.u64();
  p.interval_ns = r.i64();
  p.qci = r.u8();
  if (!r.ok() || !r.at_end()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt policy"};
  }
  return p;
}

Policy unlimited_policy() {
  Policy p;
  p.name = "unlimited";
  return p;
}

Policy rate_limited_policy(std::uint64_t dl_bps, std::uint64_t ul_bps) {
  Policy p;
  p.name = "rate_limited";
  p.tiers = {PolicyTier{dl_bps, ul_bps, 0}};
  return p;
}

Policy tiered_policy(std::uint64_t x_bps, std::uint64_t y_bytes,
                     std::uint64_t z_bps) {
  Policy p;
  p.name = "tiered";
  p.tiers = {PolicyTier{x_bps, x_bps, y_bytes}, PolicyTier{z_bps, z_bps, 0}};
  return p;
}

Policy quota_billed_policy(std::uint64_t quota_bytes) {
  Policy p;
  p.name = "quota_billed";
  p.charging = ChargingMode::kOcsQuota;
  p.quota_bytes = quota_bytes;
  return p;
}

}  // namespace magma::core
