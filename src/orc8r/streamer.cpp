#include "orc8r/streamer.h"

#include <algorithm>

#include "rpc/wire.h"

namespace magma::orc8r {

common::Bytes GetUpdatesRequest::serialize() const {
  rpc::Writer w;
  w.str(gateway_id);
  w.u64(have_version);
  w.u64(have_epoch);
  return std::move(w).take();
}

common::Result<GetUpdatesRequest> GetUpdatesRequest::deserialize(
    common::BytesView d) {
  rpc::Reader r(d);
  GetUpdatesRequest req;
  req.gateway_id = r.str();
  req.have_version = r.u64();
  req.have_epoch = r.u64();
  if (!r.ok() || !r.at_end()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt GetUpdatesRequest"};
  }
  return req;
}

common::Bytes DesiredState::serialize() const {
  rpc::Writer w;
  w.u64(version);
  w.u64(subscribers.size());
  for (const agw::SubscriberData& s : subscribers) w.bytes(s.serialize());
  w.u64(policies.size());
  for (const core::Policy& p : policies) w.bytes(p.serialize());
  return std::move(w).take();
}

common::Result<DesiredState> DesiredState::deserialize(common::BytesView d) {
  rpc::Reader r(d);
  DesiredState state;
  state.version = r.u64();
  const std::uint64_t sub_count = r.u64();
  for (std::uint64_t i = 0; i < sub_count; ++i) {
    auto sub = agw::SubscriberData::deserialize(r.bytes());
    if (!sub.ok()) return sub.error();
    state.subscribers.push_back(std::move(sub).take());
  }
  const std::uint64_t pol_count = r.u64();
  for (std::uint64_t i = 0; i < pol_count; ++i) {
    auto policy = core::Policy::deserialize(r.bytes());
    if (!policy.ok()) return policy.error();
    state.policies.push_back(std::move(policy).take());
  }
  if (!r.ok() || !r.at_end()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt DesiredState"};
  }
  return state;
}

common::Bytes DesiredUpdate::serialize() const {
  rpc::Writer w;
  w.u64(version);
  w.u64(epoch);
  w.u8(static_cast<std::uint8_t>(mode));
  if (mode == SyncMode::kDelta) {
    w.u64(entries.size());
    for (const DeltaEntry& e : entries) {
      w.u8(static_cast<std::uint8_t>(e.kind));
      w.boolean(e.remove);
      w.str(e.key);
      w.bytes(e.blob);
    }
  } else if (mode == SyncMode::kFull) {
    w.bytes(full);
  }
  return std::move(w).take();
}

common::Result<DesiredUpdate> DesiredUpdate::deserialize(common::BytesView d) {
  rpc::Reader r(d);
  DesiredUpdate u;
  u.version = r.u64();
  u.epoch = r.u64();
  const std::uint8_t mode = r.u8();
  if (!r.ok() || mode > static_cast<std::uint8_t>(SyncMode::kDelta)) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt DesiredUpdate header"};
  }
  u.mode = static_cast<SyncMode>(mode);
  if (u.mode == SyncMode::kDelta) {
    const std::uint64_t count = r.u64();
    // Each entry needs ≥ 10 wire bytes (kind + remove + two length
    // prefixes); the count is wire data — never reserve it blindly.
    u.entries.reserve(std::min<std::uint64_t>(count, r.remaining() / 10 + 1));
    for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
      DeltaEntry e;
      const std::uint8_t kind = r.u8();
      if (kind > static_cast<std::uint8_t>(DeltaEntry::Kind::kPolicy)) {
        return common::Error{common::ErrorCode::kInvalidArgument,
                             "corrupt DeltaEntry kind"};
      }
      e.kind = static_cast<DeltaEntry::Kind>(kind);
      e.remove = r.boolean();
      e.key = r.str();
      e.blob = r.bytes();
      if (e.remove && !e.blob.empty()) {
        return common::Error{common::ErrorCode::kInvalidArgument,
                             "remove entry carries a blob"};
      }
      u.entries.push_back(std::move(e));
    }
  } else if (u.mode == SyncMode::kFull) {
    u.full = r.bytes();
  }
  if (!r.ok() || !r.at_end()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt DesiredUpdate"};
  }
  return u;
}

}  // namespace magma::orc8r
