#include "orc8r/streamer.h"

#include "rpc/fields.h"

namespace magma::orc8r {

MAGMA_WIRE_FIELDS(GetUpdatesRequest, m.gateway_id, m.have_version,
                  m.have_epoch);
MAGMA_WIRE_FIELDS(DeltaEntry, m.kind, m.remove, m.key, m.blob);

common::Bytes GetUpdatesRequest::serialize() const {
  return rpc::encode_record(*this);
}

common::Result<GetUpdatesRequest> GetUpdatesRequest::deserialize(
    common::BytesView d) {
  return rpc::decode_record<GetUpdatesRequest>(d, "corrupt GetUpdatesRequest");
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
    rpc::put(w, entries);
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
  const bool fields_ok = u.mode != SyncMode::kDelta || rpc::get(r, u.entries);
  if (u.mode == SyncMode::kFull) u.full = r.bytes();
  if (!fields_ok || !r.ok() || !r.at_end()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt DesiredUpdate"};
  }
  for (const DeltaEntry& e : u.entries) {
    if (e.kind > DeltaEntry::Kind::kPolicy) {
      return common::Error{common::ErrorCode::kInvalidArgument,
                           "corrupt DeltaEntry kind"};
    }
    if (e.remove && !e.blob.empty()) {
      return common::Error{common::ErrorCode::kInvalidArgument,
                           "remove entry carries a blob"};
    }
  }
  return u;
}

}  // namespace magma::orc8r
