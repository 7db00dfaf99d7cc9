#include "agw/subscriberdb.h"

#include <algorithm>
#include <cstring>

#include "rpc/fields.h"

namespace magma::agw {

namespace {
constexpr std::array<std::uint8_t, 2> kAmf = {0x80, 0x00};
}  // namespace

std::array<std::uint8_t, 6> sqn_to_bytes(std::uint64_t sqn) {
  std::array<std::uint8_t, 6> out;
  for (int i = 0; i < 6; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(sqn >> (40 - 8 * i));
  }
  return out;
}

std::uint64_t sqn_from_bytes(const std::array<std::uint8_t, 6>& bytes) {
  std::uint64_t sqn = 0;
  for (int i = 0; i < 6; ++i) sqn = (sqn << 8) | bytes[static_cast<std::size_t>(i)];
  return sqn;
}

MAGMA_WIRE_FIELDS(SubscriberData, m.imsi, m.k, m.opc, m.sqn, m.policy_name,
                  m.wifi_password, m.active);

common::Bytes SubscriberData::serialize() const {
  return rpc::encode_record(*this);
}

common::Result<SubscriberData> SubscriberData::deserialize(
    common::BytesView data) {
  return rpc::decode_record<SubscriberData>(data,
                                            "corrupt subscriber record");
}

SubscriberDb::SubscriberDb(std::function<std::uint64_t()> rand_source,
                           std::string plmn)
    : rand_source_(std::move(rand_source)) {
  sn_.plmn = std::move(plmn);
}

// SQN is runtime state owned by this AGW: a config push, full or delta,
// must not rewind it, or the next vector would be rejected by the USIM.
std::uint64_t SubscriberDb::raise_sqn(const common::Imsi& imsi,
                                      std::uint64_t sqn) {
  if (sqn == 0 && !sqns_.contains(imsi)) return 0;
  std::uint64_t& held = sqns_[imsi];
  return held = std::max(held, sqn);
}

void SubscriberDb::upsert(SubscriberData data) {
  data.sqn = raise_sqn(data.imsi, data.sqn);
  SubscriberData& cached = subscribers_[data.imsi];
  cached = std::move(data);
}

void SubscriberDb::remove(const common::Imsi& imsi) {
  subscribers_.erase(imsi);
  sqns_.erase(imsi);
}

std::optional<SubscriberData> SubscriberDb::get(const common::Imsi& imsi) {
  ++stats_.lookups;
  auto it = subscribers_.find(imsi);
  if (it == subscribers_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  return it->second;
}

std::vector<common::Imsi> SubscriberDb::all_imsis() const {
  std::vector<common::Imsi> out;
  out.reserve(subscribers_.size());
  for (const auto& [imsi, _] : subscribers_) out.push_back(imsi);
  std::sort(out.begin(), out.end());
  return out;
}

void SubscriberDb::replace_all(const std::vector<SubscriberData>& data) {
  std::unordered_map<common::Imsi, SubscriberData> next;
  next.reserve(data.size());
  // Copy-construct each row: assigning into an empty row would give every
  // IMSI string a doubled buffer (1000 gateways x 1000 rows: +15 MiB).
  for (const SubscriberData& s : data) next.insert_or_assign(s.imsi, s);
  // A subscriber the push drops takes its SQN along.
  std::erase_if(sqns_, [&](const auto& e) { return !next.contains(e.first); });
  for (auto& [imsi, row] : next) row.sqn = raise_sqn(imsi, row.sqn);
  subscribers_ = std::move(next);
}

void SubscriberDb::write_sqn_table(rpc::Writer& w) const {
  w.u64(sqns_.size());
  for (const auto& [imsi, sqn] : sqns_) {
    w.str(imsi.value);
    w.u64(sqn);
  }
}

common::Result<SubscriberDb::SqnTable> SubscriberDb::read_sqn_table(
    rpc::Reader& r) {
  const std::uint64_t count = r.u64();
  SqnTable table;
  bool ok = r.ok();
  for (std::uint64_t i = 0; ok && i < count; ++i) {
    common::Imsi imsi{r.str()};
    const std::uint64_t sqn = r.u64();
    ok = r.ok() && imsi.valid();
    table.emplace_back(std::move(imsi), sqn);
  }
  if (!ok) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt SQN table"};
  }
  return table;
}

void SubscriberDb::merge_sqn_table(const SqnTable& table) {
  for (const auto& [imsi, sqn] : table) {
    const std::uint64_t merged = raise_sqn(imsi, sqn);
    if (auto it = subscribers_.find(imsi); it != subscribers_.end()) {
      it->second.sqn = merged;
    }
  }
}

common::Result<AuthVector> SubscriberDb::generate_auth_vector(
    const common::Imsi& imsi) {
  obs::svc_request(status_);
  auto it = subscribers_.find(imsi);
  if (it == subscribers_.end()) {
    ++stats_.misses;
    obs::svc_error(status_, "unknown subscriber");
    return common::Error{common::ErrorCode::kNotFound,
                         "unknown subscriber " + imsi.value};
  }
  SubscriberData& sub = it->second;
  if (!sub.active) {
    return common::Error{common::ErrorCode::kPermissionDenied,
                         "subscriber deactivated"};
  }

  AuthVector v;
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t r = rand_source_();
    std::memcpy(v.rand.data() + i * 8, &r, 8);
  }

  sub.sqn += 1;  // advance before use; SQN must never repeat
  sqns_[it->first] = sub.sqn;
  const auto sqn = sqn_to_bytes(sub.sqn);

  const crypto::Milenage milenage =
      crypto::Milenage::from_opc(sub.k, sub.opc);
  const crypto::MilenageOutput out = milenage.compute(v.rand, sqn, kAmf);

  // AUTN = (SQN xor AK) || AMF || MAC-A.
  std::array<std::uint8_t, 6> sqn_xor_ak;
  for (int i = 0; i < 6; ++i) {
    sqn_xor_ak[static_cast<std::size_t>(i)] =
        sqn[static_cast<std::size_t>(i)] ^ out.ak[static_cast<std::size_t>(i)];
  }
  std::memcpy(v.autn.data(), sqn_xor_ak.data(), 6);
  std::memcpy(v.autn.data() + 6, kAmf.data(), 2);
  std::memcpy(v.autn.data() + 8, out.mac_a.data(), 8);

  std::memcpy(v.xres.data(), out.res.data(), 8);
  v.kasme = crypto::derive_kasme(out.ck, out.ik, sn_, sqn_xor_ak);

  ++stats_.vectors_generated;
  return v;
}

common::Status SubscriberDb::resync(const common::Imsi& imsi,
                                    const std::array<std::uint8_t, 14>& auts,
                                    const std::array<std::uint8_t, 16>& rand) {
  obs::svc_request(status_);
  auto it = subscribers_.find(imsi);
  if (it == subscribers_.end()) {
    obs::svc_error(status_, "unknown subscriber");
    return common::Error{common::ErrorCode::kNotFound, "unknown subscriber"};
  }
  SubscriberData& sub = it->second;

  // AUTS = (SQNms xor AK*) || MAC-S. Recover SQNms using f5*.
  const crypto::Milenage milenage =
      crypto::Milenage::from_opc(sub.k, sub.opc);
  // MAC-S in AUTS was computed over SQNms with AMF = 0x0000; to recover
  // SQNms we only need AK*, which depends on RAND alone.
  const crypto::MilenageOutput probe =
      milenage.compute(rand, sqn_to_bytes(0), {0x00, 0x00});
  std::array<std::uint8_t, 6> sqn_ms_bytes;
  for (int i = 0; i < 6; ++i) {
    sqn_ms_bytes[static_cast<std::size_t>(i)] =
        auts[static_cast<std::size_t>(i)] ^
        probe.ak_s[static_cast<std::size_t>(i)];
  }
  const std::uint64_t sqn_ms = sqn_from_bytes(sqn_ms_bytes);

  // Verify MAC-S.
  const crypto::MilenageOutput verify =
      milenage.compute(rand, sqn_ms_bytes, {0x00, 0x00});
  if (!common::constant_time_equal(
          common::BytesView(auts.data() + 6, 8),
          common::BytesView(verify.mac_s.data(), 8))) {
    return common::Error{common::ErrorCode::kUnauthenticated, "bad MAC-S"};
  }

  sub.sqn = std::max(sub.sqn, sqn_ms) + 1;
  sqns_[it->first] = sub.sqn;
  ++stats_.resyncs;
  return common::Status::Ok();
}

common::Bytes SubscriberDb::snapshot() const {
  rpc::Writer w;
  w.u64(subscribers_.size());
  // Deterministic order for byte-identical snapshots.
  for (const common::Imsi& imsi : all_imsis()) {
    w.bytes(subscribers_.at(imsi).serialize());
  }
  return std::move(w).take();
}

common::Status SubscriberDb::restore(common::BytesView image) {
  rpc::Reader r(image);
  const std::uint64_t count = r.u64();
  std::vector<SubscriberData> rows;
  for (std::uint64_t i = 0; i < count; ++i) {
    const common::Bytes record = r.bytes();
    if (!r.ok()) break;
    auto parsed = SubscriberData::deserialize(record);
    if (!parsed.ok()) return common::Status(parsed.error());
    rows.push_back(std::move(parsed).take());
  }
  if (!r.ok() || !r.at_end()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt subscriberdb image"};
  }
  // The image's SQNs replace this cache's, as its rows do.
  sqns_.clear();
  replace_all(rows);
  return common::Status::Ok();
}

}  // namespace magma::agw
