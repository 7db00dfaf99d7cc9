#include "agw/subscriberdb.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "rpc/fields.h"

namespace magma::agw {

namespace {

constexpr std::array<std::uint8_t, 2> kAmf = {0x80, 0x00};
constexpr std::size_t kPrefix = 4;  // "IMSI"
constexpr std::size_t kMaxDigits = 15;

// "IMSI" + n digits packs to (the digits right-padded with zeros to 15)
// x 16 + n. The packing is injective, and integer order is the IMSIs'
// string order: a shorter IMSI sorts before a longer one it prefixes. A
// plain numeric value would put "IMSI12345" before "IMSI001010000000001".
std::optional<std::uint64_t> pack(const common::Imsi& imsi) {
  if (!imsi.valid()) return std::nullopt;
  const std::size_t n = imsi.value.size() - kPrefix;
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < kMaxDigits; ++i) {
    key = key * 10 +
          (i < n ? static_cast<std::uint64_t>(imsi.value[kPrefix + i] - '0')
                 : 0);
  }
  return key * 16 + n;
}

// The IMSI a key packs, spelled into a fixed buffer.
struct ImsiText {
  std::array<char, kPrefix + kMaxDigits> chars{'I', 'M', 'S', 'I'};
  std::size_t size = 0;
  std::string_view view() const { return {chars.data(), size}; }
};

ImsiText unpack(std::uint64_t key) {
  ImsiText text;
  text.size = kPrefix + key % 16;
  std::uint64_t digits = key / 16;
  for (std::size_t i = kPrefix + kMaxDigits; i-- > kPrefix;) {
    text.chars[i] = static_cast<char>('0' + digits % 10);
    digits /= 10;
  }
  return text;
}

common::Imsi unpack_imsi(std::uint64_t key) {
  return common::Imsi{std::string(unpack(key).view())};
}

template <typename Map>
std::vector<std::uint64_t> sorted_keys(const Map& rows) {
  std::vector<std::uint64_t> keys;
  keys.reserve(rows.size());
  for (const auto& [key, _] : rows) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

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

SubscriberDb::SubscriberDb(std::function<std::uint64_t()> rand_source)
    : rand_source_(std::move(rand_source)) {}

// SQN is runtime state owned by this AGW: a config push, full or delta,
// must not rewind it, or the next vector would be rejected by the USIM.
void SubscriberDb::raise_sqn(std::uint64_t key, std::uint64_t sqn) {
  if (sqn > 0) {
    std::uint64_t& held = sqns_[key];
    held = std::max(held, sqn);
  }
}

SubscriberData SubscriberDb::record(common::Imsi imsi, std::uint64_t key,
                                    const Row& row) const {
  const auto sqn = sqns_.find(key);
  const auto password = wifi_passwords_.find(key);
  return SubscriberData{
      std::move(imsi),
      row.k,
      row.opc,
      sqn == sqns_.end() ? 0 : sqn->second,
      common::symbol_name(row.policy),
      password == wifi_passwords_.end() ? std::string() : password->second,
      row.active};
}

void SubscriberDb::put(std::uint64_t key, const SubscriberData& data) {
  raise_sqn(key, data.sqn);
  rows_.insert_or_assign(
      key, Row{data.k, data.opc, common::intern(data.policy_name),
               data.active});
  if (data.wifi_password.empty()) {
    wifi_passwords_.erase(key);
  } else {
    wifi_passwords_.insert_or_assign(key, data.wifi_password);
  }
}

void SubscriberDb::upsert(SubscriberData data) {
  if (const std::optional<std::uint64_t> key = pack(data.imsi)) {
    put(*key, data);
  }
}

void SubscriberDb::remove(const common::Imsi& imsi) {
  const std::optional<std::uint64_t> key = pack(imsi);
  if (!key) return;
  rows_.erase(*key);
  wifi_passwords_.erase(*key);
  sqns_.erase(*key);
}

std::optional<SubscriberData> SubscriberDb::get(const common::Imsi& imsi) {
  ++stats_.lookups;
  const std::optional<std::uint64_t> key = pack(imsi);
  auto it = key ? rows_.find(*key) : rows_.end();
  if (it == rows_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  return record(imsi, *key, it->second);
}

std::vector<common::Imsi> SubscriberDb::all_imsis() const {
  std::vector<common::Imsi> out;
  out.reserve(rows_.size());
  for (std::uint64_t key : sorted_keys(rows_)) {
    out.push_back(unpack_imsi(key));
  }
  return out;
}

void SubscriberDb::replace_all(const std::vector<SubscriberData>& data) {
  rows_.clear();
  wifi_passwords_.clear();
  rows_.reserve(data.size());
  // Backwards, so that the last row pushed for an IMSI wins.
  for (auto s = data.rbegin(); s != data.rend(); ++s) {
    const std::optional<std::uint64_t> key = pack(s->imsi);
    if (key && !rows_.contains(*key)) put(*key, *s);
  }
  // A subscriber the push drops takes its SQN along.
  std::erase_if(sqns_, [&](const auto& e) { return !rows_.contains(e.first); });
}

void SubscriberDb::write_sqn_table(rpc::Writer& w) const {
  w.u64(sqns_.size());
  for (const auto& [key, sqn] : sqns_) {
    w.str(unpack(key).view());
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
    if (const std::optional<std::uint64_t> key = pack(imsi)) {
      raise_sqn(*key, sqn);
    }
  }
}

common::Result<AuthVector> SubscriberDb::generate_auth_vector(
    const common::Imsi& imsi) {
  obs::svc_request(status_);
  const std::optional<std::uint64_t> key = pack(imsi);
  auto it = key ? rows_.find(*key) : rows_.end();
  if (it == rows_.end()) {
    ++stats_.misses;
    obs::svc_error(status_, "unknown subscriber");
    return common::Error{common::ErrorCode::kNotFound,
                         "unknown subscriber " + imsi.value};
  }
  const Row& sub = it->second;
  if (!sub.active) {
    return common::Error{common::ErrorCode::kPermissionDenied,
                         "subscriber deactivated"};
  }

  AuthVector v;
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t r = rand_source_();
    std::memcpy(v.rand.data() + i * 8, &r, 8);
  }

  // Advance before use; SQN must never repeat.
  const auto sqn = sqn_to_bytes(++sqns_[*key]);

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
  const std::optional<std::uint64_t> key = pack(imsi);
  auto it = key ? rows_.find(*key) : rows_.end();
  if (it == rows_.end()) {
    obs::svc_error(status_, "unknown subscriber");
    return common::Error{common::ErrorCode::kNotFound, "unknown subscriber"};
  }
  const Row& sub = it->second;

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

  std::uint64_t& held = sqns_[*key];
  held = std::max(held, sqn_ms) + 1;
  ++stats_.resyncs;
  return common::Status::Ok();
}

common::Bytes SubscriberDb::snapshot() const {
  rpc::Writer w;
  w.u64(rows_.size());
  // Deterministic order for byte-identical snapshots.
  for (std::uint64_t key : sorted_keys(rows_)) {
    w.bytes(record(unpack_imsi(key), key, rows_.at(key)).serialize());
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
