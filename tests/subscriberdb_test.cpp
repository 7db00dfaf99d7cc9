// Subscriber management: auth vectors, SQN handling, resync, desired-state
// replacement, snapshots — including the USIM↔network symmetry property —
// and a sweep that holds the cache to a plainly written reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "agw/subscriberdb.h"
#include "ran/ue.h"
#include "sim/random.h"

namespace magma::agw {
namespace {

SubscriberData make_subscriber(std::uint64_t n, sim::Rng& rng) {
  SubscriberData sub;
  sub.imsi = common::Imsi::from_digits(1010000000000ULL + n);
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    std::memcpy(sub.k.data() + i * 8, &a, 8);
    std::memcpy(sub.opc.data() + i * 8, &b, 8);
  }
  return sub;
}

class SubscriberDbTest : public ::testing::Test {
 protected:
  SubscriberDbTest() : rng_(1), db_([this]() { return rng_.next_u64(); }) {}
  sim::Rng rng_;
  SubscriberDb db_;
};

TEST_F(SubscriberDbTest, CrudAndLookupStats) {
  sim::Rng source(2);
  SubscriberData sub = make_subscriber(1, source);
  db_.upsert(sub);
  EXPECT_EQ(db_.size(), 1u);
  EXPECT_TRUE(db_.get(sub.imsi).has_value());
  EXPECT_FALSE(db_.get(common::Imsi::from_digits(999)).has_value());
  EXPECT_EQ(db_.stats().lookups, 2u);
  EXPECT_EQ(db_.stats().misses, 1u);
  db_.remove(sub.imsi);
  EXPECT_EQ(db_.size(), 0u);
}

TEST_F(SubscriberDbTest, VectorGenerationAdvancesSqn) {
  sim::Rng source(2);
  SubscriberData sub = make_subscriber(1, source);
  db_.upsert(sub);
  ASSERT_TRUE(db_.generate_auth_vector(sub.imsi).ok());
  ASSERT_TRUE(db_.generate_auth_vector(sub.imsi).ok());
  EXPECT_EQ(db_.get(sub.imsi)->sqn, 2u);
  EXPECT_EQ(db_.stats().vectors_generated, 2u);
}

TEST_F(SubscriberDbTest, VectorsDifferEachTime) {
  sim::Rng source(2);
  SubscriberData sub = make_subscriber(1, source);
  db_.upsert(sub);
  const AuthVector v1 = db_.generate_auth_vector(sub.imsi).value();
  const AuthVector v2 = db_.generate_auth_vector(sub.imsi).value();
  EXPECT_NE(v1.rand, v2.rand);
  EXPECT_NE(v1.xres, v2.xres);
  EXPECT_NE(v1.kasme, v2.kasme);
}

TEST_F(SubscriberDbTest, DeactivatedSubscriberRefused) {
  sim::Rng source(2);
  SubscriberData sub = make_subscriber(1, source);
  sub.active = false;
  db_.upsert(sub);
  EXPECT_EQ(db_.generate_auth_vector(sub.imsi).code(),
            common::ErrorCode::kPermissionDenied);
}

TEST_F(SubscriberDbTest, UnknownSubscriberNotFound) {
  EXPECT_EQ(db_.generate_auth_vector(common::Imsi::from_digits(7)).code(),
            common::ErrorCode::kNotFound);
}

// The central property: a USIM with the same credentials accepts the
// network's vector and computes the same RES and KASME.
TEST_F(SubscriberDbTest, UsimNetworkSymmetry) {
  sim::Rng source(3);
  SubscriberData sub = make_subscriber(1, source);
  db_.upsert(sub);
  ran::Usim usim(sub.imsi, sub.k, sub.opc);

  for (int round = 0; round < 5; ++round) {
    const AuthVector vector = db_.generate_auth_vector(sub.imsi).value();
    const ran::UsimOutcome outcome = usim.authenticate(vector.rand, vector.autn);
    const auto* success = std::get_if<ran::UsimAuthSuccess>(&outcome);
    ASSERT_NE(success, nullptr) << "round " << round;
    EXPECT_TRUE(common::constant_time_equal(
        common::BytesView(success->res.data(), 8),
        common::BytesView(vector.xres.data(), 8)));
    EXPECT_EQ(success->kasme, vector.kasme);
  }
}

TEST_F(SubscriberDbTest, UsimRejectsWrongKeyVector) {
  sim::Rng source(3);
  SubscriberData sub = make_subscriber(1, source);
  db_.upsert(sub);
  crypto::Key128 wrong_k = sub.k;
  wrong_k[0] ^= 1;
  ran::Usim usim(sub.imsi, wrong_k, sub.opc);
  const AuthVector vector = db_.generate_auth_vector(sub.imsi).value();
  const ran::UsimOutcome outcome = usim.authenticate(vector.rand, vector.autn);
  EXPECT_NE(std::get_if<ran::UsimMacFailure>(&outcome), nullptr);
}

TEST_F(SubscriberDbTest, UsimDetectsStaleSqnAndResyncRecovers) {
  sim::Rng source(3);
  SubscriberData sub = make_subscriber(1, source);
  db_.upsert(sub);
  ran::Usim usim(sub.imsi, sub.k, sub.opc);
  usim.force_sqn(100);  // UE is far ahead of the network

  const AuthVector stale = db_.generate_auth_vector(sub.imsi).value();
  const ran::UsimOutcome outcome = usim.authenticate(stale.rand, stale.autn);
  const auto* resync = std::get_if<ran::UsimSyncFailure>(&outcome);
  ASSERT_NE(resync, nullptr);

  ASSERT_TRUE(db_.resync(sub.imsi, resync->auts, stale.rand).ok());
  EXPECT_GT(db_.get(sub.imsi)->sqn, 100u);
  EXPECT_EQ(db_.stats().resyncs, 1u);

  // The next vector is fresh and accepted.
  const AuthVector fresh = db_.generate_auth_vector(sub.imsi).value();
  const ran::UsimOutcome second = usim.authenticate(fresh.rand, fresh.autn);
  EXPECT_NE(std::get_if<ran::UsimAuthSuccess>(&second), nullptr);
}

TEST_F(SubscriberDbTest, ResyncRejectsForgedAuts) {
  sim::Rng source(3);
  SubscriberData sub = make_subscriber(1, source);
  db_.upsert(sub);
  const AuthVector vector = db_.generate_auth_vector(sub.imsi).value();
  std::array<std::uint8_t, 14> forged{};
  forged.fill(0x42);
  EXPECT_EQ(db_.resync(sub.imsi, forged, vector.rand).code(),
            common::ErrorCode::kUnauthenticated);
}

TEST_F(SubscriberDbTest, ReplaceAllPreservesSqn) {
  sim::Rng source(4);
  SubscriberData a = make_subscriber(1, source);
  SubscriberData b = make_subscriber(2, source);
  db_.upsert(a);
  db_.upsert(b);
  db_.generate_auth_vector(a.imsi).value();
  db_.generate_auth_vector(a.imsi).value();

  // Config push: a (still present, SQN must survive), c (new); b removed.
  SubscriberData c = make_subscriber(3, source);
  db_.replace_all({a, c});
  EXPECT_EQ(db_.size(), 2u);
  EXPECT_FALSE(db_.get(b.imsi).has_value());
  EXPECT_EQ(db_.get(a.imsi)->sqn, 2u);  // not rewound by the push
  EXPECT_TRUE(db_.get(c.imsi).has_value());
}

TEST_F(SubscriberDbTest, UpsertPreservesSqn) {
  sim::Rng source(4);
  SubscriberData a = make_subscriber(1, source);
  db_.upsert(a);
  db_.generate_auth_vector(a.imsi).value();
  db_.generate_auth_vector(a.imsi).value();

  // Delta push of an operator edit: orc8r's copy still carries SQN 0.
  a.policy_name = "gold";
  db_.upsert(a);
  EXPECT_EQ(db_.get(a.imsi)->policy_name, "gold");
  EXPECT_EQ(db_.get(a.imsi)->sqn, 2u);  // not rewound by the push

  // A pushed SQN ahead of the cache wins, as it does in replace_all.
  a.sqn = 9;
  db_.upsert(a);
  EXPECT_EQ(db_.get(a.imsi)->sqn, 9u);
}

TEST_F(SubscriberDbTest, SnapshotRestoreRoundTrip) {
  sim::Rng source(5);
  for (std::uint64_t i = 0; i < 10; ++i) db_.upsert(make_subscriber(i, source));
  const common::Bytes image = db_.snapshot();

  sim::Rng rng2(9);
  SubscriberDb other([&rng2]() { return rng2.next_u64(); });
  ASSERT_TRUE(other.restore(image).ok());
  EXPECT_EQ(other.size(), 10u);
  EXPECT_EQ(other.snapshot(), image);  // canonical ordering => identical
}

TEST_F(SubscriberDbTest, RestoreRejectsTrailingByte) {
  sim::Rng source(5);
  for (std::uint64_t i = 0; i < 3; ++i) db_.upsert(make_subscriber(i, source));
  common::Bytes image = db_.snapshot();
  image.push_back(0x00);

  sim::Rng rng2(9);
  SubscriberDb other([&rng2]() { return rng2.next_u64(); });
  other.upsert(make_subscriber(7, source));
  const common::Bytes before = other.snapshot();
  EXPECT_FALSE(other.restore(image).ok());
  EXPECT_EQ(other.snapshot(), before);  // the cache is untouched
}

TEST_F(SubscriberDbTest, SqnTableMergesByMaxBeforeOrAfterSync) {
  sim::Rng source(6);
  const SubscriberData a = make_subscriber(1, source);
  const SubscriberData b = make_subscriber(2, source);
  const SubscriberData c = make_subscriber(3, source);
  // The failed instance: b at SQN 5, a at 3, c never challenged.
  db_.replace_all({b, a, c});
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(db_.generate_auth_vector(b.imsi).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(db_.generate_auth_vector(a.imsi).ok());
  rpc::Writer w;
  db_.write_sqn_table(w);
  const common::Bytes image = std::move(w).take();
  rpc::Reader r(image);
  const auto table = SubscriberDb::read_sqn_table(r);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(r.at_end());
  // IMSI order, SQN above 0 only, and no key material.
  EXPECT_EQ(table.value(), (SubscriberDb::SqnTable{{a.imsi, 3}, {b.imsi, 5}}));

  // Restored before the first sync: unknown until the sync brings the rows,
  // and the sync's SQN 0 does not lower the restored SQNs.
  SubscriberDb early([] { return 0ULL; });
  early.merge_sqn_table(table.value());
  EXPECT_FALSE(early.get(a.imsi).has_value());
  EXPECT_FALSE(early.generate_auth_vector(a.imsi).ok());
  early.replace_all({a, b, c});
  EXPECT_EQ(early.get(a.imsi)->sqn, 3u);
  EXPECT_EQ(early.get(b.imsi)->sqn, 5u);
  EXPECT_EQ(early.get(c.imsi)->sqn, 0u);

  // Restored after the first sync, onto a row already past the table: the
  // larger SQN wins either way.
  SubscriberDb late([] { return 0ULL; });
  late.replace_all({a, b, c});
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(late.generate_auth_vector(b.imsi).ok());
  late.merge_sqn_table(table.value());
  EXPECT_EQ(late.get(a.imsi)->sqn, 3u);
  EXPECT_EQ(late.get(b.imsi)->sqn, 7u);
}

TEST(SubscriberDb, SqnTableRejectsCorruptImages) {
  for (const char* hex :
       {"", "01000000000000", "0100000000000000",
        // one entry whose IMSI is not an IMSI
        "0100000000000000030000006162630100000000000000"}) {
    const common::Bytes image = common::from_hex(hex);
    rpc::Reader r(image);
    EXPECT_FALSE(SubscriberDb::read_sqn_table(r).ok()) << hex;
  }
}

// The cache written plainly: each row under its IMSI string carries its own
// SQN, mirrored in an ordered table of every SQN above 0.
class StringKeyedReference {
 public:
  void upsert(SubscriberData data) {
    data.sqn = raise_sqn(data.imsi, data.sqn);
    rows_[data.imsi] = std::move(data);
  }

  void remove(const common::Imsi& imsi) {
    rows_.erase(imsi);
    sqns_.erase(imsi);
  }

  std::optional<SubscriberData> get(const common::Imsi& imsi) {
    ++stats_.lookups;
    const SubscriberData* row = find(imsi);
    if (row == nullptr) ++stats_.misses;
    return row ? std::optional<SubscriberData>(*row) : std::nullopt;
  }

  const SubscriberData* find(const common::Imsi& imsi) const {
    auto it = rows_.find(imsi);
    return it == rows_.end() ? nullptr : &it->second;
  }

  std::vector<common::Imsi> all_imsis() const {
    std::vector<common::Imsi> out;
    for (const auto& [imsi, _] : rows_) out.push_back(imsi);
    std::sort(out.begin(), out.end());
    return out;
  }

  void replace_all(const std::vector<SubscriberData>& data) {
    std::unordered_map<common::Imsi, SubscriberData> next;
    for (const SubscriberData& s : data) next.insert_or_assign(s.imsi, s);
    std::erase_if(sqns_,
                  [&](const auto& e) { return !next.contains(e.first); });
    for (auto& [imsi, row] : next) row.sqn = raise_sqn(imsi, row.sqn);
    rows_ = std::move(next);
  }

  void merge_sqn_table(const SubscriberDb::SqnTable& table) {
    for (const auto& [imsi, sqn] : table) {
      const std::uint64_t merged = raise_sqn(imsi, sqn);
      if (auto it = rows_.find(imsi); it != rows_.end()) it->second.sqn = merged;
    }
  }

  common::ErrorCode generate_auth_vector(const common::Imsi& imsi) {
    auto it = rows_.find(imsi);
    if (it == rows_.end()) {
      ++stats_.misses;
      return common::ErrorCode::kNotFound;
    }
    if (!it->second.active) return common::ErrorCode::kPermissionDenied;
    sqns_[imsi] = ++it->second.sqn;
    ++stats_.vectors_generated;
    return common::ErrorCode::kOk;
  }

  void resync(const common::Imsi& imsi, std::uint64_t sqn_ms) {
    SubscriberData& row = rows_.at(imsi);
    sqns_[imsi] = row.sqn = std::max(row.sqn, sqn_ms) + 1;
    ++stats_.resyncs;
  }

  // What restoring this reference's own snapshot does.
  void restore_snapshot() {
    std::vector<SubscriberData> rows;
    for (const auto& [_, row] : rows_) rows.push_back(row);
    sqns_.clear();
    replace_all(rows);
  }

  common::Bytes snapshot() const {
    rpc::Writer w;
    w.u64(rows_.size());
    for (const common::Imsi& imsi : all_imsis()) {
      w.bytes(rows_.at(imsi).serialize());
    }
    return std::move(w).take();
  }

  common::Bytes sqn_table() const {
    rpc::Writer w;
    w.u64(sqns_.size());
    for (const auto& [imsi, sqn] : sqns_) {
      w.str(imsi.value);
      w.u64(sqn);
    }
    return std::move(w).take();
  }

  std::size_t size() const { return rows_.size(); }
  std::size_t sqn_count() const { return sqns_.size(); }
  const SubscriberDbStats& stats() const { return stats_; }

 private:
  std::uint64_t raise_sqn(const common::Imsi& imsi, std::uint64_t sqn) {
    if (sqn == 0 && !sqns_.contains(imsi)) return 0;
    std::uint64_t& held = sqns_[imsi];
    return held = std::max(held, sqn);
  }

  std::unordered_map<common::Imsi, SubscriberData> rows_;
  std::map<common::Imsi, std::uint64_t> sqns_;
  SubscriberDbStats stats_;
};

class SubscriberDbSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SubscriberDbSweep, MatchesStringKeyedReference) {
  sim::Rng rng(GetParam());
  sim::Rng rand_bytes(GetParam() + 100);
  SubscriberDb db([&rand_bytes] { return rand_bytes.next_u64(); });
  StringKeyedReference ref;
  // 5 to 15 digits: prefixes of one another, trailing zeros, and IMSIs
  // whose string order is not the order of their numeric values.
  const std::vector<common::Imsi> pool = {
      {"IMSI00101"},           {"IMSI001010"},
      {"IMSI0010100"},         {"IMSI00101000000001"},
      {"IMSI001010000000001"}, {"IMSI001010000000010"},
      {"IMSI00000"},           {"IMSI000000000000000"},
      {"IMSI12345"},           {"IMSI123450"},
      {"IMSI99999"},           {"IMSI999999999999999"},
      {"IMSI3100150123456"}};
  // Looked up, removed and challenged, never stored: no decoder delivers
  // a row under one of these.
  const std::vector<common::Imsi> invalid = {
      {"IMSI0010"}, {"IMSI0010100000000001"}, {"imsi00101"},
      {"IMSI0010a"}, {""}};
  const std::vector<std::string> policies = {
      "default", "gold", "", "enterprise-unlimited-roaming"};
  const std::vector<std::string> passwords = {
      "", "", "hunter2", "a-wifi-passphrase-longer-than-sso"};
  auto pick = [&](const auto& v) { return v[rng.uniform_int(v.size())]; };
  auto any_imsi = [&] {
    return rng.bernoulli(0.15) ? pick(invalid) : pick(pool);
  };
  auto make_row = [&](const common::Imsi& imsi) {
    SubscriberData s;
    s.imsi = imsi;
    for (int i = 0; i < 2; ++i) {
      const std::uint64_t a = rng.next_u64();
      const std::uint64_t b = rng.next_u64();
      std::memcpy(s.k.data() + i * 8, &a, 8);
      std::memcpy(s.opc.data() + i * 8, &b, 8);
    }
    s.policy_name = pick(policies);
    s.wifi_password = pick(passwords);
    s.active = rng.bernoulli(0.85);
    // Orc8r's copy carries SQN 0; one at or ahead of the cache stands for
    // a store restored from elsewhere.
    if (rng.bernoulli(0.3)) {
      const SubscriberData* held = ref.find(imsi);
      s.sqn = (held ? held->sqn : 0) + rng.uniform_int(4);
    }
    return s;
  };

  constexpr int kSteps = 300;
  for (int step = 0; step < kSteps && !HasFailure(); ++step) {
    const std::uint64_t op = rng.uniform_int(100);
    if (op < 30) {
      const SubscriberData row = make_row(pick(pool));
      db.upsert(row);
      ref.upsert(row);
    } else if (op < 40) {
      const common::Imsi imsi = any_imsi();
      db.remove(imsi);
      ref.remove(imsi);
    } else if (op < 47) {
      // Duplicates in one push: the last row wins.
      std::vector<SubscriberData> rows;
      const std::uint64_t n = rng.uniform_int(pool.size() + 3);
      for (std::uint64_t i = 0; i < n; ++i) rows.push_back(make_row(pick(pool)));
      db.replace_all(rows);
      ref.replace_all(rows);
    } else if (op < 78) {
      const common::Imsi imsi = any_imsi();
      const auto vector = db.generate_auth_vector(imsi);
      ASSERT_EQ(vector.code(), ref.generate_auth_vector(imsi))
          << "step " << step << " " << imsi.value;
      if (vector.ok()) {
        // The vector carries the reference's credentials and SQN: a USIM
        // one SQN behind accepts it, one at or ahead asks to resync.
        const AuthVector& v = vector.value();
        const SubscriberData& row = *ref.find(imsi);
        ran::Usim usim(imsi, row.k, row.opc);
        if (rng.bernoulli(0.7)) {
          usim.force_sqn(row.sqn - 1);
          const ran::UsimOutcome outcome = usim.authenticate(v.rand, v.autn);
          const auto* success = std::get_if<ran::UsimAuthSuccess>(&outcome);
          ASSERT_NE(success, nullptr) << "step " << step;
          EXPECT_EQ(std::memcmp(success->res.data(), v.xres.data(), 8), 0);
          EXPECT_EQ(success->kasme, v.kasme);
        } else {
          const std::uint64_t sqn_ms = row.sqn + rng.uniform_int(5);
          usim.force_sqn(sqn_ms);
          const ran::UsimOutcome outcome = usim.authenticate(v.rand, v.autn);
          const auto* sync = std::get_if<ran::UsimSyncFailure>(&outcome);
          ASSERT_NE(sync, nullptr) << "step " << step;
          ASSERT_TRUE(db.resync(imsi, sync->auts, v.rand).ok());
          ref.resync(imsi, sqn_ms);
        }
      }
    } else if (op < 88) {
      // Before and after the rows exist, SQN 0 included.
      SubscriberDb::SqnTable table;
      const std::uint64_t n = 1 + rng.uniform_int(3);
      for (std::uint64_t i = 0; i < n; ++i) {
        table.emplace_back(pick(pool), rng.uniform_int(12));
      }
      db.merge_sqn_table(table);
      ref.merge_sqn_table(table);
    } else if (op < 94) {
      const common::Imsi imsi = any_imsi();
      std::array<std::uint8_t, 14> forged{};
      forged.fill(static_cast<std::uint8_t>(rng.uniform_int(256)));
      const std::array<std::uint8_t, 16> rand{};
      EXPECT_EQ(db.resync(imsi, forged, rand).code(),
                ref.find(imsi) ? common::ErrorCode::kUnauthenticated
                               : common::ErrorCode::kNotFound)
          << "step " << step << " " << imsi.value;
    } else {
      ASSERT_TRUE(db.restore(ref.snapshot()).ok()) << "step " << step;
      ref.restore_snapshot();
    }

    ASSERT_EQ(db.size(), ref.size()) << "step " << step;
    ASSERT_EQ(db.all_imsis(), ref.all_imsis()) << "step " << step;
    for (const common::Imsi& imsi : pool) {
      ASSERT_EQ(db.get(imsi), ref.get(imsi))
          << "step " << step << " " << imsi.value;
    }
    const common::Imsi& bad = invalid[static_cast<std::size_t>(step) %
                                      invalid.size()];
    ASSERT_EQ(db.get(bad), ref.get(bad)) << "step " << step;
    ASSERT_EQ(db.snapshot(), ref.snapshot()) << "step " << step;
    rpc::Writer w;
    db.write_sqn_table(w);
    ASSERT_EQ(std::move(w).take(), ref.sqn_table()) << "step " << step;
    ASSERT_EQ(db.sqn_count(), ref.sqn_count()) << "step " << step;
    EXPECT_EQ(db.stats().lookups, ref.stats().lookups) << "step " << step;
    EXPECT_EQ(db.stats().misses, ref.stats().misses) << "step " << step;
    EXPECT_EQ(db.stats().vectors_generated, ref.stats().vectors_generated)
        << "step " << step;
    EXPECT_EQ(db.stats().resyncs, ref.stats().resyncs) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubscriberDbSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(SubscriberData, SerializeDeserializeRoundTrip) {
  SubscriberData sub;
  sub.imsi = common::Imsi::from_digits(1010000000042ULL);
  sub.k.fill(0x11);
  sub.opc.fill(0x22);
  sub.policy_name = "gold";
  sub.wifi_password = "hunter2";
  sub.sqn = 77;
  sub.active = false;
  // The wire layout is pinned: records in orc8r's store and in config
  // sync payloads must keep decoding.
  EXPECT_EQ(common::to_hex(sub.serialize()),
            "13000000494d5349303031303130303030303030303432100000001111111111"
            "111111111111111111111110000000222222222222222222222222222222224d"
            "0000000000000004000000676f6c640700000068756e7465723200");
  auto round = SubscriberData::deserialize(sub.serialize());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value(), sub);
}

TEST(SubscriberData, DeserializeRejectsCorrupt) {
  EXPECT_FALSE(SubscriberData::deserialize(common::to_bytes("junk")).ok());
}

TEST(Imsi, Validation) {
  EXPECT_TRUE(common::Imsi::from_digits(1010000000001ULL).valid());
  EXPECT_FALSE(common::Imsi{"123456"}.valid());
  EXPECT_FALSE(common::Imsi{"IMSIabc"}.valid());
  EXPECT_FALSE(common::Imsi{""}.valid());
}

TEST(SqnBytes, RoundTrip) {
  for (std::uint64_t sqn : {0ULL, 1ULL, 255ULL, 0xFFFFFFFFFFFFULL}) {
    EXPECT_EQ(sqn_from_bytes(sqn_to_bytes(sqn)), sqn);
  }
}

}  // namespace
}  // namespace magma::agw
