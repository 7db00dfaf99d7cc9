// Durable store semantics: WAL replay, checkpointing, crash recovery,
// serialization, file persistence.
#include <gtest/gtest.h>

#include <cstdio>

#include "store/wal_store.h"

namespace magma::store {
namespace {

using common::to_bytes;

TEST(WalStore, PutGetErase) {
  WalStore store;
  store.put("a", to_bytes("1"));
  store.put("b", to_bytes("2"));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.get("a").value(), to_bytes("1"));
  EXPECT_FALSE(store.get("missing").has_value());
  store.erase("a");
  EXPECT_FALSE(store.contains("a"));
  EXPECT_EQ(store.size(), 1u);
}

TEST(WalStore, OverwriteKeepsLatest) {
  WalStore store;
  store.put("k", to_bytes("v1"));
  store.put("k", to_bytes("v2"));
  EXPECT_EQ(store.get("k").value(), to_bytes("v2"));
  EXPECT_EQ(store.size(), 1u);
}

TEST(WalStore, EraseMissingIsNoop) {
  WalStore store;
  const std::uint64_t v = store.version();
  store.erase("ghost");
  EXPECT_EQ(store.version(), v);
  EXPECT_EQ(store.wal_records(), 0u);
}

TEST(WalStore, ScanPrefixOrdered) {
  WalStore store;
  store.put("sub/003", to_bytes("c"));
  store.put("sub/001", to_bytes("a"));
  store.put("policy/x", to_bytes("p"));
  store.put("sub/002", to_bytes("b"));
  const auto subs = store.scan("sub/");
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs[0].first, "sub/001");
  EXPECT_EQ(subs[1].first, "sub/002");
  EXPECT_EQ(subs[2].first, "sub/003");
  EXPECT_EQ(store.scan("nothing/").size(), 0u);
}

TEST(WalStore, CrashRecoveryPreservesState) {
  WalStore store;
  store.put("a", to_bytes("1"));
  store.checkpoint();
  store.put("b", to_bytes("2"));
  store.erase("a");
  store.put("c", to_bytes("3"));

  store.simulate_crash_and_recover();
  EXPECT_FALSE(store.contains("a"));
  EXPECT_EQ(store.get("b").value(), to_bytes("2"));
  EXPECT_EQ(store.get("c").value(), to_bytes("3"));
}

TEST(WalStore, CheckpointCompactsLog) {
  WalStore store;
  for (int i = 0; i < 100; ++i) {
    store.put("k" + std::to_string(i), to_bytes("v"));
  }
  EXPECT_EQ(store.wal_records(), 100u);
  store.checkpoint();
  EXPECT_EQ(store.wal_records(), 0u);
  store.simulate_crash_and_recover();
  EXPECT_EQ(store.size(), 100u);
}

TEST(WalStore, VersionMonotone) {
  WalStore store;
  const std::uint64_t v0 = store.version();
  store.put("a", to_bytes("1"));
  const std::uint64_t v1 = store.version();
  store.erase("a");
  const std::uint64_t v2 = store.version();
  EXPECT_LT(v0, v1);
  EXPECT_LT(v1, v2);
}

TEST(WalStore, SerializeDeserializeRoundTrip) {
  WalStore store;
  store.put("x", to_bytes("1"));
  store.checkpoint();
  store.put("y", to_bytes("2"));

  auto restored = WalStore::deserialize(store.serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().get("x").value(), to_bytes("1"));
  EXPECT_EQ(restored.value().get("y").value(), to_bytes("2"));
  EXPECT_EQ(restored.value().version(), store.version());
}

TEST(WalStore, DeserializeRejectsGarbage) {
  const auto garbage = to_bytes("not a store image");
  EXPECT_FALSE(WalStore::deserialize(garbage).ok());
}

TEST(WalStore, FileRoundTrip) {
  const std::string path = "/tmp/magma_walstore_test.bin";
  WalStore store;
  store.put("persisted", to_bytes("yes"));
  ASSERT_TRUE(store.save_to_file(path).ok());

  auto loaded = WalStore::load_from_file(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().get("persisted").value(), to_bytes("yes"));
  std::remove(path.c_str());
}

TEST(WalStore, LoadMissingFileFails) {
  EXPECT_EQ(WalStore::load_from_file("/tmp/definitely_missing_49x").code(),
            common::ErrorCode::kNotFound);
}

}  // namespace
}  // namespace magma::store
