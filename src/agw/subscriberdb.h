// Subscriber Management — Magma's generic replacement for the LTE HSS, 5G
// UDM/AUSF, and WiFi RADIUS user store (Table 1).
//
// §3.1: "Magma's subscriber database has the union of all capabilities
// across the radio access types, even if some fields in a given database
// row are valid only for some technologies." SubscriberData carries USIM
// credentials (LTE/5G) *and* a WiFi password-equivalent; the policy name is
// technology-independent.
//
// The AGW instance of this service is a *cache*: the authoritative copy
// lives in the orchestrator (configuration state) and is pushed down via
// desired-state sync. The cache is what lets an AGW keep authenticating
// UEs while disconnected from the orchestrator (§3.2 headless operation).
// Its runtime state is each subscriber's SQN, which this AGW advances; only
// that goes into a checkpoint (§3.4). A fleet holds the cache once per
// gateway, so each row is a fixed 40 bytes under its IMSI packed into one
// integer; SQNs and WiFi passwords live beside the rows, under the same key.
//
// Auth vector generation (EPS-AKA via Milenage, including SQN management
// and resynchronisation) happens here, as in Magma's subscriberdb.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/symbol.h"
#include "crypto/kdf.h"
#include "obs/status.h"
#include "crypto/milenage.h"
#include "rpc/wire.h"

namespace magma::agw {

struct SubscriberData {
  common::Imsi imsi;
  crypto::Key128 k{};    // USIM secret key
  crypto::Key128 opc{};  // Milenage OPc
  std::uint64_t sqn = 0; // network-side sequence number (HSS state)
  std::string policy_name = "default";
  std::string wifi_password;  // WiFi-only credential (union-of-fields row)
  bool active = true;         // deactivated subscribers are refused service

  common::Bytes serialize() const;
  static common::Result<SubscriberData> deserialize(common::BytesView data);
  bool operator==(const SubscriberData&) const = default;
};

// One EPS authentication vector (TS 33.401): the challenge handed to the
// access layer plus the expected response and derived keys kept locally.
struct AuthVector {
  std::array<std::uint8_t, 16> rand{};
  std::array<std::uint8_t, 16> autn{};
  std::array<std::uint8_t, 8> xres{};
  crypto::Key256 kasme{};
};

struct SubscriberDbStats {
  std::uint64_t vectors_generated = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t lookups = 0;
  std::uint64_t misses = 0;
};

class SubscriberDb {
 public:
  // `rand_source` supplies the 16 random bytes for each vector (seeded
  // deterministically by the simulation).
  explicit SubscriberDb(std::function<std::uint64_t()> rand_source);

  // Adds or overwrites one row (a delta sync). Like replace_all, it keeps
  // the SQN held here when that is ahead of the pushed one. A row under an
  // invalid IMSI is skipped here and in replace_all; no decoder delivers
  // one, since rpc::get<common::Imsi> refuses it. Every lookup answers an
  // invalid IMSI as an unknown subscriber.
  void upsert(SubscriberData data);
  void remove(const common::Imsi& imsi);
  std::optional<SubscriberData> get(const common::Imsi& imsi);
  std::size_t size() const { return rows_.size(); }
  std::vector<common::Imsi> all_imsis() const;

  // Desired-state replacement: the new subscriber set *is* `data` (§3.4).
  // Local-only runtime state (SQN) for surviving entries is preserved.
  void replace_all(const std::vector<SubscriberData>& data);

  // A checkpoint's SQN table: every SQN above 0, in IMSI order. Merging
  // takes the larger SQN, before or after the first config sync; a
  // subscriber stays unknown until the sync brings its row.
  using SqnTable = std::vector<std::pair<common::Imsi, std::uint64_t>>;
  void write_sqn_table(rpc::Writer& w) const;
  static common::Result<SqnTable> read_sqn_table(rpc::Reader& r);
  void merge_sqn_table(const SqnTable& table);
  std::size_t sqn_count() const { return sqns_.size(); }

  // Generate an EPS-AKA vector and advance the subscriber's SQN.
  common::Result<AuthVector> generate_auth_vector(const common::Imsi& imsi);

  // Handle a UE resynchronisation request (AUTS): recover SQNms and jump
  // the network SQN past it (TS 33.102 §6.3.5, simplified).
  common::Status resync(const common::Imsi& imsi,
                        const std::array<std::uint8_t, 14>& auts,
                        const std::array<std::uint8_t, 16>& rand);

  const SubscriberDbStats& stats() const { return stats_; }

  // Service303 handle (optional): vector generation and resyncs count
  // requests and errors.
  void set_status(obs::Service303* status) { status_ = status; }

  // Serialize the full cache, SQNs included (an HSS image handed to
  // another store, as in the neutral-host example).
  common::Bytes snapshot() const;
  common::Status restore(common::BytesView image);

 private:
  // One cached subscriber, kept under its packed IMSI (subscriberdb.cpp):
  // no string and no SQN, so its map node fits a 64-byte heap chunk.
  struct Row {
    crypto::Key128 k{};
    crypto::Key128 opc{};
    common::Symbol policy = 0;
    bool active = true;
  };
  static_assert(sizeof(Row) == 40);

  // Raises the SQN under `key` to at least `sqn`.
  void raise_sqn(std::uint64_t key, std::uint64_t sqn);
  // Stores `data` under `key`, its SQN raised as by a push.
  void put(std::uint64_t key, const SubscriberData& data);
  // The API record of `row`; `imsi` is the IMSI that `key` packs.
  SubscriberData record(common::Imsi imsi, std::uint64_t key,
                        const Row& row) const;

  std::function<std::uint64_t()> rand_source_;
  crypto::ServingNetwork sn_;
  std::unordered_map<std::uint64_t, Row> rows_;
  // The WiFi password of each row that has one.
  std::unordered_map<std::uint64_t, std::string> wifi_passwords_;
  // Every SQN above 0, in IMSI order (packed keys sort as their IMSIs do),
  // so a checkpoint writes it unsorted. This is the SQN's only copy; a
  // restored entry may have no row yet.
  std::map<std::uint64_t, std::uint64_t> sqns_;
  SubscriberDbStats stats_;
  obs::Service303* status_ = nullptr;
};

// Expected RES for a given vector (what the USIM in the UE computes); used
// by the UE model and by tests.
std::array<std::uint8_t, 6> sqn_to_bytes(std::uint64_t sqn);
std::uint64_t sqn_from_bytes(const std::array<std::uint8_t, 6>& bytes);

}  // namespace magma::agw
