// Fleet-scale control plane: the delta-capable streamer (version-cached
// full blobs, coalesced version-ranged deltas, epoch/regression fallback),
// the orchestrator's sharded southbound ingest, and the fleet-wide
// tail-sampling budget assigned on checkin.
#include <gtest/gtest.h>

#include <algorithm>

#include "agw/magmad.h"
#include "obs/tail_sampler.h"
#include "orc8r/ingest.h"
#include "orc8r/orchestrator.h"
#include "rpc/rpc.h"

namespace magma {
namespace {

using agw::SubscriberData;

common::Imsi imsi(std::uint64_t n) {
  return common::Imsi::from_digits(1010000000000ULL + n);
}

SubscriberData subscriber(std::uint64_t n, const std::string& policy) {
  SubscriberData sub;
  sub.imsi = imsi(n);
  sub.k[0] = static_cast<std::uint8_t>(n);
  sub.policy_name = policy;
  return sub;
}

orc8r::GetUpdatesRequest poll(std::uint64_t have_version,
                              std::uint64_t have_epoch) {
  orc8r::GetUpdatesRequest req;
  req.gateway_id = "gw0";
  req.have_version = have_version;
  req.have_epoch = have_epoch;
  return req;
}

// ---------------------------------------------------------------------------
// IngestShards
// ---------------------------------------------------------------------------

TEST(FleetIngest, ShardAssignmentIsStableAndInRange) {
  for (std::size_t shards : {1u, 4u, 7u}) {
    for (int g = 0; g < 50; ++g) {
      const std::string id = "gw" + std::to_string(g);
      const std::size_t s = orc8r::IngestShards::shard_of(id, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, orc8r::IngestShards::shard_of(id, shards));
    }
  }
  // FNV-1a, not std::hash: the assignment is a fixed function of the bytes.
  EXPECT_EQ(orc8r::IngestShards::shard_of("gw0", 4),
            orc8r::IngestShards::shard_of("gw0", 4));
}

TEST(FleetIngest, AppliesInFifoOrderPerGateway) {
  sim::Kernel kernel;
  orc8r::IngestShards ingest(kernel);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(ingest.submit("gw0", orc8r::IngestKind::kMetrics,
                              [&order, i]() { order.push_back(i); }));
  }
  EXPECT_EQ(ingest.pending(), 10u);
  kernel.run_until(sim::kSecond);
  EXPECT_EQ(ingest.pending(), 0u);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(ingest.stats().processed, 10u);
  EXPECT_EQ(ingest.stats().shed, 0u);
}

TEST(FleetIngest, FullGatewayQueueShedsWithKindBreakdown) {
  sim::Kernel kernel;
  orc8r::IngestConfig config;
  config.gateway_queue_max = 4;
  orc8r::IngestShards ingest(kernel, config);
  int applied = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ingest.submit("gw0", orc8r::IngestKind::kCheckin,
                              [&applied]() { ++applied; }));
  }
  // Queue full: everything further sheds, by kind, without queueing.
  EXPECT_FALSE(ingest.submit("gw0", orc8r::IngestKind::kMetrics,
                             [&applied]() { ++applied; }));
  EXPECT_FALSE(ingest.submit("gw0", orc8r::IngestKind::kMetrics,
                             [&applied]() { ++applied; }));
  EXPECT_FALSE(ingest.submit("gw0", orc8r::IngestKind::kTraceSummaries,
                             [&applied]() { ++applied; }));
  EXPECT_EQ(ingest.stats().shed, 3u);
  EXPECT_EQ(ingest.stats().shed_by_kind[static_cast<std::size_t>(
                orc8r::IngestKind::kMetrics)],
            2u);
  EXPECT_EQ(ingest.stats().shed_by_kind[static_cast<std::size_t>(
                orc8r::IngestKind::kTraceSummaries)],
            1u);
  // A different gateway still gets through.
  EXPECT_TRUE(ingest.submit("gw1", orc8r::IngestKind::kMetrics,
                            [&applied]() { ++applied; }));
  kernel.run_until(sim::kSecond);
  EXPECT_EQ(applied, 5);
  EXPECT_EQ(ingest.stats().max_gateway_queue, 4u);
}

TEST(FleetIngest, RoundRobinKeepsBackloggedGatewayFromStarvingOthers) {
  sim::Kernel kernel;
  orc8r::IngestConfig config;
  config.shards = 1;  // force both gateways onto the same shard
  config.batch_per_pump = 2;
  orc8r::IngestShards ingest(kernel, config);
  std::vector<std::string> order;
  for (int i = 0; i < 8; ++i) {
    ingest.submit("gw-noisy", orc8r::IngestKind::kMetrics,
                  [&order]() { order.push_back("noisy"); });
  }
  ingest.submit("gw-quiet", orc8r::IngestKind::kCheckin,
                [&order]() { order.push_back("quiet"); });
  kernel.run_until(sim::kSecond);
  ASSERT_EQ(order.size(), 9u);
  // The quiet gateway's single item lands in the first batch (one item per
  // gateway per round-robin pass), not behind the noisy backlog.
  const auto quiet_at =
      std::find(order.begin(), order.end(), "quiet") - order.begin();
  EXPECT_LT(quiet_at, 2);
  EXPECT_GE(ingest.stats().batches, 4u);
}

// ---------------------------------------------------------------------------
// Delta streamer (orchestrator-level)
// ---------------------------------------------------------------------------

TEST(DeltaStream, FirstContactFullThenNoopThenDelta) {
  sim::Kernel kernel;
  orc8r::Orchestrator orc8r(kernel);
  orc8r.add_subscriber(subscriber(1, "gold"));

  // First contact (epoch 0): full sync.
  const orc8r::DesiredUpdate first = orc8r.desired_update(poll(0, 0));
  EXPECT_EQ(first.mode, orc8r::SyncMode::kFull);
  EXPECT_EQ(first.epoch, orc8r.epoch());
  auto full = orc8r::DesiredState::deserialize(first.full);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().subscribers.size(), 1u);

  // Current: noop, nothing but the header.
  const orc8r::DesiredUpdate noop =
      orc8r.desired_update(poll(first.version, first.epoch));
  EXPECT_EQ(noop.mode, orc8r::SyncMode::kNoop);
  EXPECT_TRUE(noop.entries.empty());
  EXPECT_TRUE(noop.full.empty());

  // One change behind: a single-entry delta, not a full transfer.
  orc8r.add_subscriber(subscriber(2, "silver"));
  const orc8r::DesiredUpdate delta =
      orc8r.desired_update(poll(first.version, first.epoch));
  EXPECT_EQ(delta.mode, orc8r::SyncMode::kDelta);
  ASSERT_EQ(delta.entries.size(), 1u);
  EXPECT_EQ(delta.entries[0].kind, orc8r::DeltaEntry::Kind::kSubscriber);
  EXPECT_FALSE(delta.entries[0].remove);
  EXPECT_EQ(delta.entries[0].key, imsi(2).value);
  EXPECT_EQ(orc8r.stats().delta_pushes, 1u);
  EXPECT_EQ(orc8r.stats().full_pushes, 1u);
}

TEST(DeltaStream, CoalescesRepeatedWritesAndEmitsRemovals) {
  sim::Kernel kernel;
  orc8r::Orchestrator orc8r(kernel);
  const orc8r::DesiredUpdate base = orc8r.desired_update(poll(0, 0));

  // Five mutations, two surviving keys: sub 1 rewritten twice (last wins),
  // sub 2 added then removed (the remove must still be emitted — the
  // gateway may hold the add), one policy.
  orc8r.add_subscriber(subscriber(1, "gold"));
  orc8r.add_subscriber(subscriber(2, "gold"));
  orc8r.add_subscriber(subscriber(1, "silver"));
  orc8r.remove_subscriber(imsi(2));
  orc8r.add_policy(core::rate_limited_policy(1e6, 1e6));

  const orc8r::DesiredUpdate delta =
      orc8r.desired_update(poll(base.version, base.epoch));
  ASSERT_EQ(delta.mode, orc8r::SyncMode::kDelta);
  ASSERT_EQ(delta.entries.size(), 3u);
  // Deterministic (kind, key) order: subscribers before policies.
  EXPECT_EQ(delta.entries[0].key, imsi(1).value);
  EXPECT_FALSE(delta.entries[0].remove);
  auto sub = SubscriberData::deserialize(delta.entries[0].blob);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub.value().policy_name, "silver");  // last write won
  EXPECT_EQ(delta.entries[1].key, imsi(2).value);
  EXPECT_TRUE(delta.entries[1].remove);
  EXPECT_TRUE(delta.entries[1].blob.empty());
  EXPECT_EQ(delta.entries[2].kind, orc8r::DeltaEntry::Kind::kPolicy);
  EXPECT_EQ(delta.entries[2].key, "rate_limited");
  EXPECT_EQ(orc8r.stats().deltas_coalesced, 2u);
  EXPECT_EQ(orc8r.stats().delta_entries_sent, 3u);
}

TEST(DeltaStream, HaveVersionEqualsCurrentServesNoop) {
  sim::Kernel kernel;
  orc8r::Orchestrator orc8r(kernel);
  orc8r.add_subscriber(subscriber(1, "gold"));

  // A caught-up gateway is a noop regardless of delta-log state — even a
  // log trimmed to nothing must not push it onto the full path.
  orc8r.set_delta_log_cap(0);
  const orc8r::DesiredUpdate noop =
      orc8r.desired_update(poll(orc8r.config_version(), orc8r.epoch()));
  EXPECT_EQ(noop.mode, orc8r::SyncMode::kNoop);
  EXPECT_TRUE(noop.entries.empty());
  EXPECT_TRUE(noop.full.empty());
  EXPECT_EQ(orc8r.stats().full_pushes, 0u);
  EXPECT_EQ(orc8r.stats().delta_log_misses, 0u);
}

TEST(DeltaStream, DeltaLogTrimmedToExactRangeStillServesDelta) {
  sim::Kernel kernel;
  orc8r::Orchestrator orc8r(kernel);
  const orc8r::DesiredUpdate base = orc8r.desired_update(poll(0, 0));

  // Three mutations behind, and the log holds *exactly* those three
  // records — the coverage check is an off-by-one trap: == must serve a
  // delta, only < falls back to full.
  orc8r.add_subscriber(subscriber(1, "p"));
  orc8r.add_subscriber(subscriber(2, "p"));
  orc8r.add_subscriber(subscriber(3, "p"));
  const std::uint64_t need = orc8r.config_version() - base.version;
  orc8r.set_delta_log_cap(static_cast<std::size_t>(need));

  // The base poll itself may have been served as a full push; gate on
  // growth from here, not absolute counts.
  const std::uint64_t fulls_before = orc8r.stats().full_pushes;
  const orc8r::DesiredUpdate exact =
      orc8r.desired_update(poll(base.version, base.epoch));
  EXPECT_EQ(exact.mode, orc8r::SyncMode::kDelta);
  EXPECT_EQ(exact.entries.size(), 3u);
  EXPECT_EQ(orc8r.stats().delta_log_misses, 0u);
  EXPECT_EQ(orc8r.stats().full_pushes, fulls_before);

  // One record fewer and the same poll must fall back to full.
  orc8r.set_delta_log_cap(static_cast<std::size_t>(need) - 1);
  const orc8r::DesiredUpdate short_log =
      orc8r.desired_update(poll(base.version, base.epoch));
  EXPECT_EQ(short_log.mode, orc8r::SyncMode::kFull);
  EXPECT_EQ(orc8r.stats().full_pushes, fulls_before + 1);
  EXPECT_EQ(orc8r.stats().delta_log_misses, 1u);
}

TEST(DeltaStream, LogOverflowFallsBackToFull) {
  sim::Kernel kernel;
  orc8r::Orchestrator orc8r(kernel);
  orc8r.set_delta_log_cap(2);
  const orc8r::DesiredUpdate base = orc8r.desired_update(poll(0, 0));

  // Three mutations against a 2-entry log: the range is no longer covered.
  orc8r.add_subscriber(subscriber(1, "p"));
  orc8r.add_subscriber(subscriber(2, "p"));
  orc8r.add_subscriber(subscriber(3, "p"));
  const orc8r::DesiredUpdate over =
      orc8r.desired_update(poll(base.version, base.epoch));
  EXPECT_EQ(over.mode, orc8r::SyncMode::kFull);
  EXPECT_EQ(orc8r.stats().delta_log_misses, 1u);
}

TEST(DeltaStream, FullBlobSerializedOncePerVersionAcrossTheFleet) {
  sim::Kernel kernel;
  orc8r::Orchestrator orc8r(kernel);
  for (int i = 0; i < 20; ++i) orc8r.add_subscriber(subscriber(i, "p"));

  // 100 gateways all first-contact at the same version: one serialization,
  // 99 cache hits.
  for (int g = 0; g < 100; ++g) {
    const orc8r::DesiredUpdate u = orc8r.desired_update(poll(0, 0));
    ASSERT_EQ(u.mode, orc8r::SyncMode::kFull);
  }
  EXPECT_EQ(orc8r.stats().full_pushes, 100u);
  EXPECT_EQ(orc8r.stats().full_serializations, 1u);
  EXPECT_EQ(orc8r.stats().full_cache_hits, 99u);

  // A change invalidates once; the next wave costs exactly one more.
  orc8r.add_subscriber(subscriber(99, "p"));
  for (int g = 0; g < 50; ++g) {
    (void)orc8r.desired_update(poll(0, 0));
  }
  EXPECT_EQ(orc8r.stats().full_serializations, 2u);
}

TEST(DeltaStream, RegressionAndForeignEpochServeFull) {
  sim::Kernel kernel;
  orc8r::Orchestrator orc8r(kernel);
  orc8r.add_subscriber(subscriber(1, "p"));

  // A gateway ahead of the store (restored/rebuilt store) gets walked back
  // with an explicit full sync, counted as a regression.
  const orc8r::DesiredUpdate back = orc8r.desired_update(
      poll(orc8r.config_version() + 50, orc8r.epoch()));
  EXPECT_EQ(back.mode, orc8r::SyncMode::kFull);
  EXPECT_EQ(orc8r.stats().version_regressions, 1u);

  // A gateway carrying another incarnation's epoch can never take deltas.
  const orc8r::DesiredUpdate foreign = orc8r.desired_update(
      poll(orc8r.config_version(), orc8r.epoch() + 1));
  EXPECT_EQ(foreign.mode, orc8r::SyncMode::kFull);
  EXPECT_EQ(orc8r.stats().epoch_resyncs, 1u);
}

TEST(DeltaStream, UpdateCodecRoundTrips) {
  orc8r::DesiredUpdate u;
  u.version = 7;
  u.epoch = 3;
  u.mode = orc8r::SyncMode::kDelta;
  orc8r::DeltaEntry add;
  add.kind = orc8r::DeltaEntry::Kind::kSubscriber;
  add.key = imsi(1).value;
  add.blob = subscriber(1, "gold").serialize();
  orc8r::DeltaEntry rm;
  rm.kind = orc8r::DeltaEntry::Kind::kPolicy;
  rm.remove = true;
  rm.key = "rate_limited";
  u.entries = {add, rm};

  auto round = orc8r::DesiredUpdate::deserialize(u.serialize());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().version, 7u);
  EXPECT_EQ(round.value().epoch, 3u);
  EXPECT_EQ(round.value().mode, orc8r::SyncMode::kDelta);
  ASSERT_EQ(round.value().entries.size(), 2u);
  EXPECT_EQ(round.value().entries[0].key, add.key);
  EXPECT_EQ(round.value().entries[0].blob, add.blob);
  EXPECT_TRUE(round.value().entries[1].remove);

  orc8r::DesiredUpdate noop;
  noop.version = 1;
  noop.epoch = 1;
  auto noop_round = orc8r::DesiredUpdate::deserialize(noop.serialize());
  ASSERT_TRUE(noop_round.ok());
  EXPECT_EQ(noop_round.value().mode, orc8r::SyncMode::kNoop);
}

// ---------------------------------------------------------------------------
// End to end over a link: delta fan-out + tail budget
// ---------------------------------------------------------------------------

class FleetScaleRpcTest : public ::testing::Test {
 protected:
  FleetScaleRpcTest()
      : rng_(5),
        orc8r_(kernel_),
        rpc_(kernel_, rng_, "orc8r-server", "agw-client"),
        subscribers_([this]() { return rng_.next_u64(); }),
        magmad_(kernel_, "gw0", &rpc_.client, subscribers_, policies_,
                []() { return common::Bytes{}; },
                []() { return std::vector<orc8r::MetricSample>{}; }) {
    orc8r_.bind(rpc_.server);
  }

  sim::Kernel kernel_;
  sim::Rng rng_;
  orc8r::Orchestrator orc8r_;
  rpc::RpcLink rpc_;
  agw::SubscriberDb subscribers_;
  agw::PolicyDb policies_;
  agw::Magmad magmad_;
};

TEST_F(FleetScaleRpcTest, SteadyStateSyncsRideDeltasNotFullTransfers) {
  for (int i = 0; i < 10; ++i) orc8r_.add_subscriber(subscriber(i, "p"));
  magmad_.sync_config_now();
  kernel_.run_until(5 * sim::kSecond);
  ASSERT_EQ(subscribers_.size(), 10u);
  ASSERT_EQ(magmad_.stats().config_full_syncs, 1u);
  EXPECT_EQ(magmad_.synced_epoch(), orc8r_.epoch());

  // One change: the next poll applies a one-entry delta.
  orc8r_.add_subscriber(subscriber(42, "gold"));
  magmad_.sync_config_now();
  kernel_.run_until(10 * sim::kSecond);
  EXPECT_EQ(subscribers_.size(), 11u);
  EXPECT_TRUE(subscribers_.get(imsi(42)).has_value());
  EXPECT_EQ(magmad_.stats().config_delta_syncs, 1u);
  EXPECT_EQ(magmad_.stats().delta_entries_applied, 1u);
  EXPECT_EQ(magmad_.stats().config_full_syncs, 1u);  // still just the one
  EXPECT_EQ(orc8r_.stats().delta_pushes, 1u);

  // Removal propagates as a delta too.
  orc8r_.remove_subscriber(imsi(42));
  magmad_.sync_config_now();
  kernel_.run_until(15 * sim::kSecond);
  EXPECT_FALSE(subscribers_.get(imsi(42)).has_value());
  EXPECT_EQ(magmad_.stats().config_delta_syncs, 2u);
  EXPECT_EQ(magmad_.synced_version(), orc8r_.config_version());
}

TEST_F(FleetScaleRpcTest, CheckinAssignsFleetTailBudget) {
  orc8r_.set_fleet_trace_budget(40);
  std::vector<std::size_t> assigned;
  magmad_.set_tail_budget_sink(
      [&assigned](std::size_t k) { assigned.push_back(k); });

  magmad_.start();
  kernel_.run_until(3 * sim::kSecond);
  // Sole gateway: the whole budget.
  ASSERT_EQ(assigned.size(), 1u);
  EXPECT_EQ(assigned[0], 40u);
  EXPECT_EQ(magmad_.assigned_tail_keep(), 40u);

  // The fleet grows to 8: the next checkin reassigns K = 40 / 8.
  for (int g = 1; g < 8; ++g) {
    orc8r_.register_gateway("gw" + std::to_string(g), "agw");
  }
  kernel_.run_until(80 * sim::kSecond);  // next checkin at t=60s
  ASSERT_EQ(assigned.size(), 2u);
  EXPECT_EQ(assigned[1], 5u);
  EXPECT_EQ(magmad_.stats().tail_budget_updates, 2u);
}

TEST_F(FleetScaleRpcTest, SouthboundReportsFlowThroughIngestShards) {
  orc8r_.add_subscriber(subscriber(1, "p"));
  agw::MagmadConfig config;
  config.metrics_interval = 5 * sim::kSecond;
  agw::Magmad magmad(
      kernel_, "gw0", &rpc_.client, subscribers_, policies_,
      []() { return common::Bytes{}; },
      [this]() {
        return std::vector<orc8r::MetricSample>{
            orc8r::MetricSample{"gw0", "active_sessions", 1.0,
                                kernel_.now()}};
      },
      config);
  magmad.start();
  kernel_.run_until(sim::kMinute);
  // Reports landed and were applied via the shards, nothing shed.
  EXPECT_GE(orc8r_.stats().metric_reports, 2u);
  EXPECT_GE(orc8r_.ingest().stats().processed, 2u);
  EXPECT_EQ(orc8r_.ingest().stats().shed, 0u);
  EXPECT_EQ(orc8r_.ingest().pending(), 0u);
  EXPECT_GT(orc8r_.metrics().total_samples(), 0u);
  ASSERT_GE(orc8r_.statusd().stats().checkins, 1u);
}

// ---------------------------------------------------------------------------
// TailSampler budget application
// ---------------------------------------------------------------------------

obs::TraceContext finish_root(sim::Kernel& kernel, obs::Tracer& tracer,
                              sim::Duration duration) {
  const obs::TraceContext root = tracer.begin("attach", "lte_frontend", "gw0");
  kernel.run_until(kernel.now() + duration);
  tracer.end(root);
  return root;
}

TEST(FleetScaleTailBudget, ShrinkingKeepTrimsFastestAndUnpins) {
  sim::Kernel kernel;
  obs::Tracer tracer(kernel);
  obs::TailSamplerConfig config;
  config.keep_per_op = 4;
  config.window = sim::kMinute;
  obs::TailSampler sampler(kernel, tracer, config);

  const obs::TraceContext t10 =
      finish_root(kernel, tracer, 10 * sim::kMillisecond);
  const obs::TraceContext t20 =
      finish_root(kernel, tracer, 20 * sim::kMillisecond);
  const obs::TraceContext t30 =
      finish_root(kernel, tracer, 30 * sim::kMillisecond);
  const obs::TraceContext t40 =
      finish_root(kernel, tracer, 40 * sim::kMillisecond);
  ASSERT_EQ(sampler.held(), 4u);

  // Budget cut to 2: the two fastest keeps are trimmed and unpinned.
  sampler.set_keep_per_op(2);
  EXPECT_EQ(sampler.held(), 2u);
  EXPECT_TRUE(tracer.trace_pinned(t40.trace_id));
  EXPECT_TRUE(tracer.trace_pinned(t30.trace_id));
  EXPECT_FALSE(tracer.trace_pinned(t20.trace_id));
  EXPECT_FALSE(tracer.trace_pinned(t10.trace_id));
  EXPECT_EQ(sampler.stats().budget_trims, 2u);

  // New roots obey the smaller K.
  finish_root(kernel, tracer, 50 * sim::kMillisecond);
  EXPECT_EQ(sampler.held(), 2u);

  // 0 clamps to 1 — a managed gateway always keeps its slowest trace.
  sampler.set_keep_per_op(0);
  EXPECT_EQ(sampler.keep_per_op(), 1u);
  EXPECT_EQ(sampler.held(), 1u);
}

}  // namespace
}  // namespace magma
