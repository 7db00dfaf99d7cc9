// Orchestrator + magmad: northbound API, desired-state config sync over
// realistic backhaul, check-in, checkpoint shipping, the config store's
// contract, report ingest, wedged loops, and control-link telemetry.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "agw/magmad.h"
#include "core/network.h"
#include "obs/sketch/subscriber_sketches.h"
#include "obs/tail_sampler.h"
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

TEST(Orchestrator, NorthboundSubscriberCrud) {
  sim::Kernel kernel;
  orc8r::Orchestrator orc8r(kernel);
  orc8r.add_subscriber(subscriber(1, "gold"));
  orc8r.add_subscriber(subscriber(2, "silver"));
  EXPECT_EQ(orc8r.subscriber_count(), 2u);
  EXPECT_EQ(orc8r.get_subscriber(imsi(1))->policy_name, "gold");
  orc8r.remove_subscriber(imsi(1));
  EXPECT_EQ(orc8r.subscriber_count(), 1u);
  EXPECT_FALSE(orc8r.get_subscriber(imsi(1)).has_value());
}

TEST(Orchestrator, PolicyCrudAndVersionBump) {
  sim::Kernel kernel;
  orc8r::Orchestrator orc8r(kernel);
  const std::uint64_t v0 = orc8r.config_version();
  orc8r.add_policy(core::rate_limited_policy(1e6, 1e6));
  EXPECT_GT(orc8r.config_version(), v0);
  EXPECT_TRUE(orc8r.get_policy("rate_limited").has_value());
  orc8r.remove_policy("rate_limited");
  EXPECT_FALSE(orc8r.get_policy("rate_limited").has_value());
}

TEST(Orchestrator, ConfigStoreContract) {
  sim::Kernel kernel;
  orc8r::Orchestrator orc8r(kernel);
  // A fresh orchestrator reads version 1: no version equals the 0 a gateway
  // reports before its first sync.
  EXPECT_EQ(orc8r.config_version(), 1u);

  // Every add bumps the version by one, an identical re-add included.
  orc8r.add_subscriber(subscriber(1, "gold"));
  EXPECT_EQ(orc8r.config_version(), 2u);
  orc8r.add_subscriber(subscriber(1, "gold"));
  EXPECT_EQ(orc8r.config_version(), 3u);
  orc8r.add_policy(core::rate_limited_policy(1e6, 1e6));
  EXPECT_EQ(orc8r.config_version(), 4u);
  orc8r.add_policy(core::rate_limited_policy(1e6, 1e6));
  EXPECT_EQ(orc8r.config_version(), 5u);

  // A re-added subscriber reads back its latest record.
  orc8r.add_subscriber(subscriber(1, "silver"));
  EXPECT_EQ(orc8r.config_version(), 6u);
  EXPECT_EQ(orc8r.get_subscriber(imsi(1))->policy_name, "silver");

  // Removing what is absent changes nothing: a gateway synced to the
  // current version keeps getting kNoop.
  const orc8r::DesiredUpdate synced =
      orc8r.desired_update(orc8r::GetUpdatesRequest{"gw0", 0, 0});
  ASSERT_EQ(synced.mode, orc8r::SyncMode::kFull);
  orc8r.remove_subscriber(imsi(2));
  orc8r.remove_policy("absent");
  EXPECT_EQ(orc8r.config_version(), 6u);
  EXPECT_EQ(orc8r.desired_update(orc8r::GetUpdatesRequest{
                                     "gw0", synced.version, synced.epoch})
                .mode,
            orc8r::SyncMode::kNoop);

  // subscriber_count() follows adds and removes; removing what is present
  // bumps the version.
  orc8r.add_subscriber(subscriber(2, "gold"));
  EXPECT_EQ(orc8r.subscriber_count(), 2u);
  EXPECT_EQ(orc8r.config_version(), 7u);
  orc8r.remove_subscriber(imsi(1));
  EXPECT_EQ(orc8r.subscriber_count(), 1u);
  EXPECT_EQ(orc8r.config_version(), 8u);
  orc8r.remove_policy("rate_limited");
  EXPECT_EQ(orc8r.config_version(), 9u);
  EXPECT_FALSE(orc8r.get_policy("rate_limited").has_value());

  // The full state lists subscribers in IMSI string order and policies in
  // name order, whatever the insertion order; its bytes are pinned.
  orc8r::Orchestrator fixed(kernel);
  SubscriberData short_imsi;
  short_imsi.imsi = common::Imsi{"IMSI12345"};
  short_imsi.k[0] = 0xAA;
  short_imsi.policy_name = "zeta";
  SubscriberData long_imsi;
  long_imsi.imsi = common::Imsi{"IMSI001010000000001"};
  long_imsi.opc[15] = 0x55;
  long_imsi.sqn = 7;
  long_imsi.policy_name = "alpha";
  long_imsi.wifi_password = "pw";
  fixed.add_subscriber(short_imsi);
  fixed.add_subscriber(long_imsi);
  core::Policy zeta = core::rate_limited_policy(2000, 1000);
  zeta.name = "zeta";
  core::Policy alpha = core::tiered_policy(5000, 1 << 20, 1000);
  alpha.name = "alpha";
  fixed.add_policy(zeta);
  fixed.add_policy(alpha);
  const orc8r::DesiredUpdate full =
      fixed.desired_update(orc8r::GetUpdatesRequest{"gw0", 0, 0});
  ASSERT_EQ(full.mode, orc8r::SyncMode::kFull);
  auto state = orc8r::DesiredState::deserialize(full.full);
  ASSERT_TRUE(state.ok());
  ASSERT_EQ(state.value().subscribers.size(), 2u);
  EXPECT_EQ(state.value().subscribers[0], long_imsi);
  EXPECT_EQ(state.value().subscribers[1], short_imsi);
  ASSERT_EQ(state.value().policies.size(), 2u);
  EXPECT_EQ(state.value().policies[0], alpha);
  EXPECT_EQ(state.value().policies[1], zeta);
  EXPECT_EQ(common::to_hex(full.full),
            "050000000000000002000000000000005700000013000000494d534930303130"
            "3130303030303030303031100000000000000000000000000000000000000010"
            "0000000000000000000000000000000000005507000000000000000500000061"
            "6c706861020000007077014a00000009000000494d5349313233343510000000"
            "aa00000000000000000000000000000010000000000000000000000000000000"
            "000000000000000000000000040000007a657461000000000102000000000000"
            "004f00000005000000616c706861020000008813000000000000881300000000"
            "00000000100000000000e803000000000000e803000000000000000000000000"
            "000000000010000000000000000000000000000936000000040000007a657461"
            "01000000d007000000000000e803000000000000000000000000000000000010"
            "0000000000000000000000000009");
}

TEST(Orchestrator, CorruptStoreBlobIsCountedWarnedAndAlerted) {
  // Regression: a store blob that fails to deserialize used to be silently
  // dropped from the desired state — every gateway would converge on a
  // config missing that subscriber, with nothing anywhere saying so. The
  // northbound API stores an invalid IMSI's record as it is; the decode at
  // full-state build rejects it.
  sim::Kernel kernel;
  orc8r::Orchestrator orc8r(kernel);
  orc8r.add_subscriber(subscriber(1, "p"));
  SubscriberData corrupt = subscriber(2, "p");
  corrupt.imsi = common::Imsi{"corrupt"};
  orc8r.add_subscriber(corrupt);

  // First contact: the streamer builds (and decodes) the full state.
  const orc8r::GetUpdatesRequest first_contact{"gw0", 0, 0};
  const orc8r::DesiredUpdate update = orc8r.desired_update(first_contact);
  ASSERT_EQ(update.mode, orc8r::SyncMode::kFull);
  auto state = orc8r::DesiredState::deserialize(update.full);
  ASSERT_TRUE(state.ok());
  // The good subscriber survives; the corrupt one is counted, not silent.
  EXPECT_EQ(state.value().subscribers.size(), 1u);
  EXPECT_EQ(orc8r.stats().store_decode_errors, 1u);
  EXPECT_EQ(
      orc8r.metrics().latest("orc8r", "orchestrator_store_decode_errors"),
      1.0);
  const auto events = orc8r.events_of_type("store_decode_error");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].severity, obs::EventSeverity::kWarn);
  EXPECT_NE(events[0].message.find("sub/corrupt"), std::string::npos);

  // The default growth alert fires once the gauge rises past its baseline
  // (the corrupt blob is recounted on the next full-state rebuild).
  orc8r.add_subscriber(subscriber(2, "p"));
  (void)orc8r.desired_update(first_contact);
  EXPECT_EQ(orc8r.stats().store_decode_errors, 2u);
  bool firing = false;
  for (const orc8r::ActiveAlert& a : orc8r.metrics().active_alerts()) {
    if (a.rule == "orchestrator_store_decode_errors_growth") firing = true;
  }
  EXPECT_TRUE(firing);
}

TEST(OrchestratorReports, EveryReportMethodSharesOneHandlerShape) {
  // All four metricsd report methods over a real RPC link: an undecodable
  // payload is an RPC error, one dropped sample of its kind and one
  // metricsd Service303 error; a valid one is counted, acked, and applied
  // once the ingest shard pumps.
  sim::Kernel kernel;
  sim::Rng rng(9);
  orc8r::Orchestrator orc8r(kernel);
  rpc::RpcLink link(kernel, rng, "orc8r-server", "agw-client");
  orc8r.bind(link.server);
  const orc8r::Metricsd& m = orc8r.metrics();
  const obs::Service303& svc = *orc8r.status().find("metricsd");

  orc8r::HistogramSnapshot histogram;
  histogram.gateway_id = "gw0";
  histogram.name = "attach_s";
  histogram.bounds = {0.1};
  histogram.counts = {2, 1};
  obs::TraceSummary summary{"attach", "lte_frontend", "gw0", 7};
  obs::sketch::SubscriberSketches sketches;
  sketches.record(obs::sketch::SubscriberMetric::kBytes, imsi(1).value);
  using Drop = orc8r::Metricsd::DropKind;
  using Stats = orc8r::OrchestratorStats;
  struct Case {
    const char* method;
    Drop drop;
    std::uint64_t Stats::*reports;
    common::Bytes valid;
    std::function<bool()> applied;
  };
  const Case cases[] = {
      {orc8r::kReportMetrics, Drop::kMetric, &Stats::metric_reports,
       orc8r::encode_metric_report({{"gw0", "active_sessions", 3.0, 0}}),
       [&] { return m.latest("gw0", "active_sessions") == 3.0; }},
      {orc8r::kReportHistograms, Drop::kHistogram, &Stats::histogram_reports,
       orc8r::encode_histogram_report({histogram}),
       [&] { return m.histogram_count("attach_s") == 3; }},
      {orc8r::kReportTraceSummaries, Drop::kTraceSummary,
       &Stats::trace_summary_reports, obs::encode_trace_summaries({summary}),
       [&] { return m.trace_summaries_ingested() == 1; }},
      {orc8r::kReportSketches, Drop::kSketch, &Stats::sketch_reports,
       obs::sketch::encode_sketch_report(sketches.snapshot("gw0", 0)),
       [&] { return m.sketch_reports_ingested() == 1; }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.method);
    const std::uint64_t drops = m.samples_dropped(c.drop);
    const std::uint64_t errors = svc.status().errors;
    const std::uint64_t reports = orc8r.stats().*c.reports;
    std::vector<bool> acks;
    for (const common::Bytes& payload : {common::Bytes{0xff, 0xff}, c.valid}) {
      link.client.call(orc8r::kMetricsService, c.method, payload,
                       sim::kSecond, [&](rpc::Result<rpc::Bytes> r) {
                         acks.push_back(r.ok());
                       });
      kernel.run_until(kernel.now() + sim::kSecond);
    }
    EXPECT_EQ(acks, (std::vector<bool>{false, true}));
    EXPECT_EQ(m.samples_dropped(c.drop), drops + 1);
    EXPECT_EQ(svc.status().errors, errors + 1);
    EXPECT_EQ(orc8r.stats().*c.reports, reports + 1);
    EXPECT_TRUE(c.applied());
  }
}

TEST(DesiredState, SerializeRoundTrip) {
  orc8r::DesiredState state;
  state.version = 42;
  state.subscribers.push_back(subscriber(1, "gold"));
  state.policies.push_back(core::tiered_policy(1e7, 1 << 30, 1e6));
  auto round = orc8r::DesiredState::deserialize(state.serialize());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().version, 42u);
  EXPECT_EQ(round.value().subscribers, state.subscribers);
  EXPECT_EQ(round.value().policies, state.policies);
}

// --- Magmad over a link -------------------------------------------------------

class MagmadTest : public ::testing::Test {
 protected:
  MagmadTest()
      : rng_(5),
        orc8r_(kernel_),
        rpc_(kernel_, rng_, "orc8r-server", "agw-client"),
        subscribers_([this]() { return rng_.next_u64(); }),
        magmad_(kernel_, "gw0", &rpc_.client, subscribers_, policies_,
                [this]() { return checkpoint_payload_; },
                [this]() { return metrics_payload_; }) {
    orc8r_.bind(rpc_.server);
  }

  sim::Kernel kernel_;
  sim::Rng rng_;
  orc8r::Orchestrator orc8r_;
  rpc::RpcLink rpc_;
  agw::SubscriberDb subscribers_;
  agw::PolicyDb policies_;
  common::Bytes checkpoint_payload_ = common::to_bytes("ckpt");
  std::vector<orc8r::MetricSample> metrics_payload_;
  agw::Magmad magmad_;
};

TEST_F(MagmadTest, ConfigSyncAppliesSubscribersAndPolicies) {
  orc8r_.add_subscriber(subscriber(1, "gold"));
  orc8r_.add_policy(core::rate_limited_policy(2e6, 1e6));

  bool applied = false;
  magmad_.sync_config_now([&](bool a) { applied = a; });
  kernel_.run_until(5 * sim::kSecond);
  EXPECT_TRUE(applied);
  EXPECT_TRUE(subscribers_.get(imsi(1)).has_value());
  EXPECT_TRUE(policies_.get("rate_limited").has_value());
  EXPECT_EQ(magmad_.synced_version(), orc8r_.config_version());

  // Second sync with no changes is a no-op.
  bool applied_again = true;
  magmad_.sync_config_now([&](bool a) { applied_again = a; });
  kernel_.run_until(10 * sim::kSecond);
  EXPECT_FALSE(applied_again);
  EXPECT_EQ(magmad_.stats().config_polls_noop, 1u);
}

TEST_F(MagmadTest, ConfigRemovalPropagates) {
  orc8r_.add_subscriber(subscriber(1, "p"));
  orc8r_.add_subscriber(subscriber(2, "p"));
  magmad_.sync_config_now();
  kernel_.run_until(5 * sim::kSecond);
  ASSERT_EQ(subscribers_.size(), 2u);

  orc8r_.remove_subscriber(imsi(1));
  magmad_.sync_config_now();
  kernel_.run_until(10 * sim::kSecond);
  EXPECT_EQ(subscribers_.size(), 1u);
  EXPECT_FALSE(subscribers_.get(imsi(1)).has_value());
}

TEST_F(MagmadTest, ConvergesAfterOrchestratorRestartWithOlderStore) {
  // Regression: an orchestrator replaced by an instance with a fresh store
  // answers polls with a *lower* version. A gateway comparing versions
  // numerically wedges forever ("I have 12, you offer 3"); the epoch makes
  // the restart explicit and the gateway must take the full sync — the
  // orchestrator is the source of truth (§3.4).
  for (int i = 1; i <= 8; ++i) orc8r_.add_subscriber(subscriber(i, "old"));
  magmad_.sync_config_now();
  kernel_.run_until(5 * sim::kSecond);
  ASSERT_EQ(subscribers_.size(), 8u);
  const std::uint64_t old_version = magmad_.synced_version();
  const std::uint64_t old_epoch = magmad_.synced_epoch();
  ASSERT_GT(old_version, 1u);

  // Replace the orchestrator: fresh store, one subscriber, lower version.
  orc8r::Orchestrator replacement(kernel_);
  replacement.add_subscriber(subscriber(100, "new"));
  ASSERT_LT(replacement.config_version(), old_version);
  ASSERT_NE(replacement.epoch(), old_epoch);
  replacement.bind(rpc_.server);  // re-registration replaces the handlers

  bool applied = false;
  magmad_.sync_config_now([&](bool a) { applied = a; });
  kernel_.run_until(10 * sim::kSecond);
  EXPECT_TRUE(applied);
  // Converged backwards onto the replacement's (smaller) desired state.
  EXPECT_EQ(subscribers_.size(), 1u);
  EXPECT_TRUE(subscribers_.get(imsi(100)).has_value());
  EXPECT_FALSE(subscribers_.get(imsi(1)).has_value());
  EXPECT_EQ(magmad_.synced_version(), replacement.config_version());
  EXPECT_EQ(magmad_.synced_epoch(), replacement.epoch());
  EXPECT_EQ(magmad_.stats().epoch_resyncs, 1u);

  // And stays converged: the next poll is a cheap noop, not a sync loop.
  magmad_.sync_config_now();
  kernel_.run_until(15 * sim::kSecond);
  EXPECT_GE(magmad_.stats().config_polls_noop, 1u);
}

TEST_F(MagmadTest, SyncFailsGracefullyWhenDisconnected) {
  rpc_.path.forward.set_up(false);
  rpc_.path.reverse.set_up(false);
  bool applied = true;
  magmad_.sync_config_now([&](bool a) { applied = a; });
  kernel_.run_until(30 * sim::kSecond);
  EXPECT_FALSE(applied);
  EXPECT_GE(magmad_.stats().sync_failures, 1u);
  EXPECT_FALSE(magmad_.orchestrator_reachable());
}

TEST_F(MagmadTest, PeriodicLoopsShipEverything) {
  orc8r_.add_subscriber(subscriber(1, "p"));
  metrics_payload_ = {
      orc8r::MetricSample{"gw0", "active_sessions", 3.0, kernel_.now()}};
  magmad_.start();
  kernel_.run_until(3 * sim::kMinute);

  EXPECT_GE(magmad_.stats().config_syncs_applied, 1u);
  EXPECT_GE(magmad_.stats().checkins_ok, 2u);
  EXPECT_GE(magmad_.stats().metric_reports_sent, 2u);
  EXPECT_GE(magmad_.stats().checkpoints_shipped, 2u);

  // Orchestrator side saw all of it.
  EXPECT_GE(orc8r_.stats().checkins, 2u);
  ASSERT_TRUE(orc8r_.gateway("gw0").has_value());
  ASSERT_NE(orc8r_.statusd().gateway("gw0"), nullptr);
  EXPECT_GT(orc8r_.statusd().gateway("gw0")->checkins, 0u);
  EXPECT_EQ(orc8r_.stored_checkpoint("gw0").value(),
            common::to_bytes("ckpt"));
  EXPECT_GT(orc8r_.metrics().total_samples(), 0u);
}

TEST_F(MagmadTest, WedgedLoopsStaySilentThenResumeOnTheNextBoundary) {
  // Loops tick at 0, then every 15 s (metrics), 30 s (config) and 60 s
  // (checkin, checkpoint). Wedged for five minutes, magmad sends nothing;
  // unwedged, each loop resumes at its next boundary — proof the ticks kept
  // rescheduling, since start() is idempotent and cannot restart them.
  metrics_payload_ = {orc8r::MetricSample{"gw0", "active_sessions", 1.0, 0}};
  magmad_.start();
  kernel_.run_until(sim::kSecond);
  const std::uint64_t calls = rpc_.client.stats().calls_sent;
  ASSERT_EQ(calls, 4u);  // poll, checkin, metrics, checkpoint

  magmad_.simulate_wedge(true);
  kernel_.run_until(301 * sim::kSecond);
  magmad_.simulate_wedge(false);
  kernel_.run_until(314 * sim::kSecond);
  EXPECT_EQ(rpc_.client.stats().calls_sent, calls);
  EXPECT_EQ(orc8r_.stats().checkins, 1u);

  kernel_.run_until(316 * sim::kSecond);
  EXPECT_EQ(rpc_.client.stats().calls_sent, calls + 1);
  EXPECT_EQ(magmad_.stats().metric_reports_sent, 2u);
  kernel_.run_until(331 * sim::kSecond);
  EXPECT_EQ(magmad_.stats().config_polls_noop, 1u);
  kernel_.run_until(361 * sim::kSecond);
  EXPECT_EQ(magmad_.stats().checkins_ok, 2u);
  EXPECT_EQ(magmad_.stats().checkpoints_shipped, 2u);
}

// --- Health plane + histogram delta shipping ---------------------------------

// A magmad wired with explicit status/histogram sources over a clean link,
// with fast cadences and everything unrelated slowed way down.
class MagmadShippingTest : public ::testing::Test {
 protected:
  static agw::MagmadConfig fast_metrics() {
    agw::MagmadConfig config;
    config.config_poll_interval = sim::kHour;
    config.checkin_interval = 5 * sim::kSecond;
    config.metrics_interval = 5 * sim::kSecond;
    config.checkpoint_interval = sim::kHour;
    config.telemetry_backpressure = 1000;  // never shed in this test
    return config;
  }

  MagmadShippingTest()
      : rng_(5),
        orc8r_(kernel_),
        rpc_(kernel_, rng_, "orc8r-server", "agw-client"),
        subscribers_([this]() { return rng_.next_u64(); }),
        registry_(kernel_),
        magmad_(kernel_, "gw0", &rpc_.client, subscribers_, policies_,
                []() { return common::Bytes{}; },
                []() { return std::vector<orc8r::MetricSample>{}; },
                fast_metrics(), nullptr,
                [this]() {
                  orc8r::HistogramSnapshot snap;
                  snap.gateway_id = "gw0";
                  snap.name = "attach_s";
                  snap.bounds = hist_.bounds();
                  snap.counts = hist_.counts();
                  snap.sum = hist_.sum();
                  snap.time = kernel_.now();
                  return std::vector<orc8r::HistogramSnapshot>{
                      std::move(snap)};
                },
                [this]() { return registry_.snapshot(); }) {
    orc8r_.bind(rpc_.server);
  }

  sim::Kernel kernel_;
  sim::Rng rng_;
  orc8r::Orchestrator orc8r_;
  rpc::RpcLink rpc_;
  agw::SubscriberDb subscribers_;
  agw::PolicyDb policies_;
  obs::StatusRegistry registry_;
  obs::Histogram hist_;
  agw::Magmad magmad_;
};

TEST_F(MagmadShippingTest, CheckinCarriesService303SnapshotIntoStatusd) {
  obs::Service303& sessiond = registry_.register_service("sessiond");
  sessiond.count_request(4);
  sessiond.count_error("create_session: no bearer");
  registry_.register_service("mobilityd").set_phase("serving");

  magmad_.start();
  kernel_.run_until(3 * sim::kSecond);

  ASSERT_GE(orc8r_.statusd().stats().checkins, 1u);
  const orc8r::GatewayStatus* gw = orc8r_.statusd().gateway("gw0");
  ASSERT_NE(gw, nullptr);
  EXPECT_EQ(gw->health, orc8r::GatewayHealth::kHealthy);
  ASSERT_EQ(gw->services.size(), 2u);
  EXPECT_EQ(gw->services[0].service, "mobilityd");
  EXPECT_EQ(gw->services[0].phase, "serving");
  EXPECT_EQ(gw->services[1].service, "sessiond");
  EXPECT_EQ(gw->services[1].requests, 4u);
  EXPECT_EQ(gw->services[1].last_error, "create_session: no bearer");
}

TEST_F(MagmadShippingTest, HistogramsShipFullThenDeltaThenSkip) {
  hist_.observe(0.1);
  magmad_.start();  // first metrics tick fires immediately
  kernel_.run_until(3 * sim::kSecond);

  // First report: full snapshot, every bucket on the wire.
  EXPECT_EQ(magmad_.stats().histogram_full_snapshots, 1u);
  EXPECT_EQ(magmad_.stats().histogram_buckets_shipped, hist_.counts().size());
  EXPECT_EQ(orc8r_.metrics().histogram_count("attach_s"), 1u);

  // Two observations in one bucket: the next tick ships a 1-bucket delta.
  hist_.observe(0.1);
  hist_.observe(0.1);
  kernel_.run_until(8 * sim::kSecond);
  EXPECT_EQ(magmad_.stats().histogram_delta_snapshots, 1u);
  EXPECT_EQ(magmad_.stats().histogram_buckets_shipped,
            hist_.counts().size() + 1);
  EXPECT_EQ(orc8r_.metrics().histogram_count("attach_s"), 3u);
  EXPECT_EQ(orc8r_.metrics().histogram_delta_orphans(), 0u);

  // Nothing new: the tick ships nothing at all.
  kernel_.run_until(13 * sim::kSecond);
  EXPECT_GE(magmad_.stats().histogram_unchanged_skips, 1u);
  EXPECT_EQ(magmad_.stats().histogram_buckets_shipped,
            hist_.counts().size() + 1);
  EXPECT_EQ(orc8r_.metrics().histogram_count("attach_s"), 3u);
}

TEST_F(MagmadShippingTest, LostReportForcesFullReship) {
  hist_.observe(0.1);
  magmad_.start();
  kernel_.run_until(3 * sim::kSecond);
  ASSERT_EQ(magmad_.stats().histogram_full_snapshots, 1u);

  // Partition the backhaul across the next tick: the delta report dies on
  // its deadline, so magmad must assume metricsd missed it.
  rpc_.path.forward.set_up(false);
  rpc_.path.reverse.set_up(false);
  hist_.observe(2.0);
  kernel_.run_until(31 * sim::kSecond);
  ASSERT_GE(magmad_.stats().histogram_reports_lost, 1u);

  rpc_.path.forward.set_up(true);
  rpc_.path.reverse.set_up(true);
  hist_.observe(2.0);
  kernel_.run_until(60 * sim::kSecond);
  // Recovery re-shipped a full snapshot (cumulative, so the orchestrator
  // converges on the gateway's true counts despite the lost deltas).
  EXPECT_GE(magmad_.stats().histogram_full_snapshots, 2u);
  EXPECT_EQ(orc8r_.metrics().histogram_count("attach_s"), hist_.count());
  EXPECT_EQ(orc8r_.metrics().merged_histogram("attach_s").counts(),
            hist_.counts());
}

TEST_F(MagmadShippingTest, BucketsShippedGaugeTracksStats) {
  // The AGW-level gauge is exercised end to end in agw_test/integration, but
  // the stat it mirrors must move exactly with the wire traffic.
  hist_.observe(0.1);
  magmad_.start();
  kernel_.run_until(3 * sim::kSecond);
  const std::uint64_t after_full = magmad_.stats().histogram_buckets_shipped;
  EXPECT_EQ(after_full, hist_.counts().size());

  hist_.observe(0.1);
  kernel_.run_until(8 * sim::kSecond);
  EXPECT_EQ(magmad_.stats().histogram_buckets_shipped, after_full + 1);
}

// --- Transport telemetry end to end ------------------------------------------

TEST(TransportTelemetry, ControlChannelStatsReachMetricsd) {
  // The AGW's control-channel transport health (SRTT, RTO, retransmission
  // counters) must flow through magmad's periodic metrics report into the
  // orchestrator's metricsd, per gateway.
  core::NetworkConfig config;
  config.backhaul = sim::satellite_backhaul();
  core::Network net(config);
  net.add_agw(agw::virtual_xeon(2));
  net.run_for(2 * sim::kMinute);

  const orc8r::Metricsd& metrics = net.orchestrator().metrics();
  const auto srtt = metrics.latest("gw0", "transport_srtt_s");
  const auto rto = metrics.latest("gw0", "transport_rto_s");
  ASSERT_TRUE(srtt.has_value());
  ASSERT_TRUE(rto.has_value());
  // The estimator converged on the satellite RTT (~0.64 s) and the RTO sits
  // above it — no spurious-retransmission storm on this incarnation.
  EXPECT_GT(*srtt, 0.5);
  EXPECT_LT(*srtt, 1.0);
  EXPECT_GE(*rto, *srtt);
  ASSERT_TRUE(metrics.latest("gw0", "transport_retransmissions").has_value());
  ASSERT_TRUE(
      metrics.latest("gw0", "transport_spurious_retransmits").has_value());
  ASSERT_TRUE(metrics.latest("gw0", "transport_send_failures").has_value());
  // Congestion-control and SACK gauges flow too: the window is live (>= 1
  // segment, bounded by the configured cap) and the flight never exceeds
  // it; the reorder backlog gauge exists even when it reads zero.
  const auto cwnd = metrics.latest("gw0", "transport_cwnd");
  const auto flight = metrics.latest("gw0", "transport_flight_size");
  ASSERT_TRUE(cwnd.has_value());
  ASSERT_TRUE(flight.has_value());
  EXPECT_GE(*cwnd, 1.0);
  EXPECT_LE(*flight, *cwnd);
  ASSERT_TRUE(metrics.latest("gw0", "transport_ssthresh").has_value());
  ASSERT_TRUE(metrics.latest("gw0", "transport_sack_retransmits").has_value());
  ASSERT_TRUE(metrics.latest("gw0", "transport_rto_at_cap").has_value());
  ASSERT_TRUE(metrics.latest("gw0", "transport_reorder_backlog").has_value());
  ASSERT_TRUE(metrics.latest("gw0", "transport_send_backlog").has_value());
  ASSERT_TRUE(metrics.latest("gw0", "magmad_telemetry_sheds").has_value());
}

TEST(TransportTelemetry, BackhaulLossShowsUpInLinkGauges) {
  // The AGW's link gauges read its orchestrator control link: no drops on a
  // clean backhaul, drops in both directions once it turns lossy.
  core::Network net;
  agw::AccessGateway& gw = net.add_agw(agw::virtual_xeon(2));
  net.run_for(sim::kMinute);
  const orc8r::Metricsd& metrics = net.orchestrator().metrics();
  for (const std::string dir : {"ul", "dl"}) {
    EXPECT_EQ(metrics.latest("gw0", "link_dropped_packets_" + dir), 0.0);
    EXPECT_EQ(metrics.latest("gw0", "link_queue_depth_" + dir), 0.0);
  }
  net.set_backhaul_loss(gw, 0.3);
  net.run_for(5 * sim::kMinute);
  EXPECT_GT(metrics.latest("gw0", "link_dropped_packets_ul"), 0.0);
  EXPECT_GT(metrics.latest("gw0", "link_dropped_packets_dl"), 0.0);
}

TEST(TransportTelemetry, UplinkGaugesReadTheReversePath) {
  // The gateway is its control link's client end, which sends on the
  // reverse path: loss on that direction alone lands in the _ul gauges.
  sim::Kernel kernel;
  sim::Rng rng(3);
  orc8r::Orchestrator orc8r(kernel);
  rpc::RpcLink link(kernel, rng, "orc8r-server", "gw0-orc8r-client");
  agw::AccessGateway gw(kernel, common::GatewayId{"gw0"}, agw::virtual_xeon(2),
                        rng.fork());
  orc8r.bind(link.server);
  gw.connect_orchestrator(link);
  gw.magmad().start();
  link.path.reverse.set_loss_probability(0.3);
  kernel.run_until(5 * sim::kMinute);

  std::map<std::string, double> gauges;
  for (const orc8r::MetricSample& s : gw.telemetry_snapshot()) {
    gauges[s.name] = s.value;
  }
  const sim::Link& ul = link.path.reverse;
  EXPECT_GT(gauges.at("link_dropped_packets_ul"), 0.0);
  EXPECT_EQ(gauges.at("link_dropped_packets_ul"),
            static_cast<double>(ul.stats().packets_dropped));
  EXPECT_EQ(gauges.at("link_dropped_packets_dl"), 0.0);
  EXPECT_EQ(gauges.at("link_queue_depth_ul"),
            static_cast<double>(ul.queue_depth()));
  EXPECT_EQ(gauges.at("transport_retransmissions"),
            static_cast<double>(link.channels.b->stats().retransmissions));
}

TEST_F(MagmadTest, BackpressureShedsTelemetryButNeverTheSync) {
  // Force the shed path: with the threshold at zero every best-effort tick
  // sees the channel as "already backlogged" and skips shipping. The config
  // sync is exempt — it is the one RPC that must land — so the gateway
  // still learns its subscribers while metrics and checkpoints yield.
  agw::MagmadConfig config;
  config.telemetry_backpressure = 0;
  agw::Magmad magmad(kernel_, "gw0", &rpc_.client, subscribers_, policies_,
                     [this]() { return checkpoint_payload_; },
                     [this]() { return metrics_payload_; }, config);
  orc8r_.add_subscriber(subscriber(1, "p"));
  metrics_payload_ = {
      orc8r::MetricSample{"gw0", "active_sessions", 1.0, kernel_.now()}};
  magmad.start();
  kernel_.run_until(3 * sim::kMinute);

  EXPECT_GE(magmad.stats().config_syncs_applied, 1u);
  EXPECT_TRUE(subscribers_.get(imsi(1)).has_value());
  EXPECT_GT(magmad.stats().telemetry_sheds, 0u);
  EXPECT_EQ(magmad.stats().metric_reports_sent, 0u);
  EXPECT_EQ(magmad.stats().checkpoints_shipped, 0u);
}

}  // namespace
}  // namespace magma
