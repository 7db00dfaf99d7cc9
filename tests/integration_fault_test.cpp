// Fault tolerance (§3.3): small fault domains, checkpoint/restore onto a
// backup AGW, crash-recovery invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/network.h"

namespace magma {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<core::Network>();
    agw0_ = &net_->add_agw(agw::bare_metal_j3160());
    agw1_ = &net_->add_agw(agw::bare_metal_j3160());
    enb0_ = &net_->add_enodeb(*agw0_);
    enb1_ = &net_->add_enodeb(*agw1_);
    net_->run_for(2 * sim::kSecond);
  }

  ran::UeLte& attach_ue(ran::EnodeB& enb) {
    const agw::SubscriberData sub = net_->provision_subscriber();
    net_->sync_all_config();
    ran::UeLte& ue = net_->add_ue_lte(sub);
    bool ok = false;
    ue.attach(enb, [&](const ran::AttachOutcome& o) { ok = o.success; });
    net_->run_for(20 * sim::kSecond);
    EXPECT_TRUE(ok);
    return ue;
  }

  std::unique_ptr<core::Network> net_;
  agw::AccessGateway* agw0_ = nullptr;
  agw::AccessGateway* agw1_ = nullptr;
  ran::EnodeB* enb0_ = nullptr;
  ran::EnodeB* enb1_ = nullptr;
};

// §3.3: "The failure of a single AGW would impact the set of UEs currently
// served by the attached base stations, but has no impact on the rest of
// the network."
TEST_F(FaultTest, AgwFailureIsContainedToItsFaultDomain) {
  ran::UeLte& ue0 = attach_ue(*enb0_);
  ran::UeLte& ue1 = attach_ue(*enb1_);

  // "Fail" agw0's backhaul AND stop serving: simulate by cutting its
  // backhaul and clearing its data plane (a crash wipes the process).
  net_->set_backhaul_up(*agw0_, false);
  agw0_->sessiond().end_session(ue0.usim().imsi()).ok();

  // UE1 on agw1 is completely unaffected.
  net_->inject_downlink(*agw1_, *ue1.ip(), 1400, 100);
  net_->run_for(2 * sim::kSecond);
  EXPECT_EQ(ue1.traffic().rx_packets, 100u);

  // And new attaches on agw1 still work (orchestrator reachable there).
  const agw::SubscriberData sub = net_->provision_subscriber();
  net_->sync_all_config();
  ran::UeLte& ue2 = net_->add_ue_lte(sub);
  bool ok = false;
  ue2.attach(*enb1_, [&](const ran::AttachOutcome& o) { ok = o.success; });
  net_->run_for(20 * sim::kSecond);
  EXPECT_TRUE(ok);
}

// §3.3: checkpointed runtime state brings a backup instance into service.
TEST_F(FaultTest, BackupAgwResumesFromShippedCheckpoint) {
  ran::UeLte& ue = attach_ue(*enb0_);
  net_->inject_downlink(*agw0_, *ue.ip(), 1400, 50);
  net_->run_for(3 * sim::kSecond);
  agw0_->sessiond().poll_usage();
  const std::uint64_t used =
      agw0_->sessiond().find(ue.usim().imsi())->used_bytes;
  ASSERT_GT(used, 0u);

  // Wait for magmad to ship a checkpoint to the orchestrator.
  net_->run_for(2 * sim::kMinute);
  const auto image = net_->orchestrator().stored_checkpoint("gw0");
  ASSERT_TRUE(image.has_value());

  // Bring up a brand-new AGW from the image (the "backup cloud instance").
  agw::AccessGateway& backup = net_->add_agw(agw::virtual_xeon(4));
  ASSERT_TRUE(backup.restore(*image).ok());

  // The session exists on the backup with its usage intact, and the data
  // plane forwards for the UE immediately.
  const agw::SessionRecord* session =
      backup.sessiond().find(ue.usim().imsi());
  ASSERT_NE(session, nullptr);
  EXPECT_GE(session->used_bytes, used);
  EXPECT_EQ(backup.mobilityd().lookup(ue.usim().imsi()).value(), *ue.ip());

  datapath::PacketBatch batch;
  batch.packet = datapath::make_udp(common::Ipv4::from_octets(8, 8, 8, 8),
                                    *ue.ip(), 443, 40000, 1000);
  batch.count = 10;
  const auto result = backup.pipelined().pipeline().process_batch(
      batch, datapath::Direction::kDownlink, net_->kernel().now());
  EXPECT_EQ(result.verdict, datapath::Verdict::kForwarded);

  // The subscriber's config row is not in the image; the backup's first
  // config sync brings it back, with the SQN the image carried.
  const common::Imsi& imsi = ue.usim().imsi();
  EXPECT_FALSE(backup.subscriberdb().get(imsi).has_value());
  net_->run_for(5 * sim::kSecond);
  ASSERT_TRUE(backup.subscriberdb().get(imsi).has_value());
  EXPECT_EQ(backup.subscriberdb().get(imsi)->sqn,
            agw0_->subscriberdb().get(imsi)->sqn);
}

// §3.4: a checkpoint is runtime state. Subscriber secrets are config that
// orc8r holds durably, so neither the image nor orc8r's stored copy of it
// may carry them.
TEST_F(FaultTest, CheckpointCarriesNoSubscriberSecrets) {
  std::vector<agw::SubscriberData> subs;
  for (const char* password : {"wifi-secret-one", "wifi-secret-two"}) {
    subs.push_back(net_->provision_subscriber("default", password));
  }
  net_->sync_all_config();
  bool ok = false;
  net_->add_ue_lte(subs[0]).attach(
      *enb0_, [&](const ran::AttachOutcome& o) { ok = o.success; });
  net_->run_for(20 * sim::kSecond);
  ASSERT_TRUE(ok);
  ASSERT_EQ(agw0_->sessiond().active_sessions(), 1u);
  net_->run_for(2 * sim::kMinute);  // magmad ships a checkpoint
  const auto stored = net_->orchestrator().stored_checkpoint("gw0");
  ASSERT_TRUE(stored.has_value());

  const auto contains = [](const common::Bytes& image,
                           common::BytesView secret) {
    return std::search(image.begin(), image.end(), secret.begin(),
                       secret.end()) != image.end();
  };
  for (const common::Bytes& image : {agw0_->checkpoint(), *stored}) {
    for (const agw::SubscriberData& sub : subs) {
      EXPECT_FALSE(contains(image, sub.k)) << sub.imsi.value;
      EXPECT_FALSE(contains(image, sub.opc)) << sub.imsi.value;
      EXPECT_FALSE(contains(image, common::to_bytes(sub.wifi_password)))
          << sub.imsi.value;
    }
  }
}

// Failover of an LTE UE and an NR UE onto a backup restored from the
// checkpoint: the backup rejects their re-attach until its first config
// sync (no subscriber rows yet), then accepts it on the SQN the image
// carried. A rewound SQN would cost LTE a resync and fail NR outright (NR
// has no resync leg), so resyncs stays 0.
TEST_F(FaultTest, LteAndNrUesReattachToBackupAfterItsFirstSync) {
  ran::Gnb& gnb0 = net_->add_gnb(*agw0_);
  const agw::SubscriberData lte_sub = net_->provision_subscriber();
  const agw::SubscriberData nr_sub = net_->provision_subscriber();
  net_->sync_all_config();
  ran::UeLte& lte = net_->add_ue_lte(lte_sub);
  ran::UeNr& nr = net_->add_ue_nr(nr_sub);
  auto attach = [&](auto& ue, auto& ran_node) {
    ran::AttachOutcome outcome;
    outcome.failure_reason = "no outcome";
    ue.attach(ran_node, [&](const ran::AttachOutcome& o) { outcome = o; });
    net_->run_for(20 * sim::kSecond);
    return outcome;
  };
  ASSERT_TRUE(attach(lte, *enb0_).success);
  ASSERT_TRUE(attach(nr, gnb0).success);
  const common::Bytes image = agw0_->checkpoint();

  // The backup comes up with its backhaul down, so its first sync waits.
  agw::AccessGateway& backup = net_->add_agw(agw::virtual_xeon(4));
  net_->set_backhaul_up(backup, false);
  ASSERT_TRUE(backup.restore(image).ok());
  ran::EnodeB& enb = net_->add_enodeb(backup);
  ran::Gnb& gnb = net_->add_gnb(backup);
  net_->run_for(2 * sim::kSecond);  // S1 and NG setup

  EXPECT_FALSE(attach(lte, enb).success);
  EXPECT_FALSE(attach(nr, gnb).success);
  const agw::AccessdStats& accessd = backup.accessd().stats();
  EXPECT_EQ(accessd.attach_rejected[0], 1u);  // unknown subscriber (LTE)
  EXPECT_EQ(accessd.attach_rejected[1], 1u);  // and NR
  EXPECT_EQ(backup.magmad().stats().config_syncs_applied, 0u);

  net_->set_backhaul_up(backup, true);
  for (int i = 0; i < 60 && backup.magmad().stats().config_syncs_applied == 0;
       ++i) {
    net_->run_for(2 * sim::kSecond);
  }
  ASSERT_GT(backup.magmad().stats().config_syncs_applied, 0u);
  const ran::AttachOutcome lte_late = attach(lte, enb);
  const ran::AttachOutcome nr_late = attach(nr, gnb);
  EXPECT_TRUE(lte_late.success) << lte_late.failure_reason;
  EXPECT_TRUE(nr_late.success) << nr_late.failure_reason;
  EXPECT_EQ(backup.subscriberdb().stats().resyncs, 0u);
}

TEST_F(FaultTest, RestoredStateIsByteIdenticalOnRecheckpoint) {
  attach_ue(*enb0_);
  attach_ue(*enb0_);
  agw0_->sessiond().poll_usage();
  const common::Bytes image = agw0_->checkpoint();

  agw::AccessGateway& backup = net_->add_agw(agw::virtual_xeon(2));
  ASSERT_TRUE(backup.restore(image).ok());
  // Checkpoint of the restored instance equals the original image
  // (checkpointing is a pure function of the state it captures).
  EXPECT_EQ(backup.checkpoint(), image);
}

TEST_F(FaultTest, RestoreRejectsCorruptImage) {
  agw::AccessGateway& backup = net_->add_agw(agw::virtual_xeon(2));
  EXPECT_FALSE(backup.restore(common::to_bytes("not a checkpoint")).ok());
  common::Bytes truncated = agw0_->checkpoint();
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(backup.restore(truncated).ok());
}

// A UE whose AGW lost state simply re-attaches (§3.4: "most runtime state
// is both ephemeral and recoverable in the event of failure").
TEST_F(FaultTest, UeRecoversByReattaching) {
  ran::UeLte& ue = attach_ue(*enb0_);
  // Simulate total AGW state loss (crash without checkpoint restore):
  agw0_->sessiond().end_session(ue.usim().imsi()).ok();
  ASSERT_EQ(agw0_->sessiond().active_sessions(), 0u);

  // Downlink now drops (no session)...
  const auto before = agw0_->pipelined().pipeline().stats().dropped_no_match;
  net_->inject_downlink(*agw0_, *ue.ip(), 1400, 10);
  net_->run_for(1 * sim::kSecond);
  EXPECT_GT(agw0_->pipelined().pipeline().stats().dropped_no_match, before);

  // ...until the UE re-attaches.
  bool ok = false;
  ue.attach(*enb0_, [&](const ran::AttachOutcome& o) { ok = o.success; });
  net_->run_for(20 * sim::kSecond);
  ASSERT_TRUE(ok);
  net_->inject_downlink(*agw0_, *ue.ip(), 1400, 10);
  net_->run_for(1 * sim::kSecond);
  EXPECT_GT(ue.traffic().rx_packets, 0u);
}

// §3.2 device management: the orchestrator must notice a partitioned gateway
// within a bounded number of missed checkins, page on it, and clear cleanly
// once the gateway checks in again — all from the statusd gauges alone.
TEST(CheckinStaleness, AlertLifecycleOnPartitionAndRecovery) {
  core::NetworkConfig config;
  config.magmad.checkin_interval = 5 * sim::kSecond;
  config.statusd.sweep_interval = 2 * sim::kSecond;
  config.statusd.degraded_after_missed = 2;
  config.statusd.unreachable_after_missed = 5;
  core::Network net(config);
  agw::AccessGateway& agw0 = net.add_agw(agw::bare_metal_j3160());
  net.add_agw(agw::bare_metal_j3160());
  net.run_for(12 * sim::kSecond);

  const orc8r::Statusd& statusd = net.orchestrator().statusd();
  ASSERT_EQ(statusd.health("gw0"), orc8r::GatewayHealth::kHealthy);
  ASSERT_EQ(statusd.health("gw1"), orc8r::GatewayHealth::kHealthy);
  // The heartbeat carries the gateway's Service303 snapshot.
  const orc8r::GatewayStatus* gw0 = statusd.gateway("gw0");
  ASSERT_NE(gw0, nullptr);
  EXPECT_FALSE(gw0->services.empty());

  const auto firing = [&net](const std::string& rule, const std::string& gw) {
    const auto alerts = net.orchestrator().metrics().active_alerts();
    return std::any_of(alerts.begin(), alerts.end(),
                       [&](const orc8r::ActiveAlert& a) {
                         return a.rule == rule && a.gateway_id == gw;
                       });
  };
  EXPECT_FALSE(firing("gateway_degraded", "gw0"));

  // Partition gw0's backhaul. Detection bound: unreachable_after_missed ×
  // checkin_interval + sweep_interval past the last successful checkin.
  net.set_backhaul_up(agw0, false);
  net.run_for(14 * sim::kSecond);  // ~3 intervals missed
  EXPECT_EQ(statusd.health("gw0"), orc8r::GatewayHealth::kDegraded);
  EXPECT_TRUE(firing("gateway_degraded", "gw0"));
  EXPECT_FALSE(firing("gateway_unreachable", "gw0"));

  net.run_for(16 * sim::kSecond);  // past the unreachable bound
  EXPECT_EQ(statusd.health("gw0"), orc8r::GatewayHealth::kUnreachable);
  EXPECT_GE(statusd.missed_checkins("gw0"), 5u);
  EXPECT_TRUE(firing("gateway_unreachable", "gw0"));
  // The healthy gateway never pages.
  EXPECT_EQ(statusd.health("gw1"), orc8r::GatewayHealth::kHealthy);
  EXPECT_FALSE(firing("gateway_degraded", "gw1"));

  // Heal the partition: the next successful checkin recovers immediately and
  // the same gauges clear both alerts.
  net.set_backhaul_up(agw0, true);
  net.run_for(15 * sim::kSecond);
  EXPECT_EQ(statusd.health("gw0"), orc8r::GatewayHealth::kHealthy);
  EXPECT_GE(statusd.stats().recoveries, 1u);
  EXPECT_GE(statusd.stats().to_degraded, 1u);
  EXPECT_GE(statusd.stats().to_unreachable, 1u);
  EXPECT_FALSE(firing("gateway_degraded", "gw0"));
  EXPECT_FALSE(firing("gateway_unreachable", "gw0"));
  EXPECT_EQ(statusd.health("gw1"), orc8r::GatewayHealth::kHealthy);
}

}  // namespace
}  // namespace magma
