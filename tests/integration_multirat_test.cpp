// Multi-RAT integration: 5G and WiFi UEs through the same AGW, plus the
// Table-1 claim — one set of generic services serves all three RATs.
#include <gtest/gtest.h>

#include "core/network.h"

namespace magma {
namespace {

class MultiRatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<core::Network>();
    agw_ = &net_->add_agw(agw::virtual_xeon(4));
    enb_ = &net_->add_enodeb(*agw_);
    gnb_ = &net_->add_gnb(*agw_);
    ap_ = &net_->add_wifi_ap(*agw_);
    net_->run_for(2 * sim::kSecond);
  }

  std::unique_ptr<core::Network> net_;
  agw::AccessGateway* agw_ = nullptr;
  ran::EnodeB* enb_ = nullptr;
  ran::Gnb* gnb_ = nullptr;
  ran::WifiAp* ap_ = nullptr;
};

TEST_F(MultiRatTest, FiveGRegistrationAndPduSession) {
  const agw::SubscriberData sub = net_->provision_subscriber();
  net_->sync_all_config();
  ran::UeNr& ue = net_->add_ue_nr(sub);

  ran::AttachOutcome outcome;
  bool done = false;
  ue.attach(*gnb_, [&](const ran::AttachOutcome& o) {
    outcome = o;
    done = true;
  });
  net_->run_for(20 * sim::kSecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.success) << outcome.failure_reason;
  EXPECT_TRUE(ue.registered());
  EXPECT_TRUE(ue.session_up());

  // 5G separates the legs: registration accepted AND a PDU session.
  EXPECT_EQ(agw_->nr().stats().registrations_accepted, 1u);
  EXPECT_EQ(agw_->nr().stats().pdu_sessions_established, 1u);
  EXPECT_EQ(agw_->sessiond().active_sessions(), 1u);

  // Traffic flows.
  net_->inject_downlink(*agw_, *ue.ip(), 1400, 50);
  net_->run_for(1 * sim::kSecond);
  EXPECT_EQ(ue.traffic().rx_packets, 50u);
  ue.send_uplink(common::Ipv4::from_octets(8, 8, 8, 8), 443, 1000, 20);
  net_->run_for(1 * sim::kSecond);
  EXPECT_GT(net_->internet_rx_bytes(), 0u);
}

TEST_F(MultiRatTest, FiveGDeregistration) {
  const agw::SubscriberData sub = net_->provision_subscriber();
  net_->sync_all_config();
  ran::UeNr& ue = net_->add_ue_nr(sub);
  bool done = false;
  ue.attach(*gnb_, [&](const ran::AttachOutcome& o) { done = o.success; });
  net_->run_for(20 * sim::kSecond);
  ASSERT_TRUE(done);

  ue.detach(false);
  net_->run_for(5 * sim::kSecond);
  EXPECT_EQ(agw_->sessiond().active_sessions(), 0u);
  EXPECT_EQ(agw_->nr().stats().deregistrations, 1u);
}

TEST_F(MultiRatTest, FiveGReRegistersAfterOperatorEdit) {
  // Regression: the delta sync of an edited subscriber overwrote the AGW's
  // SQN with orc8r's stale copy. The USIM then refused the next challenge
  // as a replay, and the NR front-end has no resync leg to recover.
  agw::SubscriberData sub = net_->provision_subscriber();
  net_->sync_all_config();
  ran::UeNr& ue = net_->add_ue_nr(sub);
  auto register_ue = [&] {
    ran::AttachOutcome outcome;
    ue.attach(*gnb_, [&](const ran::AttachOutcome& o) { outcome = o; });
    net_->run_for(20 * sim::kSecond);
    return outcome;
  };
  ASSERT_TRUE(register_ue().success);
  ue.detach(false);
  net_->run_for(5 * sim::kSecond);

  sub.wifi_password = "edited";
  net_->orchestrator().add_subscriber(sub);
  const auto deltas = agw_->magmad().stats().config_delta_syncs;
  net_->sync_all_config();
  EXPECT_GT(agw_->magmad().stats().config_delta_syncs, deltas);

  const ran::AttachOutcome again = register_ue();
  EXPECT_TRUE(again.success) << again.failure_reason;
}

TEST_F(MultiRatTest, WifiChapAssociation) {
  const agw::SubscriberData sub =
      net_->provision_subscriber("unlimited", "secret123");
  net_->sync_all_config();
  ran::WifiClient& client = net_->add_wifi_client(sub, "secret123");

  ran::AttachOutcome outcome;
  bool done = false;
  client.connect(*ap_, [&](const ran::AttachOutcome& o) {
    outcome = o;
    done = true;
  });
  net_->run_for(10 * sim::kSecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.success) << outcome.failure_reason;
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(ap_->stats().associations, 1u);
  EXPECT_EQ(agw_->wifi().stats().accepts, 1u);
  EXPECT_GE(agw_->wifi().stats().acct_starts, 1u);

  // WiFi traffic (untunneled) flows through the same datapath.
  net_->inject_downlink(*agw_, *client.ip(), 1400, 30);
  net_->run_for(1 * sim::kSecond);
  EXPECT_EQ(client.traffic().rx_packets, 30u);
  client.send_uplink(common::Ipv4::from_octets(8, 8, 8, 8), 80, 900, 10);
  net_->run_for(1 * sim::kSecond);
  EXPECT_GT(net_->internet_rx_bytes(), 0u);
}

TEST_F(MultiRatTest, WifiWrongPasswordRejected) {
  const agw::SubscriberData sub =
      net_->provision_subscriber("unlimited", "rightpw");
  net_->sync_all_config();
  ran::WifiClient& client = net_->add_wifi_client(sub, "wrongpw");
  ran::AttachOutcome outcome;
  bool done = false;
  client.connect(*ap_, [&](const ran::AttachOutcome& o) {
    outcome = o;
    done = true;
  });
  net_->run_for(10 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(agw_->wifi().stats().rejects, 1u);
}

TEST_F(MultiRatTest, WifiDisconnectEndsSession) {
  const agw::SubscriberData sub =
      net_->provision_subscriber("unlimited", "pw");
  net_->sync_all_config();
  ran::WifiClient& client = net_->add_wifi_client(sub, "pw");
  bool done = false;
  client.connect(*ap_, [&](const ran::AttachOutcome& o) { done = o.success; });
  net_->run_for(10 * sim::kSecond);
  ASSERT_TRUE(done);
  ASSERT_EQ(agw_->sessiond().active_sessions(), 1u);

  client.disconnect();
  net_->run_for(5 * sim::kSecond);
  EXPECT_EQ(agw_->sessiond().active_sessions(), 0u);
  EXPECT_GE(agw_->wifi().stats().acct_stops, 1u);
}

// The Table-1 claim, measured: one UE per RAT, all three driving the SAME
// generic services.
TEST_F(MultiRatTest, AllThreeRatsShareGenericServices) {
  const agw::SubscriberData lte_sub = net_->provision_subscriber();
  const agw::SubscriberData nr_sub = net_->provision_subscriber();
  const agw::SubscriberData wifi_sub =
      net_->provision_subscriber("unlimited", "pw");
  net_->sync_all_config();

  int successes = 0;
  ran::UeLte& lte_ue = net_->add_ue_lte(lte_sub);
  lte_ue.attach(*enb_, [&](const ran::AttachOutcome& o) {
    successes += o.success ? 1 : 0;
  });
  ran::UeNr& nr_ue = net_->add_ue_nr(nr_sub);
  nr_ue.attach(*gnb_, [&](const ran::AttachOutcome& o) {
    successes += o.success ? 1 : 0;
  });
  ran::WifiClient& wifi_client = net_->add_wifi_client(wifi_sub, "pw");
  wifi_client.connect(*ap_, [&](const ran::AttachOutcome& o) {
    successes += o.success ? 1 : 0;
  });
  net_->run_for(30 * sim::kSecond);

  EXPECT_EQ(successes, 3);
  const agw::AccessdStats& stats = agw_->accessd().stats();
  EXPECT_EQ(stats.attach_completed[0], 1u);  // LTE
  EXPECT_EQ(stats.attach_completed[1], 1u);  // 5G
  EXPECT_EQ(stats.attach_completed[2], 1u);  // WiFi
  // One shared sessiond, one shared mobilityd pool, one subscriberdb.
  EXPECT_EQ(agw_->sessiond().active_sessions(), 3u);
  EXPECT_EQ(agw_->mobilityd().allocated(), 3u);
  // All three authenticated through the same subscriber database.
  EXPECT_GE(agw_->subscriberdb().stats().vectors_generated, 3u);
}

TEST_F(MultiRatTest, SameSubscriberMovesBetweenRats) {
  // §2.2: one subscriber record serves any access type. The same IMSI
  // attaches via LTE, detaches, then connects via WiFi.
  const agw::SubscriberData sub =
      net_->provision_subscriber("unlimited", "pw");
  net_->sync_all_config();

  ran::UeLte& lte_ue = net_->add_ue_lte(sub);
  bool lte_ok = false;
  lte_ue.attach(*enb_, [&](const ran::AttachOutcome& o) { lte_ok = o.success; });
  net_->run_for(20 * sim::kSecond);
  ASSERT_TRUE(lte_ok);
  lte_ue.detach(false);
  net_->run_for(5 * sim::kSecond);

  ran::WifiClient& wifi_client = net_->add_wifi_client(sub, "pw");
  bool wifi_ok = false;
  wifi_client.connect(
      *ap_, [&](const ran::AttachOutcome& o) { wifi_ok = o.success; });
  net_->run_for(10 * sim::kSecond);
  EXPECT_TRUE(wifi_ok);
  EXPECT_EQ(agw_->sessiond().active_sessions(), 1u);
}

}  // namespace
}  // namespace magma
