// Multi-RAT integration: 5G and WiFi UEs through the same AGW, plus the
// Table-1 claim — one set of generic services serves all three RATs.
#include <gtest/gtest.h>

#include "core/network.h"
#include "datapath/gtpu.h"

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

// As for LTE: the first attempt's T3510 must not deregister the second.
TEST_F(MultiRatTest, FiveGReattachDuringAttemptKeepsRegistration) {
  const agw::SubscriberData sub = net_->provision_subscriber();
  net_->sync_all_config();
  ran::UeNr& ue = net_->add_ue_nr(sub);
  ue.attach(*gnb_, [](const ran::AttachOutcome&) {});
  ran::AttachOutcome outcome;
  ue.attach(*gnb_, [&](const ran::AttachOutcome& o) { outcome = o; });
  net_->run_for(20 * sim::kSecond);  // past both guards
  ASSERT_TRUE(outcome.success) << outcome.failure_reason;
  EXPECT_TRUE(ue.registered());
  EXPECT_EQ(gnb_->active_ues(), 1);
  EXPECT_TRUE(ue.ip().has_value());
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

// The radio model of the three RAN nodes (§4.1): admission up to the
// node's capacity, one token bucket per direction, and byte counters that
// agree with what the UEs sent and received.
class RadioCell : public ::testing::Test {
 protected:
  // A 1 Mbps sector has a 12,500-byte burst (100 ms of capacity): a
  // 5-packet batch fits it, a 50-packet batch does not.
  static constexpr double kSmallSectorBps = 1e6;

  void SetUp() override {
    net_ = std::make_unique<core::Network>();
    agw_ = &net_->add_agw(agw::virtual_xeon(4));
  }

  // Provisions a subscriber and hands it to `attach`, which starts the
  // RAT's attach; returns the outcome after the network settles.
  template <class Attach>
  ran::AttachOutcome attach_one(Attach attach) {
    const agw::SubscriberData sub =
        net_->provision_subscriber("unlimited", "pw");
    net_->sync_all_config();
    ran::AttachOutcome outcome;
    outcome.failure_reason = "no-outcome";
    attach(sub, [&outcome](const ran::AttachOutcome& o) { outcome = o; });
    net_->run_for(20 * sim::kSecond);
    return outcome;
  }

  // In each direction, one batch inside the sector's burst and one far
  // above it.
  template <class Ue>
  void offer_traffic(Ue& ue) {
    net_->inject_downlink(*agw_, *ue.ip(), 1000, 5);
    net_->inject_downlink(*agw_, *ue.ip(), 1400, 50);
    net_->run_for(1 * sim::kSecond);
    ue.send_uplink(kInternet, 443, 1000, 5);
    ue.send_uplink(kInternet, 443, 1400, 50);
    net_->run_for(1 * sim::kSecond);
  }

  template <class Ue, class Stats>
  static void expect_radio_accounting(const Ue& ue, const Stats& stats) {
    EXPECT_GT(stats.dl_delivered_bytes, 0u);
    EXPECT_GT(stats.dl_dropped_radio_bytes, 0u);
    EXPECT_EQ(ue.traffic().rx_bytes, stats.dl_delivered_bytes);
    EXPECT_GT(stats.ul_forwarded_bytes, 0u);
    EXPECT_GT(stats.ul_dropped_radio_bytes, 0u);
    EXPECT_EQ(ue.traffic().tx_bytes,
              stats.ul_forwarded_bytes + stats.ul_dropped_radio_bytes);
  }

  // A GTP-U batch for a tunnel the cell never allocated.
  static datapath::PacketBatch unknown_teid_batch(common::Ipv4 cell) {
    datapath::PacketBatch batch;
    batch.packet = datapath::gtpu_encap(
        datapath::make_udp(kInternet, common::Ipv4::from_octets(172, 16, 0, 9),
                           443, 40000, 500),
        common::Teid{0xBAD}, common::Ipv4::from_octets(10, 1, 0, 1), cell);
    batch.count = 3;
    return batch;
  }

  static inline const common::Ipv4 kInternet =
      common::Ipv4::from_octets(8, 8, 8, 8);

  std::unique_ptr<core::Network> net_;
  agw::AccessGateway* agw_ = nullptr;
};

TEST_F(RadioCell, EnodebRefusesUeBeyondCapacity) {
  ran::EnodebConfig config;
  config.max_active_ues = 1;
  ran::EnodeB& enb = net_->add_enodeb(*agw_, config);
  const ran::AttachOutcome first = attach_one([&](auto& sub, auto done) {
    net_->add_ue_lte(sub).attach(enb, std::move(done));
  });
  const ran::AttachOutcome second = attach_one([&](auto& sub, auto done) {
    net_->add_ue_lte(sub).attach(enb, std::move(done));
  });
  EXPECT_TRUE(first.success) << first.failure_reason;
  EXPECT_FALSE(second.success);
  EXPECT_EQ(second.failure_reason, "rrc-capacity");
  EXPECT_EQ(enb.stats().rrc_rejects_capacity, 1u);
  EXPECT_EQ(enb.active_ues(), 1);
}

TEST_F(RadioCell, GnbRefusesUeBeyondCapacity) {
  ran::GnbConfig config;
  config.max_active_ues = 1;
  ran::Gnb& gnb = net_->add_gnb(*agw_, config);
  const ran::AttachOutcome first = attach_one([&](auto& sub, auto done) {
    net_->add_ue_nr(sub).attach(gnb, std::move(done));
  });
  const ran::AttachOutcome second = attach_one([&](auto& sub, auto done) {
    net_->add_ue_nr(sub).attach(gnb, std::move(done));
  });
  EXPECT_TRUE(first.success) << first.failure_reason;
  EXPECT_FALSE(second.success);
  EXPECT_EQ(second.failure_reason, "rrc-capacity");
  EXPECT_EQ(gnb.stats().rrc_rejects_capacity, 1u);
  EXPECT_EQ(gnb.active_ues(), 1);
}

TEST_F(RadioCell, WifiApRefusesClientBeyondCapacity) {
  ran::WifiApConfig config;
  config.max_clients = 1;
  ran::WifiAp& ap = net_->add_wifi_ap(*agw_, config);
  const ran::AttachOutcome first = attach_one([&](auto& sub, auto done) {
    net_->add_wifi_client(sub, "pw").connect(ap, std::move(done));
  });
  const ran::AttachOutcome second = attach_one([&](auto& sub, auto done) {
    net_->add_wifi_client(sub, "pw").connect(ap, std::move(done));
  });
  EXPECT_TRUE(first.success) << first.failure_reason;
  EXPECT_FALSE(second.success);
  EXPECT_EQ(ap.stats().associations, 1u);
  EXPECT_EQ(ap.stats().association_failures, 1u);
}

TEST_F(RadioCell, EnodebRadioAccounting) {
  ran::EnodebConfig config;
  config.dl_capacity_bps = kSmallSectorBps;
  config.ul_capacity_bps = kSmallSectorBps;
  ran::EnodeB& enb = net_->add_enodeb(*agw_, config);
  ran::UeLte* ue = nullptr;
  ASSERT_TRUE(attach_one([&](auto& sub, auto done) {
                ue = &net_->add_ue_lte(sub);
                ue->attach(enb, std::move(done));
              }).success);
  offer_traffic(*ue);
  expect_radio_accounting(*ue, enb.stats());
}

TEST_F(RadioCell, GnbRadioAccounting) {
  ran::GnbConfig config;
  config.dl_capacity_bps = kSmallSectorBps;
  config.ul_capacity_bps = kSmallSectorBps;
  ran::Gnb& gnb = net_->add_gnb(*agw_, config);
  ran::UeNr* ue = nullptr;
  ASSERT_TRUE(attach_one([&](auto& sub, auto done) {
                ue = &net_->add_ue_nr(sub);
                ue->attach(gnb, std::move(done));
              }).success);
  offer_traffic(*ue);
  expect_radio_accounting(*ue, gnb.stats());
}

TEST_F(RadioCell, WifiApRadioAccounting) {
  ran::WifiApConfig config;
  config.dl_capacity_bps = kSmallSectorBps;
  config.ul_capacity_bps = kSmallSectorBps;
  ran::WifiAp& ap = net_->add_wifi_ap(*agw_, config);
  ran::WifiClient* client = nullptr;
  ASSERT_TRUE(attach_one([&](auto& sub, auto done) {
                client = &net_->add_wifi_client(sub, "pw");
                client->connect(ap, std::move(done));
              }).success);
  offer_traffic(*client);
  expect_radio_accounting(*client, ap.stats());
}

TEST_F(RadioCell, EnodebDropsUnknownTeid) {
  ran::EnodeB& enb = net_->add_enodeb(*agw_);
  net_->run_for(2 * sim::kSecond);
  enb.deliver_downlink(unknown_teid_batch(enb.config().address));
  EXPECT_EQ(enb.stats().unknown_teid_drops, 1u);
  EXPECT_EQ(enb.stats().dl_delivered_bytes, 0u);
  EXPECT_EQ(enb.stats().dl_dropped_radio_bytes, 0u);
}

TEST_F(RadioCell, GnbDropsUnknownTeid) {
  ran::Gnb& gnb = net_->add_gnb(*agw_);
  net_->run_for(2 * sim::kSecond);
  gnb.deliver_downlink(unknown_teid_batch(gnb.config().address));
  EXPECT_EQ(gnb.stats().unknown_teid_drops, 1u);
  EXPECT_EQ(gnb.stats().dl_delivered_bytes, 0u);
  EXPECT_EQ(gnb.stats().dl_dropped_radio_bytes, 0u);
}

}  // namespace
}  // namespace magma
