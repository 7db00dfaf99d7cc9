// End-to-end LTE integration: UE ↔ eNodeB ↔ AGW ↔ orchestrator.
//
// Exercises the full §3.1 attach example: S1 setup, NAS attach with real
// EPS-AKA mutual authentication, security mode, bearer establishment, data
// plane programming, user traffic both directions, and detach.
#include <gtest/gtest.h>

#include "core/network.h"
#include "core/workload.h"

namespace magma {
namespace {

class LteAttachTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<core::Network>();
    agw_ = &net_->add_agw(agw::bare_metal_j3160());
    enb_ = &net_->add_enodeb(*agw_);
    net_->run_for(2 * sim::kSecond);  // S1 setup, first config sync
    ASSERT_TRUE(enb_->s1_ready());
  }

  ran::AttachOutcome attach(ran::UeLte& ue) {
    ran::AttachOutcome result;
    bool done = false;
    ue.attach(*enb_, [&](const ran::AttachOutcome& outcome) {
      result = outcome;
      done = true;
    });
    net_->run_for(20 * sim::kSecond);
    EXPECT_TRUE(done);
    return result;
  }

  std::unique_ptr<core::Network> net_;
  agw::AccessGateway* agw_ = nullptr;
  ran::EnodeB* enb_ = nullptr;
};

TEST_F(LteAttachTest, SuccessfulAttachEstablishesSession) {
  const agw::SubscriberData sub = net_->provision_subscriber();
  net_->sync_all_config();

  ran::UeLte& ue = net_->add_ue_lte(sub);
  const ran::AttachOutcome outcome = attach(ue);
  ASSERT_TRUE(outcome.success) << outcome.failure_reason;
  EXPECT_TRUE(ue.registered());
  ASSERT_TRUE(ue.ip().has_value());

  // Runtime state landed in the right places.
  EXPECT_EQ(agw_->sessiond().active_sessions(), 1u);
  const agw::SessionRecord* session = agw_->sessiond().find(sub.imsi);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->flows.ue_ip, *ue.ip());
  EXPECT_TRUE(agw_->pipelined().has_session(session->id.value));
  EXPECT_EQ(agw_->accessd().stats().attach_completed[0], 1u);

  // Attach latency is sane (well under the guard timer).
  EXPECT_GT(outcome.latency, 0);
  EXPECT_LT(outcome.latency, 10 * sim::kSecond);
}

TEST_F(LteAttachTest, UnknownSubscriberIsRejected) {
  // Provisioned at the orchestrator? No — never provisioned at all.
  agw::SubscriberData ghost;
  ghost.imsi = common::Imsi::from_digits(1010009999999ULL);
  ran::UeLte& ue = net_->add_ue_lte(ghost);
  const ran::AttachOutcome outcome = attach(ue);
  EXPECT_FALSE(outcome.success);
  EXPECT_FALSE(ue.registered());
  EXPECT_EQ(agw_->sessiond().active_sessions(), 0u);
  EXPECT_EQ(agw_->accessd().stats().attach_rejected[0], 1u);
}

TEST_F(LteAttachTest, WrongKeyFailsAuthentication) {
  agw::SubscriberData sub = net_->provision_subscriber();
  net_->sync_all_config();
  // The UE's USIM holds a different key than the network provisioned.
  sub.k[0] ^= 0xFF;
  ran::UeLte& ue = net_->add_ue_lte(sub);
  const ran::AttachOutcome outcome = attach(ue);
  EXPECT_FALSE(outcome.success);
  // The UE detects the mismatch first: AUTN's MAC-A fails under its key.
  EXPECT_EQ(outcome.failure_reason, "autn-mac-failure");
  EXPECT_EQ(agw_->sessiond().active_sessions(), 0u);
}

TEST_F(LteAttachTest, SqnResyncViaAuts) {
  const agw::SubscriberData sub = net_->provision_subscriber();
  net_->sync_all_config();

  ran::UeLte& ue = net_->add_ue_lte(sub);
  // USIM believes it has seen SQN up to 50; the network starts at 0, so the
  // first challenge is stale and triggers AUTS resynchronisation.
  ue.usim().force_sqn(50);
  const ran::AttachOutcome outcome = attach(ue);
  ASSERT_TRUE(outcome.success) << outcome.failure_reason;
  EXPECT_GE(agw_->subscriberdb().stats().resyncs, 1u);
  // After resync the network SQN jumped past the USIM's.
  EXPECT_GT(agw_->subscriberdb().get(sub.imsi)->sqn, 50u);
}

TEST_F(LteAttachTest, TrafficFlowsBothDirections) {
  const agw::SubscriberData sub = net_->provision_subscriber();
  net_->sync_all_config();
  ran::UeLte& ue = net_->add_ue_lte(sub);
  ASSERT_TRUE(attach(ue).success);

  // Downlink: Internet -> AGW -> (GTP) -> eNodeB -> UE.
  net_->inject_downlink(*agw_, *ue.ip(), 1400, 100);
  net_->run_for(1 * sim::kSecond);
  EXPECT_GT(ue.traffic().rx_bytes, 0u);
  EXPECT_EQ(ue.traffic().rx_packets, 100u);

  // Uplink: UE -> eNodeB -> (GTP) -> AGW -> Internet.
  const std::uint64_t internet_before = net_->internet_rx_bytes();
  ue.send_uplink(common::Ipv4::from_octets(8, 8, 8, 8), 443, 1000, 50);
  net_->run_for(1 * sim::kSecond);
  EXPECT_GT(net_->internet_rx_bytes(), internet_before);

  // Usage accounting saw the traffic.
  agw_->sessiond().poll_usage();
  const agw::SessionRecord* session = agw_->sessiond().find(sub.imsi);
  ASSERT_NE(session, nullptr);
  EXPECT_GT(session->used_bytes, 0u);
}

TEST_F(LteAttachTest, TrafficForUnknownUeIsDropped) {
  const agw::SubscriberData sub = net_->provision_subscriber();
  net_->sync_all_config();
  ran::UeLte& ue = net_->add_ue_lte(sub);
  ASSERT_TRUE(attach(ue).success);

  const auto before = agw_->pipelined().pipeline().stats().dropped_no_match;
  // Downlink for an address with no session: table miss, dropped.
  net_->inject_downlink(*agw_, common::Ipv4::from_octets(172, 16, 0, 200),
                        1400, 10);
  net_->run_for(1 * sim::kSecond);
  EXPECT_GT(agw_->pipelined().pipeline().stats().dropped_no_match, before);
}

TEST_F(LteAttachTest, DetachTearsDownSession) {
  const agw::SubscriberData sub = net_->provision_subscriber();
  net_->sync_all_config();
  ran::UeLte& ue = net_->add_ue_lte(sub);
  ASSERT_TRUE(attach(ue).success);
  ASSERT_EQ(agw_->sessiond().active_sessions(), 1u);

  ue.detach(false);
  net_->run_for(5 * sim::kSecond);
  EXPECT_EQ(agw_->sessiond().active_sessions(), 0u);
  EXPECT_EQ(agw_->pipelined().session_count(), 0u);
  EXPECT_EQ(agw_->accessd().stats().detaches, 1u);
  // Address returned to the pool (after quarantine it can be reused).
  EXPECT_EQ(agw_->mobilityd().allocated(), 0u);
}

TEST_F(LteAttachTest, ReattachAfterDetachWorks) {
  const agw::SubscriberData sub = net_->provision_subscriber();
  net_->sync_all_config();
  ran::UeLte& ue = net_->add_ue_lte(sub);
  ASSERT_TRUE(attach(ue).success);
  ue.detach(false);
  net_->run_for(5 * sim::kSecond);

  const ran::AttachOutcome second = attach(ue);
  EXPECT_TRUE(second.success) << second.failure_reason;
  EXPECT_EQ(agw_->sessiond().active_sessions(), 1u);
}

// A second attach while the first is pending replaces it: the first
// attempt's T3410 must not tear the new registration down when it expires.
TEST_F(LteAttachTest, ReattachDuringAttemptKeepsRegistration) {
  const agw::SubscriberData sub = net_->provision_subscriber();
  net_->sync_all_config();
  ran::UeLte& ue = net_->add_ue_lte(sub);
  ue.attach(*enb_, [](const ran::AttachOutcome&) {});
  const ran::AttachOutcome second = attach(ue);  // runs past both guards
  ASSERT_TRUE(second.success) << second.failure_reason;
  EXPECT_TRUE(ue.registered());
  EXPECT_EQ(enb_->active_ues(), 1);
  EXPECT_TRUE(ue.ip().has_value());
}

TEST_F(LteAttachTest, EnodebCapacityLimitsActiveUes) {
  // A tiny cell: 3 active UEs max.
  ran::EnodebConfig small;
  small.max_active_ues = 3;
  ran::EnodeB& cell = net_->add_enodeb(*agw_, small);
  net_->run_for(1 * sim::kSecond);

  std::vector<agw::SubscriberData> subs;
  for (int i = 0; i < 4; ++i) subs.push_back(net_->provision_subscriber());
  net_->sync_all_config();

  int successes = 0;
  int capacity_rejects = 0;
  for (int i = 0; i < 4; ++i) {
    ran::UeLte& ue = net_->add_ue_lte(subs[static_cast<std::size_t>(i)]);
    bool done = false;
    ran::AttachOutcome outcome;
    ue.attach(cell, [&](const ran::AttachOutcome& o) {
      outcome = o;
      done = true;
    });
    net_->run_for(20 * sim::kSecond);
    ASSERT_TRUE(done);
    if (outcome.success) {
      ++successes;
    } else if (outcome.failure_reason == "rrc-capacity") {
      ++capacity_rejects;
    }
  }
  EXPECT_EQ(successes, 3);
  EXPECT_EQ(capacity_rejects, 1);
}

TEST_F(LteAttachTest, MultipleUesConcurrently) {
  std::vector<agw::SubscriberData> subs;
  for (int i = 0; i < 10; ++i) subs.push_back(net_->provision_subscriber());
  net_->sync_all_config();

  std::vector<ran::UeLte*> ues;
  for (const auto& sub : subs) ues.push_back(&net_->add_ue_lte(sub));

  core::AttachRamp ramp(*net_, ues, *enb_, 2.0);
  net_->run_for(60 * sim::kSecond);
  EXPECT_EQ(ramp.completed(), 10u);
  EXPECT_EQ(ramp.succeeded(), 10u);
  EXPECT_EQ(agw_->sessiond().active_sessions(), 10u);

  // Every UE got a distinct address.
  std::set<std::uint32_t> addrs;
  for (ran::UeLte* ue : ues) {
    ASSERT_TRUE(ue->ip().has_value());
    addrs.insert(ue->ip()->addr);
  }
  EXPECT_EQ(addrs.size(), 10u);
}

}  // namespace
}  // namespace magma
