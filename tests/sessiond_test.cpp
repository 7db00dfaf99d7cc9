// Session & policy management: lifecycle, tier transitions, caps, OCS
// quota, checkpoints.
#include <gtest/gtest.h>

#include "agw/sessiond.h"
#include "ocs/ocs.h"
#include "rpc/rpc.h"

namespace magma::agw {
namespace {

namespace dp = magma::datapath;

const common::Ipv4 kUe = common::Ipv4::from_octets(172, 16, 0, 7);
const common::Ipv4 kServer = common::Ipv4::from_octets(8, 8, 8, 8);

common::Imsi imsi(std::uint64_t n) {
  return common::Imsi::from_digits(1010000000000ULL + n);
}

class SessiondTest : public ::testing::Test {
 protected:
  Sessiond::CreateRequest request(std::uint64_t n, core::Policy policy) {
    Sessiond::CreateRequest req;
    req.imsi = imsi(n);
    req.ue_ip = common::Ipv4{kUe.addr + static_cast<std::uint32_t>(n)};
    req.agw_teid_ul = common::Teid{static_cast<std::uint32_t>(0x100 + n)};
    req.enb_teid_dl = common::Teid{static_cast<std::uint32_t>(0x200 + n)};
    req.enb_address = common::Ipv4::from_octets(10, 100, 0, 1);
    req.policy = std::move(policy);
    return req;
  }

  // Pass `bytes` of downlink through the data plane for session n.
  std::uint64_t offer_downlink(std::uint64_t n, std::uint64_t bytes) {
    const common::Ipv4 ue{kUe.addr + static_cast<std::uint32_t>(n)};
    std::uint64_t forwarded = 0;
    const std::uint32_t payload = 1400;
    const dp::Packet proto = dp::make_udp(kServer, ue, 443, 1000, payload);
    std::uint64_t remaining = bytes;
    while (remaining > 0) {
      dp::PacketBatch batch;
      batch.packet = proto;
      batch.count = std::max<std::uint64_t>(
          1, std::min<std::uint64_t>(remaining / proto.wire_size(), 64));
      auto r = pipelined_.pipeline().process_batch(
          batch, dp::Direction::kDownlink, kernel_.now());
      if (r.verdict == dp::Verdict::kForwarded) forwarded += batch.bytes();
      if (batch.bytes() >= remaining) break;
      remaining -= batch.bytes();
    }
    return forwarded;
  }

  sim::Kernel kernel_;
  Pipelined pipelined_;
  Sessiond sessiond_{kernel_, pipelined_, nullptr};
};

TEST_F(SessiondTest, CreateFindEnd) {
  auto id = sessiond_.create_session(request(1, core::unlimited_policy()));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(sessiond_.active_sessions(), 1u);
  ASSERT_NE(sessiond_.find(imsi(1)), nullptr);
  EXPECT_TRUE(pipelined_.has_session(id.value().value));

  ASSERT_TRUE(sessiond_.end_session(imsi(1)).ok());
  EXPECT_EQ(sessiond_.active_sessions(), 0u);
  EXPECT_FALSE(pipelined_.has_session(id.value().value));
  EXPECT_EQ(sessiond_.end_session(imsi(1)).code(),
            common::ErrorCode::kNotFound);
}

TEST_F(SessiondTest, RecreateReplacesExistingSession) {
  auto first = sessiond_.create_session(request(1, core::unlimited_policy()));
  auto second = sessiond_.create_session(request(1, core::unlimited_policy()));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(sessiond_.active_sessions(), 1u);
  EXPECT_FALSE(pipelined_.has_session(first.value().value));
  EXPECT_TRUE(pipelined_.has_session(second.value().value));
}

TEST_F(SessiondTest, UsagePollingAccumulates) {
  ASSERT_TRUE(sessiond_.create_session(request(1, core::unlimited_policy())).ok());
  offer_downlink(1, 100'000);
  sessiond_.poll_usage();
  const std::uint64_t used1 = sessiond_.find(imsi(1))->used_bytes;
  EXPECT_GT(used1, 50'000u);
  offer_downlink(1, 100'000);
  sessiond_.poll_usage();
  EXPECT_GT(sessiond_.find(imsi(1))->used_bytes, used1);
}

TEST_F(SessiondTest, TierTransitionThrottles) {
  // 10 Mbps until 50 KB, then 1 Mbps (the §2.1 example policy).
  core::Policy policy = core::tiered_policy(10'000'000, 50'000, 1'000'000);
  ASSERT_TRUE(sessiond_.create_session(request(1, policy)).ok());
  const SessionRecord* session = sessiond_.find(imsi(1));
  EXPECT_EQ(session->flows.dl_rate_bps, 10'000'000u);

  offer_downlink(1, 80'000);  // exceed the first tier
  sessiond_.poll_usage();
  session = sessiond_.find(imsi(1));
  EXPECT_EQ(session->flows.dl_rate_bps, 1'000'000u);
  EXPECT_EQ(sessiond_.stats().tier_transitions, 1u);
  // Usage survived the rule reinstall.
  EXPECT_GE(session->used_bytes, 50'000u);
}

TEST_F(SessiondTest, HardCapBlocksSession) {
  core::Policy policy;
  policy.name = "capped";
  policy.charging = core::ChargingMode::kCapped;
  policy.tiers = {core::PolicyTier{0, 0, 60'000}};
  ASSERT_TRUE(sessiond_.create_session(request(1, policy)).ok());

  offer_downlink(1, 100'000);
  sessiond_.poll_usage();
  EXPECT_TRUE(sessiond_.find(imsi(1))->flows.blocked);
  EXPECT_EQ(sessiond_.stats().caps_enforced, 1u);

  // Further traffic is dropped by policy.
  const auto before = pipelined_.pipeline().stats().dropped_by_policy;
  offer_downlink(1, 10'000);
  EXPECT_GT(pipelined_.pipeline().stats().dropped_by_policy, before);
}

TEST_F(SessiondTest, IntervalResetUnblocks) {
  core::Policy policy;
  policy.name = "capped-daily";
  policy.charging = core::ChargingMode::kCapped;
  policy.tiers = {core::PolicyTier{0, 0, 60'000}};
  policy.interval_ns = 10 * sim::kSecond;  // short interval for the test
  ASSERT_TRUE(sessiond_.create_session(request(1, policy)).ok());

  offer_downlink(1, 100'000);
  sessiond_.poll_usage();
  ASSERT_TRUE(sessiond_.find(imsi(1))->flows.blocked);

  kernel_.run_until(11 * sim::kSecond);
  sessiond_.poll_usage();
  EXPECT_FALSE(sessiond_.find(imsi(1))->flows.blocked);
}

TEST_F(SessiondTest, CheckpointRestoreRebuildsDataPlane) {
  ASSERT_TRUE(sessiond_.create_session(request(1, core::unlimited_policy())).ok());
  ASSERT_TRUE(sessiond_.create_session(request(2, core::unlimited_policy())).ok());
  offer_downlink(1, 50'000);
  sessiond_.poll_usage();
  const std::uint64_t used = sessiond_.find(imsi(1))->used_bytes;
  rpc::Writer w;
  sessiond_.checkpoint(w);
  const common::Bytes image = std::move(w).take();

  // A fresh instance (backup AGW) restores from the image.
  Pipelined pipelined2;
  Sessiond restored(kernel_, pipelined2, nullptr);
  ASSERT_TRUE(restored.restore(image).ok());
  EXPECT_EQ(restored.active_sessions(), 2u);
  EXPECT_EQ(restored.find(imsi(1))->used_bytes, used);
  EXPECT_EQ(pipelined2.session_count(), 2u);

  // Traffic keeps flowing on the restored instance, and usage continues
  // from the checkpointed value, not from zero.
  const common::Ipv4 ue{kUe.addr + 1};
  auto r = pipelined2.pipeline().process(
      dp::make_udp(kServer, ue, 443, 1000, 100), dp::Direction::kDownlink,
      kernel_.now());
  EXPECT_EQ(r.verdict, dp::Verdict::kForwarded);
  restored.poll_usage();
  EXPECT_GT(restored.find(imsi(1))->used_bytes, used);
}

TEST_F(SessiondTest, RestoreRejectsCorruptImage) {
  Pipelined pipelined2;
  Sessiond restored(kernel_, pipelined2, nullptr);
  EXPECT_FALSE(restored.restore(common::to_bytes("garbage")).ok());
}

TEST_F(SessiondTest, UpdateBearerRetargetsDownlink) {
  ASSERT_TRUE(sessiond_.create_session(request(1, core::unlimited_policy())).ok());
  const common::Teid new_teid{0x999};
  const common::Ipv4 new_enb = common::Ipv4::from_octets(10, 100, 0, 2);
  ASSERT_TRUE(sessiond_.update_bearer(imsi(1), new_teid, new_enb).ok());

  auto r = pipelined_.pipeline().process(
      dp::make_udp(kServer, common::Ipv4{kUe.addr + 1}, 443, 1000, 100),
      dp::Direction::kDownlink, 0);
  ASSERT_EQ(r.verdict, dp::Verdict::kForwarded);
  ASSERT_TRUE(r.packet.gtpu.has_value());
  EXPECT_EQ(r.packet.gtpu->teid, new_teid);
  EXPECT_EQ(r.packet.outer_ip->dst, new_enb);
}

// --- OCS quota ------------------------------------------------------------------

class SessiondOcsTest : public ::testing::Test {
 protected:
  SessiondOcsTest() {
    ocs_.bind(ocs_link_.server);
    sessiond_.set_ocs(&ocs_link_.client);
  }

  Sessiond::CreateRequest request(std::uint64_t n, std::uint64_t quota) {
    Sessiond::CreateRequest req;
    req.imsi = imsi(n);
    req.ue_ip = common::Ipv4{kUe.addr + static_cast<std::uint32_t>(n)};
    req.agw_teid_ul = common::Teid{static_cast<std::uint32_t>(0x100 + n)};
    req.enb_teid_dl = common::Teid{static_cast<std::uint32_t>(0x200 + n)};
    req.enb_address = common::Ipv4::from_octets(10, 100, 0, 1);
    req.policy = core::quota_billed_policy(quota);
    return req;
  }

  std::uint64_t offer_downlink(std::uint64_t n, std::uint64_t bytes) {
    const common::Ipv4 ue{kUe.addr + static_cast<std::uint32_t>(n)};
    dp::PacketBatch batch;
    batch.packet = dp::make_udp(kServer, ue, 443, 1000, 1400);
    batch.count = bytes / batch.packet.wire_size();
    auto r = pipelined_.pipeline().process_batch(
        batch, dp::Direction::kDownlink, kernel_.now());
    return r.verdict == dp::Verdict::kForwarded ? batch.bytes() : 0;
  }

  sim::Kernel kernel_;
  sim::Rng rng_{17};
  rpc::RpcLink ocs_link_{kernel_, rng_, "ocs-server", "ocs-client",
                         sim::lan_link()};
  ocs::Ocs ocs_;
  Pipelined pipelined_;
  Sessiond sessiond_{kernel_, pipelined_, nullptr};
};

TEST_F(SessiondOcsTest, QuotaGrantedAtSessionStart) {
  ocs_.create_account(imsi(1), 10 << 20);
  ASSERT_TRUE(sessiond_.create_session(request(1, 1 << 20)).ok());
  kernel_.run_until(kernel_.now() + sim::kSecond);
  EXPECT_EQ(sessiond_.find(imsi(1))->quota_granted, 1u << 20);
  EXPECT_EQ(ocs_.account(imsi(1))->outstanding_bytes, 1u << 20);
}

TEST_F(SessiondOcsTest, QuotaToppedUpBeforeExhaustion) {
  ocs_.create_account(imsi(1), 10 << 20);
  ASSERT_TRUE(sessiond_.create_session(request(1, 1 << 20)).ok());
  kernel_.run_until(kernel_.now() + sim::kSecond);

  // Consume ~90% of the first grant; the poll should request a top-up.
  offer_downlink(1, (1 << 20) * 9 / 10);
  sessiond_.poll_usage();
  kernel_.run_until(kernel_.now() + sim::kSecond);
  EXPECT_GE(sessiond_.find(imsi(1))->quota_granted, 2u << 20);
}

TEST_F(SessiondOcsTest, EmptyBalanceBlocksSession) {
  ocs_.create_account(imsi(1), 1 << 20);  // exactly one grant
  ASSERT_TRUE(sessiond_.create_session(request(1, 1 << 20)).ok());
  kernel_.run_until(kernel_.now() + sim::kSecond);

  // Burn through the entire grant, then some.
  offer_downlink(1, 1 << 20);
  offer_downlink(1, 1 << 20);
  sessiond_.poll_usage();
  kernel_.run_until(kernel_.now() + sim::kSecond);
  sessiond_.poll_usage();
  kernel_.run_until(kernel_.now() + sim::kSecond);

  EXPECT_TRUE(sessiond_.find(imsi(1))->quota_denied);
  EXPECT_TRUE(sessiond_.find(imsi(1))->flows.blocked);
  EXPECT_GE(sessiond_.stats().quota_denials, 1u);
}

TEST_F(SessiondOcsTest, UnusedQuotaReturnedAtSessionEnd) {
  ocs_.create_account(imsi(1), 10 << 20);
  ASSERT_TRUE(sessiond_.create_session(request(1, 1 << 20)).ok());
  kernel_.run_until(kernel_.now() + sim::kSecond);

  const std::uint64_t used = offer_downlink(1, 200'000);
  ASSERT_GT(used, 0u);
  sessiond_.poll_usage();
  ASSERT_TRUE(sessiond_.end_session(imsi(1)).ok());
  kernel_.run_until(kernel_.now() + sim::kSecond);

  const ocs::OcsAccount* account = ocs_.account(imsi(1));
  ASSERT_NE(account, nullptr);
  EXPECT_EQ(account->outstanding_bytes, 0u);
  // Balance = initial − actual usage.
  EXPECT_NEAR(static_cast<double>(account->balance_bytes),
              static_cast<double>((10 << 20) - used), 2000.0);
  EXPECT_EQ(account->consumed_bytes, used);
}

}  // namespace
}  // namespace magma::agw
