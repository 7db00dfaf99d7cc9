// Generic access management: the three-stage attach flow, FSM guards,
// worker serialization and overload, per-RAT accounting.
#include <gtest/gtest.h>

#include "agw/accessd.h"
#include "crypto/hmac.h"
#include "ran/ue.h"

namespace magma::agw {
namespace {

common::Imsi imsi(std::uint64_t n) {
  return common::Imsi::from_digits(1010000000000ULL + n);
}

class AccessdTest : public ::testing::Test {
 protected:
  AccessdTest()
      : rng_(1),
        subscribers_([this]() { return rng_.next_u64(); }),
        mobilityd_(IpBlock{}),
        sessiond_(kernel_, pipelined_, nullptr),
        accessd_(kernel_, nullptr, subscribers_, policies_, mobilityd_,
                 sessiond_) {}

  SubscriberData provision(std::uint64_t n) {
    SubscriberData sub;
    sub.imsi = imsi(n);
    for (int i = 0; i < 16; ++i) {
      sub.k[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(n + i);
      sub.opc[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(n * 3 + i);
    }
    sub.wifi_password = "pw" + std::to_string(n);
    subscribers_.upsert(sub);
    return sub;
  }

  // Run the full generic flow for one subscriber; returns the SessionInfo.
  common::Result<SessionInfo> full_attach(const SubscriberData& sub,
                                          RanType rat) {
    common::Result<SessionInfo> session_result(
        common::Error{common::ErrorCode::kUnknown, "not finished"});
    accessd_.begin_attach(sub.imsi, rat, [&](common::Result<AuthChallenge> ch) {
      ASSERT_TRUE(ch.ok()) << ch.error().to_string();
      common::Bytes response;
      if (rat == RanType::kWifi) {
        const auto digest = crypto::hmac_sha256(
            common::to_bytes(sub.wifi_password),
            common::BytesView(ch.value().rand.data(), 16));
        response.assign(digest.begin(), digest.begin() + 8);
      } else {
        ran::Usim usim(sub.imsi, sub.k, sub.opc);
        const auto outcome =
            usim.authenticate(ch.value().rand, ch.value().autn);
        const auto* ok = std::get_if<ran::UsimAuthSuccess>(&outcome);
        ASSERT_NE(ok, nullptr);
        response.assign(ok->res.begin(), ok->res.end());
      }
      accessd_.verify_auth(sub.imsi, response,
                           [&](common::Result<SecurityKeys> keys) {
                             ASSERT_TRUE(keys.ok());
                             Accessd::EstablishRequest req;
                             req.imsi = sub.imsi;
                             accessd_.establish(
                                 req, [&](common::Result<SessionInfo> info) {
                                   session_result = std::move(info);
                                 });
                           });
    });
    kernel_.run();
    return session_result;
  }

  sim::Kernel kernel_;
  sim::Rng rng_;
  SubscriberDb subscribers_;
  PolicyDb policies_;
  Mobilityd mobilityd_;
  Pipelined pipelined_;
  Sessiond sessiond_;
  Accessd accessd_;
};

TEST_F(AccessdTest, FullFlowPerRat) {
  int n = 1;
  for (RanType rat : {RanType::kLte, RanType::kNr5g, RanType::kWifi}) {
    const SubscriberData sub = provision(static_cast<std::uint64_t>(n++));
    auto info = full_attach(sub, rat);
    ASSERT_TRUE(info.ok()) << ran_type_name(rat) << ": "
                           << info.error().to_string();
    EXPECT_EQ(accessd_.ue_state(sub.imsi),
              proto::lte::EmmState::kRegistered);
    EXPECT_EQ(accessd_.stats().attach_completed[static_cast<int>(rat)], 1u);
    // WiFi sessions are untunneled; cellular ones are tunneled.
    const SessionRecord* session = sessiond_.find(sub.imsi);
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(session->flows.tunneled, rat != RanType::kWifi);
  }
  EXPECT_EQ(sessiond_.active_sessions(), 3u);
}

TEST_F(AccessdTest, WrongResponseRejected) {
  const SubscriberData sub = provision(1);
  bool rejected = false;
  accessd_.begin_attach(sub.imsi, RanType::kLte,
                        [&](common::Result<AuthChallenge> ch) {
                          ASSERT_TRUE(ch.ok());
                          common::Bytes bogus(8, 0x00);
                          accessd_.verify_auth(
                              sub.imsi, bogus,
                              [&](common::Result<SecurityKeys> keys) {
                                rejected = !keys.ok() &&
                                           keys.code() ==
                                               common::ErrorCode::kUnauthenticated;
                              });
                        });
  kernel_.run();
  EXPECT_TRUE(rejected);
  EXPECT_EQ(accessd_.stats().auth_failures, 1u);
  EXPECT_FALSE(accessd_.ue_state(sub.imsi).has_value());  // context dropped
}

TEST_F(AccessdTest, StageOrderEnforced) {
  const SubscriberData sub = provision(1);
  // verify_auth before begin_attach.
  bool precondition_failed = false;
  accessd_.verify_auth(sub.imsi, common::Bytes(8, 1),
                       [&](common::Result<SecurityKeys> keys) {
                         precondition_failed =
                             keys.code() ==
                             common::ErrorCode::kFailedPrecondition;
                       });
  kernel_.run();
  EXPECT_TRUE(precondition_failed);

  // establish before security.
  bool establish_failed = false;
  accessd_.begin_attach(sub.imsi, RanType::kLte,
                        [&](common::Result<AuthChallenge>) {});
  Accessd::EstablishRequest req;
  req.imsi = sub.imsi;
  accessd_.establish(req, [&](common::Result<SessionInfo> info) {
    establish_failed =
        info.code() == common::ErrorCode::kFailedPrecondition;
  });
  kernel_.run();
  EXPECT_TRUE(establish_failed);
}

TEST_F(AccessdTest, GuardTimerDropsHalfOpenContext) {
  const SubscriberData sub = provision(1);
  accessd_.begin_attach(sub.imsi, RanType::kLte,
                        [](common::Result<AuthChallenge>) {});
  kernel_.run_until(sim::kSecond);
  EXPECT_EQ(accessd_.pending_contexts(), 1u);
  // Never answer: the guard expires and the context is reaped.
  kernel_.run_until(60 * sim::kSecond);
  EXPECT_EQ(accessd_.pending_contexts(), 0u);
}

TEST_F(AccessdTest, DetachReleasesEverything) {
  const SubscriberData sub = provision(1);
  ASSERT_TRUE(full_attach(sub, RanType::kLte).ok());
  ASSERT_EQ(mobilityd_.allocated(), 1u);

  bool detached = false;
  accessd_.detach(sub.imsi,
                  [&](common::Status status) { detached = status.ok(); });
  kernel_.run();
  EXPECT_TRUE(detached);
  EXPECT_EQ(sessiond_.active_sessions(), 0u);
  EXPECT_EQ(mobilityd_.allocated(), 0u);
  EXPECT_FALSE(accessd_.ue_state(sub.imsi).has_value());
}

TEST_F(AccessdTest, ReattachWhileRegisteredReplacesSession) {
  const SubscriberData sub = provision(1);
  ASSERT_TRUE(full_attach(sub, RanType::kLte).ok());
  const common::SessionId first = sessiond_.find(sub.imsi)->id;
  // UE reboots and attaches again without detaching.
  ASSERT_TRUE(full_attach(sub, RanType::kLte).ok());
  EXPECT_EQ(sessiond_.active_sessions(), 1u);
  EXPECT_NE(sessiond_.find(sub.imsi)->id, first);
}

class AccessdCpuTest : public ::testing::Test {
 protected:
  AccessdCpuTest()
      : rng_(1),
        cpu_(kernel_, sim::CpuConfig{4, 1.6, -1}),
        subscribers_([this]() { return rng_.next_u64(); }),
        mobilityd_(IpBlock{}),
        sessiond_(kernel_, pipelined_, nullptr) {}

  sim::Kernel kernel_;
  sim::Rng rng_;
  sim::CpuModel cpu_;
  SubscriberDb subscribers_;
  PolicyDb policies_;
  Mobilityd mobilityd_;
  Pipelined pipelined_;
  Sessiond sessiond_;
};

TEST_F(AccessdCpuTest, SingleWorkerSerializesAttachProcessing) {
  AccessdConfig config;
  config.workers = 1;
  Accessd accessd(kernel_, &cpu_, subscribers_, policies_, mobilityd_,
                  sessiond_, config);
  SubscriberData sub1, sub2;
  sub1.imsi = imsi(1);
  sub2.imsi = imsi(2);
  subscribers_.upsert(sub1);
  subscribers_.upsert(sub2);

  std::vector<sim::TimePoint> completions;
  for (const auto& sub : {sub1, sub2}) {
    accessd.begin_attach(sub.imsi, RanType::kLte,
                         [&](common::Result<AuthChallenge>) {
                           completions.push_back(kernel_.now());
                         });
  }
  kernel_.run_until(10 * sim::kSecond);
  ASSERT_EQ(completions.size(), 2u);
  // cost_begin_attach = 0.20 ref-s at 1.6 GHz = 125 ms per attach,
  // strictly serialized.
  EXPECT_NEAR(sim::to_seconds(completions[0]), 0.125, 1e-6);
  EXPECT_NEAR(sim::to_seconds(completions[1]), 0.250, 1e-6);
}

TEST_F(AccessdCpuTest, FourWorkersParallelizeOnFourCores) {
  AccessdConfig config;
  config.workers = 4;
  Accessd accessd(kernel_, &cpu_, subscribers_, policies_, mobilityd_,
                  sessiond_, config);
  for (std::uint64_t i = 0; i < 4; ++i) {
    SubscriberData sub;
    sub.imsi = imsi(i);
    subscribers_.upsert(sub);
  }
  std::vector<sim::TimePoint> completions;
  for (std::uint64_t i = 0; i < 4; ++i) {
    accessd.begin_attach(imsi(i), RanType::kLte,
                         [&](common::Result<AuthChallenge>) {
                           completions.push_back(kernel_.now());
                         });
  }
  kernel_.run_until(10 * sim::kSecond);
  ASSERT_EQ(completions.size(), 4u);
  for (const sim::TimePoint t : completions) {
    EXPECT_NEAR(sim::to_seconds(t), 0.125, 1e-6);  // all in parallel
  }
}

TEST_F(AccessdCpuTest, OverloadShedsBeyondQueueBound) {
  AccessdConfig config;
  config.workers = 1;
  config.max_queue = 5;
  Accessd accessd(kernel_, &cpu_, subscribers_, policies_, mobilityd_,
                  sessiond_, config);
  int rejected = 0;
  int answered = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    SubscriberData sub;
    sub.imsi = imsi(i);
    subscribers_.upsert(sub);
    accessd.begin_attach(
        imsi(i), RanType::kLte, [&](common::Result<AuthChallenge> ch) {
          if (!ch.ok() &&
              ch.code() == common::ErrorCode::kResourceExhausted) {
            ++rejected;
          } else {
            ++answered;
          }
        });
  }
  kernel_.run_until(60 * sim::kSecond);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(answered, 0);
  EXPECT_EQ(rejected + answered, 20);
  EXPECT_EQ(accessd.stats().overload_rejections,
            static_cast<std::uint64_t>(rejected));
}

}  // namespace
}  // namespace magma::agw
