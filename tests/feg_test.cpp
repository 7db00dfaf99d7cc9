// Federation: GTP-C endpoint reliability, MNO core stub, FeG session
// creation, GTP-A user-plane plumbing (§3.6).
#include <gtest/gtest.h>

#include "feg/feg.h"
#include "feg/gtp_aggregator.h"
#include "net/channel.h"

namespace magma::feg {
namespace {

namespace lte = magma::proto::lte;
namespace dp = magma::datapath;

common::Imsi imsi(std::uint64_t n) {
  return common::Imsi::from_digits(1010000000000ULL + n);
}

class GtpcTest : public ::testing::Test {
 protected:
  GtpcTest()
      : rng_(3),
        link_(kernel_, rng_, sim::lan_link()),
        channels_(net::make_datagram_pair(kernel_, link_)),
        client_(kernel_, *channels_.a),
        server_(kernel_, *channels_.b) {}

  sim::Kernel kernel_;
  sim::Rng rng_;
  net::DuplexLink link_;
  net::ChannelPair channels_;
  GtpcEndpoint client_;
  GtpcEndpoint server_;
};

TEST_F(GtpcTest, RequestResponseOnCleanLink) {
  server_.set_request_handler([](const lte::GtpcMessage& request) {
    EXPECT_TRUE(std::holds_alternative<lte::CreateSessionRequest>(request));
    lte::CreateSessionResponse response;
    response.pdn_address = common::Ipv4::from_octets(100, 64, 0, 1);
    return lte::GtpcMessage{response};
  });

  bool got = false;
  lte::CreateSessionRequest request;
  request.imsi = imsi(1);
  client_.send_request(lte::GtpcMessage{request},
                       [&](common::Result<lte::GtpcMessage> result) {
                         ASSERT_TRUE(result.ok());
                         got = std::holds_alternative<lte::CreateSessionResponse>(
                             result.value());
                       });
  kernel_.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(client_.stats().retransmissions, 0u);
}

TEST_F(GtpcTest, RetransmitsThroughModerateLoss) {
  link_.forward.set_loss_probability(0.4);
  link_.reverse.set_loss_probability(0.4);
  server_.set_request_handler([](const lte::GtpcMessage&) {
    return lte::GtpcMessage{lte::DeleteSessionResponse{}};
  });
  int ok = 0;
  int failed = 0;
  for (std::uint32_t i = 0; i < 20; ++i) {
    client_.send_request(
        lte::GtpcMessage{lte::DeleteSessionRequest{common::Teid{i}, 0}},
        [&](common::Result<lte::GtpcMessage> result) {
          result.ok() ? ++ok : ++failed;
        });
  }
  kernel_.run();
  EXPECT_EQ(ok + failed, 20);
  // At 40% loss, (1-p_fail_both_ways) per try ~0.36; N3=3 tries → some
  // succeed, and the endpoint definitely retransmits.
  EXPECT_GT(ok, 5);
  EXPECT_GT(client_.stats().retransmissions, 0u);
}

TEST_F(GtpcTest, GivesUpAfterN3OnDeadLink) {
  link_.forward.set_up(false);
  bool failed = false;
  client_.send_request(
      lte::GtpcMessage{lte::DeleteSessionRequest{common::Teid{1}, 0}},
      [&](common::Result<lte::GtpcMessage> result) {
        failed = result.code() == common::ErrorCode::kUnavailable;
      });
  kernel_.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(client_.stats().failures, 1u);
  // Gave up after exactly N3 transmissions (1 initial + 2 retries).
  EXPECT_EQ(client_.stats().retransmissions,
            static_cast<std::uint64_t>(lte::GtpcTimers::kN3Requests - 1));
}

// --- Full federation path --------------------------------------------------

class FederationTest : public ::testing::Test {
 protected:
  FederationTest()
      : rng_(4),
        mno_(kernel_, common::Ipv4::from_octets(10, 250, 0, 1)),
        gtpa_(common::Ipv4::from_octets(10, 200, 0, 1)),
        feg_link_(kernel_, rng_, sim::fiber_backhaul()),
        feg_channels_(net::make_datagram_pair(kernel_, feg_link_)),
        feg_(kernel_, mno_, gtpa_, *feg_channels_.a) {
    mno_.serve_gtpc(*feg_channels_.b);
    // GTP-A <-> P-GW user plane is direct in this unit test.
    gtpa_.set_pgw_sink([this](dp::PacketBatch batch) {
      mno_.ingress_from_gtpa(std::move(batch));
    });
    mno_.set_gtpa_sink([this](dp::PacketBatch batch) {
      gtpa_.ingress_from_pgw(std::move(batch));
    });
  }

  sim::Kernel kernel_;
  sim::Rng rng_;
  MnoCore mno_;
  GtpAggregator gtpa_;
  net::DuplexLink feg_link_;
  net::ChannelPair feg_channels_;
  FederationGateway feg_;
};

TEST_F(FederationTest, CreateSessionAllocatesMnoAddress) {
  std::vector<dp::PacketBatch> to_agw;
  common::Result<agw::Accessd::FederatedSession> session(
      common::Error{common::ErrorCode::kUnknown, "pending"});
  feg_.create_session(
      imsi(1), common::Teid{0x500},
      [&](dp::PacketBatch batch) { to_agw.push_back(std::move(batch)); },
      [&](common::Result<agw::Accessd::FederatedSession> result) {
        session = std::move(result);
      });
  kernel_.run();
  ASSERT_TRUE(session.ok()) << session.error().to_string();
  // MNO allocates from its own 100.64/10 pool.
  EXPECT_EQ(session.value().ue_ip.addr >> 24, 100u);
  EXPECT_EQ(session.value().home_agg_address, gtpa_.address());
  EXPECT_EQ(mno_.session_count(), 1u);
  EXPECT_EQ(feg_.stats().sessions_created, 1u);

  // Uplink: AGW → GTP-A → P-GW.
  dp::PacketBatch ul;
  ul.packet = dp::gtpu_encap(
      dp::make_udp(session.value().ue_ip,
                   common::Ipv4::from_octets(8, 8, 8, 8), 1, 2, 100),
      session.value().home_teid_remote, common::Ipv4{1}, gtpa_.address());
  ul.count = 10;
  gtpa_.ingress_from_agw(std::move(ul));
  EXPECT_GT(gtpa_.stats().ul_bytes, 0u);
  EXPECT_GT(mno_.session_by_ip(session.value().ue_ip)->ul_bytes, 0u);

  // Downlink: "Internet" at the MNO → P-GW → GTP-A → AGW sink.
  ASSERT_TRUE(mno_.inject_downlink(session.value().ue_ip, 500, 5));
  ASSERT_EQ(to_agw.size(), 1u);
  ASSERT_TRUE(to_agw[0].packet.gtpu.has_value());
  EXPECT_EQ(to_agw[0].packet.gtpu->teid.value, 0x500u);
  EXPECT_GT(gtpa_.stats().dl_bytes, 0u);
}

TEST_F(FederationTest, DuplicateCreateSessionIsIdempotentAtPgw) {
  common::Ipv4 first_ip{};
  for (int round = 0; round < 2; ++round) {
    bool done = false;
    feg_.create_session(
        imsi(1), common::Teid{0x600}, [](dp::PacketBatch) {},
        [&](common::Result<agw::Accessd::FederatedSession> result) {
          ASSERT_TRUE(result.ok());
          if (first_ip.addr == 0) {
            first_ip = result.value().ue_ip;
          } else {
            EXPECT_EQ(result.value().ue_ip, first_ip);
          }
          done = true;
        });
    kernel_.run();
    ASSERT_TRUE(done);
  }
  EXPECT_EQ(mno_.session_count(), 1u);
}

TEST_F(FederationTest, SessionFailureWhenMnoUnreachable) {
  feg_link_.forward.set_up(false);
  bool failed = false;
  feg_.create_session(
      imsi(2), common::Teid{0x700}, [](dp::PacketBatch) {},
      [&](common::Result<agw::Accessd::FederatedSession> result) {
        failed = !result.ok();
      });
  kernel_.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(feg_.stats().session_failures, 1u);
}

TEST_F(FederationTest, UnknownTeidTrafficDropped) {
  dp::PacketBatch stray;
  stray.packet = dp::gtpu_encap(
      dp::make_udp(common::Ipv4{1}, common::Ipv4{2}, 1, 2, 10),
      common::Teid{0xDEAD}, common::Ipv4{3}, gtpa_.address());
  gtpa_.ingress_from_agw(std::move(stray));
  EXPECT_EQ(gtpa_.stats().unknown_teid_drops, 1u);
}

TEST_F(FederationTest, FetchSubscribersServesMnoHss) {
  agw::SubscriberData roamer;
  roamer.imsi = imsi(77);
  roamer.policy_name = "mno-gold";
  mno_.hss().upsert(roamer);

  rpc::RpcLink rpc(kernel_, rng_, "feg-server", "agw-client");
  feg_.bind(rpc.server);

  agw::SubscriberDb local([]() { return 0ULL; });
  bool synced = false;
  rpc.client.call(FederationGateway::kService,
                  FederationGateway::kFetchSubscribers, {}, 5 * sim::kSecond,
                  [&](rpc::Result<rpc::Bytes> result) {
                    ASSERT_TRUE(result.ok());
                    ASSERT_TRUE(local.restore(result.value()).ok());
                    synced = true;
                  });
  kernel_.run();
  EXPECT_TRUE(synced);
  ASSERT_TRUE(local.get(imsi(77)).has_value());
  EXPECT_EQ(local.get(imsi(77))->policy_name, "mno-gold");
}

}  // namespace
}  // namespace magma::feg
