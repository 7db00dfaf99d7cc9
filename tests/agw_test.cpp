// AccessGateway assembly: profiles, user-plane CPU accounting and overload,
// telemetry snapshots, checkpoint format.
#include <gtest/gtest.h>

#include "agw/agw.h"
#include "rpc/wire.h"

namespace magma::agw {
namespace {

namespace dp = magma::datapath;

TEST(AgwProfile, PaperHardwareProfiles) {
  const AgwProfile bare = bare_metal_j3160();
  EXPECT_EQ(bare.cpu.cores, 4);
  EXPECT_DOUBLE_EQ(bare.cpu.speed_ghz, 1.6);
  EXPECT_EQ(bare.accessd.workers, 1);  // the Figure-6 MME bottleneck

  const AgwProfile vm = virtual_xeon(4);
  EXPECT_EQ(vm.cpu.cores, 4);
  EXPECT_DOUBLE_EQ(vm.cpu.speed_ghz, 2.6);
  EXPECT_EQ(vm.accessd.workers, 3);  // ~16 attaches/s (§4.2)

  const AgwProfile pinned = virtual_xeon(8, 6);
  EXPECT_EQ(pinned.cpu.user_plane_cores, 6);
  EXPECT_EQ(pinned.accessd.workers, 2);
}

class AgwTest : public ::testing::Test {
 protected:
  AgwTest()
      : agw_(kernel_, common::GatewayId{"gw-test"}, virtual_xeon(2),
             sim::Rng(9)) {}

  // Install a session directly at the data plane so user-plane entry
  // points have something to match.
  void install_session(common::Ipv4 ue) {
    SessionFlows f;
    f.cookie = 1;
    f.ue_ip = ue;
    f.agw_teid_ul = common::Teid{0x10};
    f.enb_teid_dl = common::Teid{0x20};
    f.enb_address = common::Ipv4::from_octets(10, 100, 0, 1);
    ASSERT_TRUE(agw_.pipelined().install_session(f, kernel_.now()).ok());
  }

  sim::Kernel kernel_;
  AccessGateway agw_;
};

TEST_F(AgwTest, IngressChargesUserPlaneCpuAndForwards) {
  const common::Ipv4 ue = common::Ipv4::from_octets(172, 16, 0, 9);
  install_session(ue);

  std::vector<std::pair<std::uint32_t, std::uint64_t>> egressed;
  agw_.set_egress([&](std::uint32_t port, dp::PacketBatch batch) {
    egressed.emplace_back(port, batch.count);
  });

  dp::PacketBatch batch;
  batch.packet = dp::make_udp(common::Ipv4::from_octets(8, 8, 8, 8), ue, 443,
                              40000, 1000);
  batch.count = 32;
  agw_.ingress_from_internet(batch);
  // The AGW's periodic service loops reschedule forever; bound the run.
  kernel_.run_until(kernel_.now() + 10 * sim::kSecond);

  ASSERT_EQ(egressed.size(), 1u);
  EXPECT_EQ(egressed[0].first, dp::kPortRan);
  EXPECT_EQ(egressed[0].second, 32u);
  EXPECT_EQ(agw_.user_plane_stats().forwarded_packets, 32u);
  // CPU time was charged to the user class: 32 * 4.85e-5 ref-s.
  EXPECT_GT(agw_.cpu().stats().busy_ns[1], 0);
  EXPECT_EQ(agw_.cpu().stats().busy_ns[0], 0);
}

TEST_F(AgwTest, OverloadDropsBeyondQueueBound) {
  const common::Ipv4 ue = common::Ipv4::from_octets(172, 16, 0, 9);
  install_session(ue);
  // Flood far beyond what the CPU can drain plus the queue bound.
  const std::size_t queue_max = agw_.profile().user_queue_max;
  for (std::size_t i = 0; i < queue_max + 500; ++i) {
    dp::PacketBatch batch;
    batch.packet = dp::make_udp(common::Ipv4::from_octets(8, 8, 8, 8), ue,
                                443, 40000, 1000);
    batch.count = 1;
    agw_.ingress_from_internet(batch);
  }
  EXPECT_GT(agw_.user_plane_stats().dropped_overload_bytes, 0u);
  kernel_.run_until(kernel_.now() + 60 * sim::kSecond);
  // Conservation in packets (byte counters differ across the tunnel push):
  // every offered packet was either forwarded or dropped at the queue.
  const std::uint64_t per_batch_bytes =
      dp::make_udp(common::Ipv4::from_octets(8, 8, 8, 8), ue, 443, 40000,
                   1000)
          .wire_size();
  const std::uint64_t dropped_packets =
      agw_.user_plane_stats().dropped_overload_bytes / per_batch_bytes;
  EXPECT_EQ(agw_.user_plane_stats().forwarded_packets + dropped_packets,
            queue_max + 500);
}

TEST_F(AgwTest, TelemetrySnapshotShape) {
  const auto samples = agw_.telemetry_snapshot();
  ASSERT_GE(samples.size(), 5u);
  bool saw_sessions = false;
  for (const auto& sample : samples) {
    EXPECT_EQ(sample.gateway_id, "gw-test");
    if (sample.name == "active_sessions") saw_sessions = true;
  }
  EXPECT_TRUE(saw_sessions);
}

TEST_F(AgwTest, ForwardedBytesDeltaResetsBetweenSnapshots) {
  const common::Ipv4 ue = common::Ipv4::from_octets(172, 16, 0, 9);
  install_session(ue);
  agw_.set_egress([](std::uint32_t, dp::PacketBatch) {});

  dp::PacketBatch batch;
  batch.packet = dp::make_udp(common::Ipv4::from_octets(8, 8, 8, 8), ue, 443,
                              40000, 1000);
  batch.count = 10;
  agw_.ingress_from_internet(batch);
  kernel_.run_until(kernel_.now() + 10 * sim::kSecond);

  auto find_delta = [](const std::vector<orc8r::MetricSample>& samples) {
    for (const auto& s : samples) {
      if (s.name == "forwarded_bytes_delta") return s.value;
    }
    return -1.0;
  };
  const double first = find_delta(agw_.telemetry_snapshot());
  EXPECT_GT(first, 0);
  // No traffic since: the delta goes back to zero (it is a delta, not a
  // cumulative counter).
  EXPECT_DOUBLE_EQ(find_delta(agw_.telemetry_snapshot()), 0);
}

TEST_F(AgwTest, CheckpointRoundTripsThroughFreshInstance) {
  // A cached config row whose SQN has advanced, plus a session.
  SubscriberData sub;
  sub.imsi = common::Imsi::from_digits(1010000000042ULL);
  agw_.subscriberdb().upsert(sub);
  ASSERT_TRUE(agw_.subscriberdb().generate_auth_vector(sub.imsi).ok());
  ASSERT_TRUE(agw_.subscriberdb().generate_auth_vector(sub.imsi).ok());
  install_session(common::Ipv4{agw_.profile().ip_block.base.addr + 5});

  Sessiond::CreateRequest req;
  req.imsi = sub.imsi;
  req.ue_ip = common::Ipv4{agw_.profile().ip_block.base.addr + 7};
  req.agw_teid_ul = common::Teid{0x99};
  req.enb_teid_dl = common::Teid{0x98};
  req.enb_address = common::Ipv4::from_octets(10, 100, 0, 1);
  req.policy = core::unlimited_policy();
  ASSERT_TRUE(agw_.sessiond().create_session(req).ok());

  const common::Bytes image = agw_.checkpoint();
  AccessGateway backup(kernel_, common::GatewayId{"gw-backup"},
                       virtual_xeon(2), sim::Rng(10));
  ASSERT_TRUE(backup.restore(image).ok());
  EXPECT_EQ(backup.sessiond().active_sessions(), 1u);
  EXPECT_EQ(backup.mobilityd().lookup(sub.imsi).value(), req.ue_ip);
  // The backup adopted the failed instance's address block wholesale.
  EXPECT_EQ(backup.profile().ip_block.base, agw_.profile().ip_block.base);
  // Config is not in the image: the subscriber is unknown until a sync
  // pushes its row, which then carries the restored SQN, not orc8r's 0.
  EXPECT_FALSE(backup.subscriberdb().get(sub.imsi).has_value());
  backup.subscriberdb().upsert(sub);
  EXPECT_EQ(backup.subscriberdb().get(sub.imsi)->sqn, 2u);
  EXPECT_EQ(backup.checkpoint(), image);
}

TEST_F(AgwTest, CorruptSessionSectionLeavesGatewayUnchanged) {
  // A populated gateway: an advanced SQN and a live session.
  SubscriberData sub;
  sub.imsi = common::Imsi::from_digits(1010000000042ULL);
  agw_.subscriberdb().upsert(sub);
  ASSERT_TRUE(agw_.subscriberdb().generate_auth_vector(sub.imsi).ok());
  Sessiond::CreateRequest req;
  req.imsi = sub.imsi;
  req.ue_ip = common::Ipv4{agw_.profile().ip_block.base.addr + 7};
  req.policy = core::unlimited_policy();
  ASSERT_TRUE(agw_.sessiond().create_session(req).ok());
  const common::Bytes before = agw_.checkpoint();

  // An image whose address block and SQN table are valid (and would move
  // this gateway's block and raise its SQN) but whose session section is
  // not.
  SubscriberDb donor([] { return 0ULL; });
  donor.upsert(sub);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(donor.generate_auth_vector(sub.imsi).ok());
  }
  rpc::Writer w;
  w.u32(common::Ipv4::from_octets(172, 20, 0, 0).addr);
  w.u8(22);
  donor.write_sqn_table(w);
  w.u64(9);  // next session id
  w.u64(1);  // one session record...
  w.bytes(common::to_bytes("not a session record"));
  const common::Status status = agw_.restore(std::move(w).take());

  EXPECT_FALSE(status.ok());
  EXPECT_EQ(agw_.checkpoint(), before);
  EXPECT_EQ(agw_.subscriberdb().get(sub.imsi)->sqn, 1u);
}

TEST_F(AgwTest, RestoreGarbageFailsCleanly) {
  EXPECT_FALSE(agw_.restore(common::to_bytes("nonsense")).ok());
  EXPECT_FALSE(agw_.restore({}).ok());
}

}  // namespace
}  // namespace magma::agw
