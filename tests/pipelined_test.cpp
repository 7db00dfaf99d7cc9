// Data-plane configuration: session rule programming, desired-state
// reconciliation (the §3.4 X/Y/Z example), usage counters, WiFi vs LTE
// session shapes, home routing.
#include <gtest/gtest.h>

#include <iterator>
#include <map>

#include "agw/pipelined.h"
#include "sim/random.h"

namespace magma::agw {
namespace {

namespace dp = magma::datapath;

const common::Ipv4 kUe = common::Ipv4::from_octets(172, 16, 0, 2);
const common::Ipv4 kServer = common::Ipv4::from_octets(8, 8, 8, 8);
const common::Ipv4 kEnb = common::Ipv4::from_octets(10, 100, 0, 1);

SessionFlows lte_session(std::uint64_t cookie, common::Ipv4 ue) {
  SessionFlows f;
  f.cookie = cookie;
  f.ue_ip = ue;
  f.agw_teid_ul = common::Teid{static_cast<std::uint32_t>(cookie + 0x100)};
  f.enb_teid_dl = common::Teid{static_cast<std::uint32_t>(cookie + 0x200)};
  f.enb_address = kEnb;
  return f;
}

dp::Packet uplink_packet(const SessionFlows& f) {
  return dp::gtpu_encap(dp::make_udp(f.ue_ip, kServer, 1000, 443, 500),
                        f.agw_teid_ul, kEnb, common::Ipv4{1});
}

TEST(Pipelined, InstallsAndForwardsBothDirections) {
  Pipelined pd;
  const SessionFlows f = lte_session(1, kUe);
  ASSERT_TRUE(pd.install_session(f, 0).ok());
  EXPECT_TRUE(pd.has_session(1));

  auto ul = pd.pipeline().process(uplink_packet(f), dp::Direction::kUplink, 0);
  EXPECT_EQ(ul.verdict, dp::Verdict::kForwarded);
  EXPECT_EQ(ul.out_port, dp::kPortSgi);
  EXPECT_FALSE(ul.packet.gtpu.has_value());

  auto dl = pd.pipeline().process(dp::make_udp(kServer, kUe, 443, 1000, 500),
                                  dp::Direction::kDownlink, 0);
  EXPECT_EQ(dl.verdict, dp::Verdict::kForwarded);
  EXPECT_EQ(dl.out_port, dp::kPortRan);
  ASSERT_TRUE(dl.packet.gtpu.has_value());
  EXPECT_EQ(dl.packet.gtpu->teid, f.enb_teid_dl);
}

TEST(Pipelined, InstallIsIdempotent) {
  Pipelined pd;
  const SessionFlows f = lte_session(1, kUe);
  ASSERT_TRUE(pd.install_session(f, 0).ok());
  const std::size_t entries = pd.pipeline().total_flow_entries();
  ASSERT_TRUE(pd.install_session(f, 0).ok());
  EXPECT_EQ(pd.pipeline().total_flow_entries(), entries);
  EXPECT_EQ(pd.stats().sessions_installed, 1u);
}

TEST(Pipelined, RemoveSessionStopsTraffic) {
  Pipelined pd;
  const SessionFlows f = lte_session(1, kUe);
  ASSERT_TRUE(pd.install_session(f, 0).ok());
  ASSERT_TRUE(pd.remove_session(1).ok());
  EXPECT_FALSE(pd.has_session(1));
  EXPECT_EQ(pd.pipeline().total_flow_entries(), 0u);
  auto result =
      pd.pipeline().process(uplink_packet(f), dp::Direction::kUplink, 0);
  EXPECT_EQ(result.verdict, dp::Verdict::kDroppedNoMatch);
  EXPECT_EQ(pd.remove_session(1).code(), common::ErrorCode::kNotFound);
}

TEST(Pipelined, RateLimitEnforcedPerDirection) {
  Pipelined pd;
  SessionFlows f = lte_session(1, kUe);
  f.dl_rate_bps = 8000;  // 1000 B/s downlink
  ASSERT_TRUE(pd.install_session(f, 0).ok());

  // Offer far more than the rate for 10 seconds of virtual time.
  std::uint64_t forwarded_bytes = 0;
  for (int t = 0; t < 10; ++t) {
    for (int i = 0; i < 100; ++i) {
      auto r = pd.pipeline().process(
          dp::make_udp(kServer, kUe, 443, 1000, 972),
          dp::Direction::kDownlink, t * sim::kSecond);
      if (r.verdict == dp::Verdict::kForwarded) {
        forwarded_bytes += r.packet.wire_size();
      }
    }
  }
  // ~10 KB allowed (+burst); definitely far below the 1 MB offered.
  EXPECT_LT(forwarded_bytes, 100'000u);
  EXPECT_GT(forwarded_bytes, 5'000u);
  // Uplink is unmetered in this session.
  auto ul = pd.pipeline().process(uplink_packet(f), dp::Direction::kUplink,
                                  10 * sim::kSecond);
  EXPECT_EQ(ul.verdict, dp::Verdict::kForwarded);
}

TEST(Pipelined, BlockedSessionDropsTrafficWithoutCountingUsage) {
  Pipelined pd;
  SessionFlows f = lte_session(1, kUe);
  f.blocked = true;
  ASSERT_TRUE(pd.install_session(f, 0).ok());

  auto dl = pd.pipeline().process(dp::make_udp(kServer, kUe, 443, 1000, 500),
                                  dp::Direction::kDownlink, 0);
  EXPECT_EQ(dl.verdict, dp::Verdict::kDroppedByPolicy);
  auto ul = pd.pipeline().process(uplink_packet(f), dp::Direction::kUplink, 0);
  EXPECT_EQ(ul.verdict, dp::Verdict::kDroppedByPolicy);
  // Blocked traffic is not usage.
  EXPECT_EQ(pd.session_usage(1).bytes, 0u);
}

TEST(Pipelined, WifiSessionIsUntunneled) {
  Pipelined pd;
  SessionFlows f;
  f.cookie = 3;
  f.ue_ip = kUe;
  f.tunneled = false;
  ASSERT_TRUE(pd.install_session(f, 0).ok());

  // Uplink arrives as plain IP from the AP.
  auto ul = pd.pipeline().process(dp::make_udp(kUe, kServer, 1, 2, 100),
                                  dp::Direction::kUplink, 0);
  EXPECT_EQ(ul.verdict, dp::Verdict::kForwarded);
  EXPECT_EQ(ul.out_port, dp::kPortSgi);

  // Downlink leaves as plain IP toward the AP.
  auto dl = pd.pipeline().process(dp::make_udp(kServer, kUe, 1, 2, 100),
                                  dp::Direction::kDownlink, 0);
  EXPECT_EQ(dl.verdict, dp::Verdict::kForwarded);
  EXPECT_EQ(dl.out_port, dp::kPortRan);
  EXPECT_FALSE(dl.packet.gtpu.has_value());
}

TEST(Pipelined, HomeRoutedSessionTunnelsBothWays) {
  Pipelined pd;
  SessionFlows f = lte_session(4, kUe);
  f.home_routed = true;
  f.home_teid_remote = common::Teid{0x4001};
  f.home_agg_address = common::Ipv4::from_octets(10, 200, 0, 1);
  f.home_teid_local = common::Teid{0x4002};
  ASSERT_TRUE(pd.install_session(f, 0).ok());

  // Uplink: decap from RAN, re-encap toward the GTP-A out of SGi.
  auto ul = pd.pipeline().process(uplink_packet(f), dp::Direction::kUplink, 0);
  EXPECT_EQ(ul.verdict, dp::Verdict::kForwarded);
  EXPECT_EQ(ul.out_port, dp::kPortSgi);
  ASSERT_TRUE(ul.packet.gtpu.has_value());
  EXPECT_EQ(ul.packet.gtpu->teid, f.home_teid_remote);

  // Downlink: arrives GTP-encapsulated from the GTP-A, leaves toward RAN.
  dp::Packet from_home = dp::gtpu_encap(
      dp::make_udp(kServer, kUe, 443, 1000, 100), f.home_teid_local,
      f.home_agg_address, common::Ipv4{2});
  auto dl = pd.pipeline().process(from_home, dp::Direction::kDownlink, 0);
  EXPECT_EQ(dl.verdict, dp::Verdict::kForwarded);
  EXPECT_EQ(dl.out_port, dp::kPortRan);
  ASSERT_TRUE(dl.packet.gtpu.has_value());
  EXPECT_EQ(dl.packet.gtpu->teid, f.enb_teid_dl);
}

TEST(Pipelined, UsageCountsInnerBytesOncePerPacket) {
  Pipelined pd;
  const SessionFlows f = lte_session(1, kUe);
  ASSERT_TRUE(pd.install_session(f, 0).ok());
  pd.pipeline().process(uplink_packet(f), dp::Direction::kUplink, 0);
  const dp::FlowCounters usage = pd.session_usage(1);
  EXPECT_EQ(usage.packets, 1u);
  // Counted at the enforcement table: after decap, so inner wire size.
  EXPECT_EQ(usage.bytes, dp::make_udp(kUe, kServer, 1000, 443, 500).wire_size());
}

// --- One-pass usage read ------------------------------------------------------

// read_usage (one egress-table pass, the usage poll's read) against
// session_usage (a whole-table scan per cookie, the reference) through
// random rule churn: install, remove and reinstall, tier changes, block,
// idle, and traffic past the meters so they drop.
class UsageReadSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UsageReadSweep, OnePassMatchesPerCookieScan) {
  sim::Rng rng(GetParam());
  Pipelined pd;
  std::map<std::uint64_t, SessionFlows> live;  // cookie -> installed spec
  dp::CookieCounters usage;
  const std::uint64_t kRates[] = {0, 8'000, 64'000, 1'000'000};
  auto rate = [&] { return kRates[rng.uniform_int(4)]; };
  std::uint64_t next_cookie = 1;
  sim::TimePoint now = 0;
  for (int step = 0; step < 300 && !HasFailure(); ++step) {
    now += 10 * sim::kMillisecond;
    if (live.empty() || rng.uniform_int(5) == 0) {
      const std::uint64_t cookie = next_cookie++;
      SessionFlows f = lte_session(
          cookie, common::Ipv4{kUe.addr + static_cast<std::uint32_t>(cookie)});
      f.tunneled = rng.bernoulli(0.8);
      f.dl_rate_bps = rate();
      f.ul_rate_bps = rate();
      ASSERT_TRUE(pd.install_session(f, now).ok());
      live[cookie] = f;
    }
    auto it = std::next(live.begin(),
                        static_cast<long>(rng.uniform_int(live.size())));
    SessionFlows& f = it->second;
    // Traffic both ways, up to 64 KB per batch: enough to drain a meter.
    const auto count = static_cast<std::uint32_t>(1 + rng.uniform_int(64));
    pd.pipeline().process_batch(
        dp::PacketBatch{dp::make_udp(kServer, f.ue_ip, 443, 1000, 972), count},
        dp::Direction::kDownlink, now);
    dp::Packet up = dp::make_udp(f.ue_ip, kServer, 1000, 443, 500);
    if (f.tunneled) up = uplink_packet(f);
    pd.pipeline().process_batch(dp::PacketBatch{up, count},
                                dp::Direction::kUplink, now);
    SessionFlows changed = f;
    switch (rng.uniform_int(5)) {
      case 0:
        ASSERT_TRUE(pd.remove_session(f.cookie).ok());
        live.erase(it);
        break;
      case 1:
        changed.dl_rate_bps = rate();
        changed.ul_rate_bps = rate();
        break;
      case 2:
        changed.blocked = !changed.blocked;
        break;
      case 3:
        changed.idle = !changed.idle;
        break;
      default:
        break;  // traffic only
    }
    if (live.contains(changed.cookie) && !(changed == f)) {
      ASSERT_TRUE(pd.install_session(changed, now).ok());
      f = changed;
    }
    pd.read_usage(usage);
    for (std::uint64_t c = 0; c <= next_cookie; ++c) {
      for (const std::uint64_t cookie : {c, c | Pipelined::kBlockCookieFlag}) {
        const dp::FlowCounters expected = pd.session_usage(cookie);
        EXPECT_EQ(usage.get(cookie).bytes, expected.bytes)
            << "cookie " << cookie << " step " << step;
        EXPECT_EQ(usage.get(cookie).packets, expected.packets)
            << "cookie " << cookie << " step " << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UsageReadSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- Desired-state reconciliation (§3.4's X, Y, Z example) -------------------

TEST(Pipelined, DesiredStateConvergesFromAnyStart) {
  Pipelined pd;
  const SessionFlows x = lte_session(1, common::Ipv4::from_octets(172, 16, 0, 1));
  const SessionFlows y = lte_session(2, common::Ipv4::from_octets(172, 16, 0, 2));
  const SessionFlows z = lte_session(3, common::Ipv4::from_octets(172, 16, 0, 3));

  // Data plane believes {X, Y}; control plane's desired set is {X, Y, Z}.
  pd.install_session(x, 0).ok();
  pd.install_session(y, 0).ok();
  pd.set_desired_sessions({x, y, z}, 0);
  EXPECT_EQ(pd.installed_cookies(), (std::vector<std::uint64_t>{1, 2, 3}));

  // Shrink to {Z} — X and Y vanish.
  pd.set_desired_sessions({z}, 0);
  EXPECT_EQ(pd.installed_cookies(), (std::vector<std::uint64_t>{3}));

  // Empty set clears everything.
  pd.set_desired_sessions({}, 0);
  EXPECT_EQ(pd.session_count(), 0u);
  EXPECT_EQ(pd.pipeline().total_flow_entries(), 0u);
}

TEST(Pipelined, DesiredStateIsIdempotent) {
  Pipelined pd;
  const SessionFlows x = lte_session(1, kUe);
  pd.set_desired_sessions({x}, 0);
  // Pass traffic to accumulate counters.
  pd.pipeline().process(uplink_packet(x), dp::Direction::kUplink, 0);
  const std::uint64_t usage = pd.session_usage(1).bytes;
  ASSERT_GT(usage, 0u);

  // Reapplying the same desired state must not reset counters.
  pd.set_desired_sessions({x}, 0);
  EXPECT_EQ(pd.session_usage(1).bytes, usage);
}

TEST(Pipelined, DesiredStateReplacesChangedSpec) {
  Pipelined pd;
  SessionFlows x = lte_session(1, kUe);
  pd.set_desired_sessions({x}, 0);
  x.dl_rate_bps = 1'000'000;  // spec changed
  pd.set_desired_sessions({x}, 0);
  EXPECT_EQ(pd.session_count(), 1u);
  // The meter now exists.
  EXPECT_NE(pd.pipeline().meters().find(
                static_cast<std::uint32_t>(1 * 2)),
            nullptr);
}

TEST(SessionFlows, SerializeRoundTrip) {
  const SessionFlows f{9,
                       kUe,
                       false,
                       common::Teid{0x111},
                       common::Teid{0x222},
                       common::Ipv4::from_octets(10, 100, 0, 2),
                       123,
                       456,
                       true,
                       true,
                       true,
                       common::Teid{0xAAA},
                       common::Ipv4::from_octets(1, 2, 3, 4),
                       common::Teid{0xBBB}};
  // The wire layout is pinned: sessiond checkpoints must keep decoding.
  EXPECT_EQ(common::to_hex(f.serialize()),
            "0900000000000000020010ac0011010000220200000200640a7b000000000000"
            "00c801000000000000010101aa0a000004030201bb0b0000");
  auto round = SessionFlows::deserialize(f.serialize());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value(), f);
}

}  // namespace
}  // namespace magma::agw
