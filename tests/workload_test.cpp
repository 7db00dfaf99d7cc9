// Workload generators and measurement samplers (the Landslide role).
#include <gtest/gtest.h>

#include "core/network.h"
#include "core/workload.h"
#include "ran/scenario.h"

namespace magma {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<core::Network>();
    agw_ = &net_->add_agw(agw::virtual_xeon(4));
    ran::EnodebConfig big;
    big.max_active_ues = 200;
    big.dl_capacity_bps = 1e9;
    enb_ = &net_->add_enodeb(*agw_, big);
    net_->run_for(2 * sim::kSecond);
  }

  ran::UeLte& attach_one() {
    const agw::SubscriberData sub = net_->provision_subscriber();
    net_->sync_all_config();
    ran::UeLte& ue = net_->add_ue_lte(sub);
    bool ok = false;
    ue.attach(*enb_, [&](const ran::AttachOutcome& o) { ok = o.success; });
    net_->run_for(20 * sim::kSecond);
    EXPECT_TRUE(ok);
    return ue;
  }

  std::unique_ptr<core::Network> net_;
  agw::AccessGateway* agw_ = nullptr;
  ran::EnodeB* enb_ = nullptr;
};

TEST_F(WorkloadTest, DownlinkFlowDeliversConfiguredRate) {
  ran::UeLte& ue = attach_one();
  core::DownlinkFlow flow(*net_, *agw_, *ue.ip(), 4e6);  // 4 Mbps
  flow.start();
  net_->run_for(20 * sim::kSecond);
  flow.stop();
  const double achieved = ue.traffic().rx_bytes * 8.0 / 20.0;
  EXPECT_NEAR(achieved, 4e6, 0.4e6);
}

TEST_F(WorkloadTest, DownlinkFlowCarriesFractionalPackets) {
  // A rate whose per-tick byte count is below one packet must still
  // deliver the right long-run average via the carry accumulator.
  ran::UeLte& ue = attach_one();
  core::DownlinkFlow flow(*net_, *agw_, *ue.ip(), 64e3);  // 64 kbps
  flow.start();
  net_->run_for(60 * sim::kSecond);
  flow.stop();
  const double achieved = ue.traffic().rx_bytes * 8.0 / 60.0;
  EXPECT_NEAR(achieved, 64e3, 10e3);
}

TEST_F(WorkloadTest, DownlinkFlowRateChangeTakesEffect) {
  ran::UeLte& ue = attach_one();
  core::DownlinkFlow flow(*net_, *agw_, *ue.ip(), 2e6);
  flow.start();
  net_->run_for(10 * sim::kSecond);
  const std::uint64_t at_low = ue.traffic().rx_bytes;
  flow.set_rate(8e6);
  net_->run_for(10 * sim::kSecond);
  const std::uint64_t delta_high = ue.traffic().rx_bytes - at_low;
  EXPECT_GT(delta_high, 3 * at_low);
}

TEST_F(WorkloadTest, AttachRampSpacingAndCsr) {
  std::vector<agw::SubscriberData> subs;
  for (int i = 0; i < 12; ++i) subs.push_back(net_->provision_subscriber());
  net_->sync_all_config();
  std::vector<ran::UeLte*> ues;
  for (const auto& sub : subs) ues.push_back(&net_->add_ue_lte(sub));

  const sim::TimePoint t0 = net_->kernel().now();
  core::AttachRamp ramp(*net_, ues, *enb_, 2.0);  // one every 500 ms
  net_->run_for(30 * sim::kSecond);

  EXPECT_EQ(ramp.completed(), 12u);
  EXPECT_EQ(ramp.succeeded(), 12u);
  EXPECT_DOUBLE_EQ(ramp.csr(), 1.0);
  // Request times follow the configured spacing.
  const auto& records = ramp.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].requested - t0,
              static_cast<sim::TimePoint>(i) * sim::kSecond / 2);
  }
  // Windowed CSR: the first 3 seconds contain requests 0..5.
  EXPECT_DOUBLE_EQ(ramp.csr_in_window(t0, t0 + 3 * sim::kSecond), 1.0);
}

TEST_F(WorkloadTest, DiurnalWorkloadHasDayNightCycle) {
  // Attach a small fleet, then run a simulated day.
  std::vector<agw::SubscriberData> subs;
  for (int i = 0; i < 20; ++i) subs.push_back(net_->provision_subscriber());
  net_->sync_all_config();
  std::vector<ran::UeLte*> ues;
  for (const auto& sub : subs) ues.push_back(&net_->add_ue_lte(sub));
  core::AttachRamp ramp(*net_, ues, *enb_, 4.0);
  net_->run_for(sim::from_seconds(20 / 4.0 + 20));
  ASSERT_EQ(ramp.succeeded(), 20u);

  std::vector<common::Ipv4> ips;
  for (ran::UeLte* ue : ues) ips.push_back(*ue->ip());

  core::DiurnalConfig config;
  config.peak_hour = 20.0;
  config.peak_active_fraction = 0.9;
  config.trough_active_fraction = 0.2;
  core::DiurnalWorkload workload(*net_, *agw_, ips, config,
                                 net_->rng().fork());
  workload.start();
  net_->run_for(24 * sim::kHour);

  const auto& samples = workload.samples();
  ASSERT_GE(samples.size(), 24u);
  int peak = 0;
  int trough = 1 << 30;
  for (const auto& sample : samples) {
    peak = std::max(peak, sample.active_subscribers);
    trough = std::min(trough, sample.active_subscribers);
  }
  EXPECT_GT(peak, 2 * std::max(trough, 1));
  EXPECT_LE(peak, 20);
}

// --- samplers ------------------------------------------------------------------

TEST(Samplers, RateSamplerComputesPerIntervalRates) {
  sim::Kernel kernel;
  std::uint64_t counter = 0;
  ran::RateSampler sampler(kernel, [&]() { return counter; }, sim::kSecond);
  sampler.start();
  // 1000 units/s for 5 s, then idle for 5 s.
  for (int t = 0; t < 5; ++t) {
    kernel.schedule(t * sim::kSecond + sim::kMillisecond,
                    [&]() { counter += 1000; });
  }
  kernel.run_until(10 * sim::kSecond);
  const auto& series = sampler.series();
  ASSERT_GE(series.size(), 9u);
  EXPECT_NEAR(series[1].value, 1000.0, 1.0);
  EXPECT_NEAR(series.back().value, 0.0, 1.0);
  EXPECT_NEAR(sampler.average(0, 5), 1000.0, 1.0);
  EXPECT_NEAR(sampler.peak(), 1000.0, 1.0);
}

TEST(Samplers, CpuSamplerTracksUtilizationWindows) {
  sim::Kernel kernel;
  sim::CpuModel cpu(kernel, sim::CpuConfig{2, 1.0, -1});
  ran::CpuSampler sampler(kernel, cpu, sim::kSecond);
  sampler.start();
  // One core busy with control work for the first second only.
  cpu.submit(sim::WorkClass::kControl, 1.0, []() {});
  kernel.run_until(3 * sim::kSecond);
  const auto& control = sampler.control_util();
  ASSERT_GE(control.size(), 3u);
  EXPECT_NEAR(control[0].value, 0.5, 1e-9);  // 1 of 2 cores busy
  EXPECT_NEAR(control[1].value, 0.0, 1e-9);
  // The first sample is stamped at t=1.0 s; include it in the window.
  EXPECT_NEAR(sampler.average_total(0, 1.5), 0.5, 1e-9);
}

TEST(Samplers, GaugeSamplerRecordsValues) {
  sim::Kernel kernel;
  double value = 1.0;
  ran::GaugeSampler sampler(kernel, [&]() { return value; },
                            sim::kSecond);
  sampler.start();
  kernel.schedule(1500 * sim::kMillisecond, [&]() { value = 7.0; });
  kernel.run_until(3 * sim::kSecond);
  const auto& series = sampler.series();
  ASSERT_GE(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0].value, 1.0);
  EXPECT_DOUBLE_EQ(series[2].value, 7.0);
}

TEST(Samplers, TimelineHelpers) {
  std::vector<ran::TimelinePoint> series = {
      {0, 10}, {1, 20}, {2, 30}, {3, 40}};
  EXPECT_DOUBLE_EQ(ran::timeline_average(series, 0, 2), 15.0);
  EXPECT_DOUBLE_EQ(ran::timeline_average(series, 5, 9), 0.0);
  const std::string table = ran::format_timeline("t", "v", series, 2.0);
  EXPECT_NE(table.find("20.00"), std::string::npos);  // 10 * 2
}

}  // namespace
}  // namespace magma
