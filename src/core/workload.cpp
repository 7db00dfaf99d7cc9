#include "core/workload.h"

#include <cmath>

namespace magma::core {

// ---------------------------------------------------------------------------
// AttachRamp
// ---------------------------------------------------------------------------

AttachRamp::AttachRamp(Network& network, std::vector<ran::UeLte*> ues,
                       ran::EnodeB& enb, double rate_per_second,
                       sim::Duration start_delay) {
  records_.resize(ues.size());
  const sim::Duration spacing =
      rate_per_second > 0 ? sim::from_seconds(1.0 / rate_per_second) : 0;
  for (std::size_t i = 0; i < ues.size(); ++i) {
    const sim::Duration when =
        start_delay + static_cast<sim::Duration>(i) * spacing;
    ran::UeLte* ue = ues[i];
    ran::EnodeB* enb_ptr = &enb;
    AttachRecord* record = &records_[i];
    network.kernel().schedule(when, [ue, enb_ptr, record,
                                     &kernel = network.kernel()]() {
      record->requested = kernel.now();
      ue->attach(*enb_ptr, [record](const ran::AttachOutcome& outcome) {
        record->done = true;
        record->outcome = outcome;
      });
    });
  }
}

std::size_t AttachRamp::completed() const {
  std::size_t n = 0;
  for (const AttachRecord& r : records_) n += r.done ? 1 : 0;
  return n;
}

std::size_t AttachRamp::succeeded() const {
  std::size_t n = 0;
  for (const AttachRecord& r : records_) {
    n += (r.done && r.outcome.success) ? 1 : 0;
  }
  return n;
}

double AttachRamp::csr() const {
  std::size_t requested = 0;
  std::size_t success = 0;
  for (const AttachRecord& r : records_) {
    if (r.requested == 0 && !r.done) continue;  // not yet fired
    ++requested;
    success += (r.done && r.outcome.success) ? 1 : 0;
  }
  return requested == 0 ? 1.0
                        : static_cast<double>(success) /
                              static_cast<double>(requested);
}

double AttachRamp::csr_in_window(sim::TimePoint from,
                                 sim::TimePoint to) const {
  std::size_t requested = 0;
  std::size_t success = 0;
  for (const AttachRecord& r : records_) {
    if (r.requested < from || r.requested >= to) continue;
    ++requested;
    success += (r.done && r.outcome.success) ? 1 : 0;
  }
  return requested == 0 ? 1.0
                        : static_cast<double>(success) /
                              static_cast<double>(requested);
}

// ---------------------------------------------------------------------------
// DownlinkFlow
// ---------------------------------------------------------------------------

DownlinkFlow::DownlinkFlow(Network& network, agw::AccessGateway& agw,
                           common::Ipv4 ue_ip, double rate_bps,
                           sim::Duration interval, std::uint32_t packet_bytes)
    : network_(network),
      agw_(agw),
      ue_ip_(ue_ip),
      rate_bps_(rate_bps),
      interval_(interval),
      packet_bytes_(packet_bytes) {}

void DownlinkFlow::start(sim::Duration phase) {
  if (running_) return;
  running_ = true;
  if (phase > 0) {
    network_.kernel().schedule(phase, [this]() { tick(); });
  } else {
    tick();
  }
}

void DownlinkFlow::tick() {
  if (!running_) return;
  const double interval_s = sim::to_seconds(interval_);
  carry_bytes_ += rate_bps_ * interval_s / 8.0;
  const double per_packet = static_cast<double>(packet_bytes_) +
                            28.0;  // UDP/IP overhead on the wire
  const auto count = static_cast<std::uint64_t>(carry_bytes_ / per_packet);
  if (count > 0) {
    carry_bytes_ -= static_cast<double>(count) * per_packet;
    network_.inject_downlink(agw_, ue_ip_, packet_bytes_, count);
  }
  network_.kernel().schedule(interval_, [this]() { tick(); });
}

// ---------------------------------------------------------------------------
// DiurnalWorkload
// ---------------------------------------------------------------------------

namespace {
constexpr double kRateNoise = 0.25;  // lognormal-ish spread across hours
constexpr sim::Duration kSampleInterval = 1 * sim::kHour;
}  // namespace

DiurnalWorkload::DiurnalWorkload(Network& network, agw::AccessGateway& agw,
                                 std::vector<common::Ipv4> subscriber_ips,
                                 DiurnalConfig config, sim::Rng rng)
    : network_(network),
      agw_(agw),
      ips_(std::move(subscriber_ips)),
      config_(config),
      rng_(rng) {}

void DiurnalWorkload::start() {
  tick();
}

double DiurnalWorkload::activity_at(double hour_of_day) const {
  // Smooth day/night cycle peaking at peak_hour.
  const double phase =
      (hour_of_day - config_.peak_hour) * 2.0 * 3.14159265358979 / 24.0;
  const double wave = 0.5 * (1.0 + std::cos(phase));  // 1 at peak, 0 opposite
  return config_.trough_active_fraction +
         (config_.peak_active_fraction - config_.trough_active_fraction) *
             wave;
}

void DiurnalWorkload::tick() {
  const double hour =
      std::fmod(sim::to_seconds(network_.kernel().now()) / 3600.0, 24.0);
  const double activity = activity_at(hour);

  const int active = static_cast<int>(
      static_cast<double>(ips_.size()) *
      std::min(1.0, std::max(0.0, activity + rng_.normal(0, 0.03))));

  const double interval_s = sim::to_seconds(kSampleInterval);
  double offered_bytes = 0;
  for (int i = 0; i < active; ++i) {
    const common::Ipv4 ip = ips_[rng_.uniform_int(ips_.size())];
    // Per-subscriber hourly volume, scaled by the activity level with
    // multiplicative noise.
    double rate = config_.peak_rate_bps * activity;
    rate *= std::exp(rng_.normal(0, kRateNoise));
    const double bytes = rate * interval_s / 8.0;
    // Inject as one aggregate batch for the hour (coarse but sufficient
    // for per-hour reporting).
    const std::uint32_t packet = 1400;
    const auto count =
        static_cast<std::uint64_t>(bytes / (packet + 28.0));
    if (count > 0) network_.inject_downlink(agw_, ip, packet, count);
    offered_bytes += bytes;
  }

  DiurnalSample sample;
  sample.time = network_.kernel().now();
  sample.active_subscribers = active;
  sample.offered_gbytes = offered_bytes / 1e9;
  samples_.push_back(sample);

  network_.kernel().schedule(kSampleInterval, [this]() { tick(); });
}

}  // namespace magma::core
