// Workload generation — the role Spirent Landslide plays in §4.1.
//
//  * AttachRamp     — N UEs attach at a configurable rate (the paper's
//                     "288 UEs connect at 3 UE/sec"), recording per-attach
//                     outcomes for CSR computation.
//  * DownlinkFlow   — constant-bitrate downlink per UE (the 1.5 Mbps HTTP
//                     download of Figure 5), injected at the SGi in batches.
//  * DiurnalWorkload— the Figure 9 generator: a day/night activity cycle
//                     across a fleet of fixed-wireless subscribers,
//                     producing per-hour active-user counts and volumes
//                     shaped like the AccessParks production network.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/network.h"
#include "ran/ue.h"
#include "sim/random.h"

namespace magma::core {

// ---------------------------------------------------------------------------
// Attach ramp
// ---------------------------------------------------------------------------

struct AttachRecord {
  sim::TimePoint requested = 0;
  bool done = false;
  ran::AttachOutcome outcome;
};

class AttachRamp {
 public:
  // Attach each UE in `ues` through `enb`, spaced 1/rate seconds apart,
  // starting at kernel-now + start_delay.
  AttachRamp(Network& network, std::vector<ran::UeLte*> ues,
             ran::EnodeB& enb, double rate_per_second,
             sim::Duration start_delay = 0);

  const std::vector<AttachRecord>& records() const { return records_; }
  std::size_t completed() const;
  std::size_t succeeded() const;
  // Connection success rate over everything requested so far.
  double csr() const;
  // CSR within [from, to) by request time — the paper's 5-second bins.
  double csr_in_window(sim::TimePoint from, sim::TimePoint to) const;

 private:
  std::vector<AttachRecord> records_;
};

// ---------------------------------------------------------------------------
// Downlink CBR flow
// ---------------------------------------------------------------------------

class DownlinkFlow {
 public:
  // Inject `rate_bps` of downlink toward `ue_ip` at `agw`'s SGi, in batches
  // every `interval`. Runs until stop() or the network stops running.
  DownlinkFlow(Network& network, agw::AccessGateway& agw, common::Ipv4 ue_ip,
               double rate_bps, sim::Duration interval = 100 * sim::kMillisecond,
               std::uint32_t packet_bytes = 1400);
  // `phase` delays the first tick; stagger flows across the interval so a
  // cell's batches don't all land on the radio scheduler in one burst.
  void start(sim::Duration phase = 0);
  void stop() { running_ = false; }
  void set_rate(double rate_bps) { rate_bps_ = rate_bps; }

 private:
  void tick();

  Network& network_;
  agw::AccessGateway& agw_;
  common::Ipv4 ue_ip_;
  double rate_bps_;
  sim::Duration interval_;
  std::uint32_t packet_bytes_;
  bool running_ = false;
  double carry_bytes_ = 0;  // fractional-packet remainder across ticks
};

// ---------------------------------------------------------------------------
// Diurnal workload (Figure 9)
// ---------------------------------------------------------------------------

struct DiurnalConfig {
  int subscribers = 450;
  // Fraction of subscribers active at the daily peak / trough.
  double peak_active_fraction = 0.85;
  double trough_active_fraction = 0.45;
  // Local hour of the activity peak (AccessParks: evenings in parks).
  double peak_hour = 20.0;
  // Per-active-subscriber average downlink rate at peak.
  double peak_rate_bps = 800e3;
};

struct DiurnalSample {
  sim::TimePoint time = 0;
  int active_subscribers = 0;
  double offered_gbytes = 0;  // volume offered during this interval
};

class DiurnalWorkload {
 public:
  DiurnalWorkload(Network& network, agw::AccessGateway& agw,
                  std::vector<common::Ipv4> subscriber_ips,
                  DiurnalConfig config, sim::Rng rng);
  void start();
  const std::vector<DiurnalSample>& samples() const { return samples_; }

 private:
  void tick();
  double activity_at(double hour_of_day) const;

  Network& network_;
  agw::AccessGateway& agw_;
  std::vector<common::Ipv4> ips_;
  DiurnalConfig config_;
  sim::Rng rng_;
  std::vector<DiurnalSample> samples_;
};

}  // namespace magma::core
