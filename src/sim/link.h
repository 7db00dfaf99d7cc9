// Point-to-point link model: bandwidth, propagation delay, jitter, loss.
//
// The paper repeatedly leans on backhaul quality — satellite and shared
// microwave links with loss and high latency are why Magma terminates GTP at
// the AGW and syncs state with desired-state semantics. This model gives the
// experiments a dial for exactly those properties.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "sim/kernel.h"
#include "sim/random.h"
#include "sim/time.h"

namespace magma::sim {

struct LinkConfig {
  double bandwidth_bps = 1e9;       // 1 Gbps default
  Duration latency = 1 * kMillisecond;  // one-way propagation delay
  Duration jitter = 0;              // uniform [0, jitter) added per packet
  double loss_probability = 0.0;    // i.i.d. per-packet loss
  std::string name = "link";
};

// Canned profiles used across benches and examples.
LinkConfig lan_link();          // 1 Gbps, 0.2 ms, lossless
LinkConfig fiber_backhaul();    // 1 Gbps, 5 ms, ~0 loss
LinkConfig microwave_backhaul();// 100 Mbps, 15 ms, 0.5% loss, 3 ms jitter
LinkConfig satellite_backhaul();// 20 Mbps, 300 ms, 2% loss, 20 ms jitter

struct LinkStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t bytes_delivered = 0;
};

// Unidirectional link with FIFO serialization. Use two for a duplex path.
class Link {
 public:
  Link(Kernel& kernel, Rng rng, LinkConfig config);

  // Queue `size_bytes` for transmission; `deliver` runs at arrival time
  // unless the packet is lost. `on_drop` (optional) runs at the would-be
  // departure time when the packet is lost. Both are EventFn: captures up to
  // kEventInlineBytes schedule without touching the heap.
  void transmit(std::uint64_t size_bytes, EventFn deliver,
                EventFn on_drop = nullptr);

  const LinkConfig& config() const { return config_; }
  const LinkStats& stats() const { return stats_; }

  // Packets queued for (or currently in) serialization right now — the
  // transmit-queue depth a router would report. Exposed to metricsd as the
  // `link_queue_depth` gauge: a congested backhaul shows up here long before
  // drops do.
  std::size_t queue_depth() const;

  void set_loss_probability(double p) { config_.loss_probability = p; }
  // Administratively disable the link (models backhaul outage): everything
  // transmitted while down is dropped.
  void set_up(bool up) { up_ = up; }

 private:
  Kernel& kernel_;
  Rng rng_;
  LinkConfig config_;
  LinkStats stats_;
  TimePoint next_free_ = 0;  // when the transmitter finishes current packet
  // Departure times of packets not yet fully serialized; expired entries
  // are lazily popped when the depth is read.
  mutable std::deque<TimePoint> departures_;
  bool up_ = true;
};

}  // namespace magma::sim
