// Per-subscriber sketch aggregation on the gateway, and the wire format
// that ships it to the orchestrator on the magmad metrics tick.
//
// accessd/sessiond/pipelined feed per-IMSI outcomes here instead of into
// metricsd series: the footprint is O(K + 2^p) however many subscribers
// the gateway serves, which is what makes the subscriber axis affordable
// at the paper's fleet scale (§4.3.1). Sketches ship as cumulative
// snapshots — like histogram shipping, a lost report is self-correcting on
// the next tick.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "obs/sketch/sketch.h"
#include "sim/time.h"

namespace magma::obs::sketch {

// The per-subscriber outcomes worth a top-K answer, per the paper's
// operator questions: who fails to attach, who loses bearers, who runs
// into quota, who moves the bytes.
enum class SubscriberMetric : std::uint8_t {
  kAttachFailures = 0,
  kBearerDrops = 1,
  kQuotaRejections = 2,
  kBytes = 3,
};
inline constexpr std::size_t kSubscriberMetricCount = 4;
const char* subscriber_metric_name(SubscriberMetric metric);

struct SketchConfig {
  std::size_t topk_capacity = 64;
  // Active-IMSI window: `active_window()` answers over the last *closed*
  // window of this length, so the number is a rate ("distinct IMSIs per
  // window"), not an ever-growing total.
  sim::Duration window = 5 * sim::kMinute;
};

// One gateway's cumulative sketch state at a point in time. Also the wire
// message — the codec below ships it verbatim.
struct SketchReport {
  std::string gateway_id;
  sim::TimePoint time = 0;
  std::size_t topk_capacity = 0;
  std::array<SpaceSaving, kSubscriberMetricCount> topk;
  HyperLogLog active_total;   // distinct IMSIs since boot
  HyperLogLog active_window;  // distinct IMSIs in the last closed window
};

common::Bytes encode_sketch_report(const SketchReport& report);
common::Result<SketchReport> decode_sketch_report(common::BytesView data);

// The gateway-side aggregation unit (owned by AccessGateway, read by
// magmad's metrics tick).
class SubscriberSketches {
 public:
  explicit SubscriberSketches(SketchConfig config = {});

  // Record a per-IMSI outcome. `exemplar_trace_id` pivots the heavy-hitter
  // entry back to one pinned trace of the contributing event (0: none).
  void record(SubscriberMetric metric, const std::string& imsi,
              std::uint64_t weight = 1, std::uint64_t exemplar_trace_id = 0);
  // Any sign of life from an IMSI (attach attempt, traffic poll) — feeds
  // the distinct-active counters.
  void record_active(const std::string& imsi, sim::TimePoint now);

  SketchReport snapshot(const std::string& gateway_id,
                        sim::TimePoint now) const;
  const SpaceSaving& topk(SubscriberMetric metric) const {
    return topk_[static_cast<std::size_t>(metric)];
  }
  double distinct_active_total() const { return active_total_.estimate(); }
  // Estimate over the last *closed* window (0 until one closes).
  double distinct_active_window() const { return closed_window_.estimate(); }

  std::uint64_t records() const { return records_; }
  // Total sketch footprint — the bench's O(K + 2^p) assertion reads this.
  std::size_t memory_bytes() const;

 private:
  void roll_window(sim::TimePoint now);

  SketchConfig config_;
  std::array<SpaceSaving, kSubscriberMetricCount> topk_;
  HyperLogLog active_total_;
  HyperLogLog current_window_;
  HyperLogLog closed_window_;
  std::int64_t window_index_ = -1;
  std::uint64_t records_ = 0;
};

// Render the fleet-merged top-K with explicit bounds and exemplars:
//
//   top subscribers by attach_failures (fleet, 3 gateways)
//     IMSI001010000000042  >= 497 (+-12)  trace 0x9a3f...
//
// `entries` come from SpaceSaving::top(); rows whose guaranteed lower
// bound (count - error) is zero are noise and are skipped.
std::string format_top_subscribers(SubscriberMetric metric,
                                   const std::vector<HeavyHitter>& entries,
                                   std::size_t k, std::size_t gateways);

}  // namespace magma::obs::sketch
