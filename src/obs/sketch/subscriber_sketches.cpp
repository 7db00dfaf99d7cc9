#include "obs/sketch/subscriber_sketches.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "rpc/wire.h"

namespace magma::obs::sketch {

const char* subscriber_metric_name(SubscriberMetric metric) {
  switch (metric) {
    case SubscriberMetric::kAttachFailures: return "attach_failures";
    case SubscriberMetric::kBearerDrops: return "bearer_drops";
    case SubscriberMetric::kQuotaRejections: return "quota_rejections";
    case SubscriberMetric::kBytes: return "bytes";
  }
  return "unknown";
}

namespace {

// Precision of the distinct-active HLLs: 4 KiB each for ~1.6% error.
constexpr unsigned kHllPrecision = 12;

void encode_topk(rpc::Writer& w, const SpaceSaving& s) {
  w.u64(s.total_weight());
  const std::vector<HeavyHitter> entries = s.top();
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const HeavyHitter& h : entries) {
    w.str(h.key);
    w.u64(h.count);
    w.u64(h.error);
    w.u64(h.exemplar_trace_id);
  }
}

bool decode_topk(rpc::Reader& r, std::size_t capacity, SpaceSaving& out) {
  const std::uint64_t total = r.u64();
  const std::uint32_t count = r.u32();
  // Each entry needs >= 28 wire bytes; the count is wire data — bound the
  // reserve by what the buffer could actually hold.
  if (static_cast<std::uint64_t>(count) * 28 > r.remaining()) return false;
  std::vector<HeavyHitter> entries;
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    HeavyHitter h;
    h.key = r.str();
    h.count = r.u64();
    h.error = r.u64();
    h.exemplar_trace_id = r.u64();
    if (h.error > h.count) return false;  // bound can never exceed estimate
    entries.push_back(std::move(h));
  }
  if (!r.ok()) return false;
  out.assign(capacity, std::move(entries), total);
  return true;
}

void encode_hll(rpc::Writer& w, const HyperLogLog& h) {
  w.u8(static_cast<std::uint8_t>(h.precision()));
  w.bytes(common::BytesView(h.registers().data(), h.registers().size()));
}

bool decode_hll(rpc::Reader& r, HyperLogLog& out) {
  const std::uint8_t precision = r.u8();
  if (precision < 4 || precision > 16) return false;
  const common::Bytes regs = r.bytes();
  if (!r.ok()) return false;
  if (regs.size() != (std::size_t{1} << precision)) return false;
  out.assign(precision, std::vector<std::uint8_t>(regs.begin(), regs.end()));
  return true;
}

}  // namespace

common::Bytes encode_sketch_report(const SketchReport& report) {
  rpc::Writer w;
  w.str(report.gateway_id);
  w.i64(report.time);
  w.u32(static_cast<std::uint32_t>(report.topk_capacity));
  w.u8(static_cast<std::uint8_t>(kSubscriberMetricCount));
  for (const SpaceSaving& s : report.topk) encode_topk(w, s);
  encode_hll(w, report.active_total);
  encode_hll(w, report.active_window);
  return std::move(w).take();
}

common::Result<SketchReport> decode_sketch_report(common::BytesView data) {
  const common::Error malformed{common::ErrorCode::kInvalidArgument,
                                "corrupt sketch report"};
  rpc::Reader r(data);
  SketchReport report;
  report.gateway_id = r.str();
  report.time = r.i64();
  report.topk_capacity = r.u32();
  // Hostile capacity would make every decoded SpaceSaving pre-reserve it;
  // the fleet ships tens, not millions.
  if (report.topk_capacity == 0 || report.topk_capacity > 4096) {
    return malformed;
  }
  const std::uint8_t metrics = r.u8();
  // Sketch count on the wire so a reader with a different metric-set width
  // still decodes; anything past what the buffer could hold is hostile.
  if (metrics > 16) return malformed;
  for (std::uint8_t i = 0; i < metrics && r.ok(); ++i) {
    SpaceSaving decoded(report.topk_capacity);
    if (!decode_topk(r, report.topk_capacity, decoded)) return malformed;
    if (i < kSubscriberMetricCount) {
      report.topk[i] = std::move(decoded);
    }
  }
  if (!decode_hll(r, report.active_total)) return malformed;
  if (!decode_hll(r, report.active_window)) return malformed;
  if (!r.ok() || !r.at_end()) return malformed;
  return report;
}

SubscriberSketches::SubscriberSketches(SketchConfig config)
    : config_(config),
      topk_{SpaceSaving(config.topk_capacity),
            SpaceSaving(config.topk_capacity),
            SpaceSaving(config.topk_capacity),
            SpaceSaving(config.topk_capacity)},
      active_total_(kHllPrecision),
      current_window_(kHllPrecision),
      closed_window_(kHllPrecision) {}

void SubscriberSketches::record(SubscriberMetric metric,
                                const std::string& imsi, std::uint64_t weight,
                                std::uint64_t exemplar_trace_id) {
  topk_[static_cast<std::size_t>(metric)].offer(imsi, weight,
                                                exemplar_trace_id);
  ++records_;
}

void SubscriberSketches::roll_window(sim::TimePoint now) {
  if (config_.window <= 0) return;
  const std::int64_t idx = now / config_.window;
  if (idx == window_index_) return;
  // The current window just closed (windows with no activity in between
  // leave closed empty, which is the honest answer).
  closed_window_ = window_index_ >= 0 && idx == window_index_ + 1
                       ? current_window_
                       : HyperLogLog(kHllPrecision);
  current_window_ = HyperLogLog(kHllPrecision);
  window_index_ = idx;
}

void SubscriberSketches::record_active(const std::string& imsi,
                                       sim::TimePoint now) {
  roll_window(now);
  active_total_.add(imsi);
  current_window_.add(imsi);
}

SketchReport SubscriberSketches::snapshot(const std::string& gateway_id,
                                          sim::TimePoint now) const {
  SketchReport report;
  report.gateway_id = gateway_id;
  report.time = now;
  report.topk_capacity = config_.topk_capacity;
  report.topk = topk_;
  report.active_total = active_total_;
  report.active_window = closed_window_;
  return report;
}

std::size_t SubscriberSketches::memory_bytes() const {
  std::size_t bytes = 0;
  for (const SpaceSaving& s : topk_) bytes += s.memory_bytes();
  bytes += active_total_.memory_bytes();
  bytes += current_window_.memory_bytes();
  bytes += closed_window_.memory_bytes();
  return bytes;
}

std::string format_top_subscribers(SubscriberMetric metric,
                                   const std::vector<HeavyHitter>& entries,
                                   std::size_t k, std::size_t gateways) {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "top subscribers by %s (fleet, %zu gateway%s)\n",
                subscriber_metric_name(metric), gateways,
                gateways == 1 ? "" : "s");
  out += line;
  std::size_t emitted = 0;
  for (const HeavyHitter& h : entries) {
    if (k != 0 && emitted >= k) break;
    if (h.count <= h.error) continue;  // guaranteed lower bound is zero
    if (h.exemplar_trace_id != 0) {
      std::snprintf(line, sizeof(line),
                    "  %-18s >= %" PRIu64 " (+-%" PRIu64
                    ")  trace 0x%016" PRIx64 "\n",
                    h.key.c_str(), h.count - h.error, h.error,
                    h.exemplar_trace_id);
    } else {
      std::snprintf(line, sizeof(line),
                    "  %-18s >= %" PRIu64 " (+-%" PRIu64 ")\n", h.key.c_str(),
                    h.count - h.error, h.error);
    }
    out += line;
    ++emitted;
  }
  if (emitted == 0) out += "  (no heavy hitters above the noise floor)\n";
  return out;
}

}  // namespace magma::obs::sketch
