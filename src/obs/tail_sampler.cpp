#include "obs/tail_sampler.h"

#include <algorithm>

#include "obs/critical_path.h"
#include "obs/host_profiler.h"
#include "rpc/wire.h"

namespace magma::obs {

common::Bytes encode_trace_summaries(
    const std::vector<TraceSummary>& summaries) {
  rpc::Writer w;
  w.u64(summaries.size());
  for (const TraceSummary& s : summaries) {
    w.str(s.root_op);
    w.str(s.root_service);
    w.str(s.gateway_id);
    w.u64(s.trace_id);
    w.i64(s.start);
    w.i64(s.duration);
    // State count on the wire so a reader with a different WaitVector width
    // still decodes (unknown states are dropped, missing ones stay zero).
    w.u8(static_cast<std::uint8_t>(kWaitStateCount));
    for (const sim::Duration d : s.breakdown) w.i64(d);
  }
  return std::move(w).take();
}

common::Result<std::vector<TraceSummary>> decode_trace_summaries(
    common::BytesView data) {
  rpc::Reader r(data);
  const std::uint64_t count = r.u64();
  std::vector<TraceSummary> out;
  // Each summary needs ≥ 37 wire bytes (three length-prefixed strings plus
  // the fixed fields); the count is wire data — never reserve it blindly.
  out.reserve(std::min<std::uint64_t>(count, r.remaining() / 37 + 1));
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    TraceSummary s;
    s.root_op = r.str();
    s.root_service = r.str();
    s.gateway_id = r.str();
    s.trace_id = r.u64();
    s.start = r.i64();
    s.duration = r.i64();
    const std::uint8_t states = r.u8();
    if (static_cast<std::uint64_t>(states) * 8 > r.remaining()) {
      return common::Error{common::ErrorCode::kInvalidArgument,
                           "oversized trace summary"};
    }
    for (std::uint8_t st = 0; st < states && r.ok(); ++st) {
      const sim::Duration d = r.i64();
      if (st < kWaitStateCount) s.breakdown[st] = d;
    }
    out.push_back(std::move(s));
  }
  if (!r.ok() || !r.at_end()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt trace summary report"};
  }
  return out;
}

TailSampler::TailSampler(sim::Kernel& kernel, Tracer& tracer,
                         TailSamplerConfig config)
    : kernel_(kernel), tracer_(tracer), config_(config) {
  hook_id_ = tracer_.add_finish_hook(
      [this](const SpanRecord& span) { on_finish(span); });
}

TailSampler::~TailSampler() {
  tracer_.remove_finish_hook(hook_id_);
  for (const auto& [op, keeps] : kept_) {
    for (const Kept& k : keeps) tracer_.unpin(k.trace_id);
  }
}

void TailSampler::set_keep_per_op(std::size_t k) {
  k = std::max<std::size_t>(1, k);
  if (k == config_.keep_per_op) return;
  config_.keep_per_op = k;
  // Shrinking: give back the over-budget pins now, fastest first — the
  // slowest keeps are the ones this sampler exists to retain.
  for (auto& [op, keeps] : kept_) {
    while (keeps.size() > k) {
      auto fastest = std::min_element(
          keeps.begin(), keeps.end(),
          [](const Kept& a, const Kept& b) { return a.duration < b.duration; });
      tracer_.unpin(fastest->trace_id);
      keeps.erase(fastest);
      ++stats_.budget_trims;
    }
  }
}

std::size_t TailSampler::held() const {
  std::size_t n = 0;
  for (const auto& [op, keeps] : kept_) n += keeps.size();
  return n;
}

void TailSampler::on_finish(const SpanRecord& span) {
  if (span.parent_span_id != 0) return;  // only roots are sampled
  if (!node_filter_.empty() && span.node != node_filter_) return;
  ++stats_.roots_seen;

  // Lazy window rollover, driven by root completion times (deterministic:
  // independent of when drain_ready is called).
  const std::int64_t idx =
      config_.window > 0 ? span.end / config_.window : 0;
  if (window_index_ < 0) {
    window_index_ = idx;
  } else if (idx > window_index_) {
    close_current_window();
    window_index_ = idx;
  }

  // Errored traces are already retained by the error pin; spending tail
  // budget on them would shadow the slow-but-successful ones.
  if (span.error || tracer_.error_pinned(span.trace_id)) {
    ++stats_.skipped_error_pinned;
    return;
  }

  auto it = kept_.find(span.name);
  if (it == kept_.end()) {
    if (kept_.size() >= config_.max_ops_per_window) {
      ++stats_.skipped_op_cap;
      return;
    }
    it = kept_.emplace(span.name, std::vector<Kept>{}).first;
    it->second.reserve(config_.keep_per_op);
  }
  std::vector<Kept>& keeps = it->second;
  const Kept candidate{span.trace_id, span.start, span.duration(),
                       span.service, span.node};
  if (keeps.size() < config_.keep_per_op) {
    keeps.push_back(candidate);
    tracer_.pin(span.trace_id);
    ++stats_.kept;
    return;
  }
  // Full: displace the fastest keep, but only for a strictly slower trace
  // (ties keep the incumbent — first-seen wins).
  auto fastest = std::min_element(
      keeps.begin(), keeps.end(),
      [](const Kept& a, const Kept& b) { return a.duration < b.duration; });
  if (keeps.empty() || candidate.duration <= fastest->duration) return;
  tracer_.unpin(fastest->trace_id);
  ++stats_.displaced;
  *fastest = candidate;
  tracer_.pin(span.trace_id);
  ++stats_.kept;
}

void TailSampler::close_current_window() {
  MAGMA_HOST_SCOPE("obs", "window_close");
  for (auto& [op, keeps] : kept_) {
    for (const Kept& k : keeps) {
      TraceSummary s;
      const CriticalPathResult cp = critical_path(tracer_, k.trace_id);
      if (cp.valid) {
        s.root_op = cp.root_name;
        s.root_service = cp.root_service;
        s.start = cp.root_start;
        s.duration = cp.total;
        s.breakdown = cp.breakdown;
      } else {
        // Spans already gone (tiny ring): ship what the keep recorded, all
        // of it unattributed.
        s.root_op = op;
        s.root_service = k.service;
        s.start = k.start;
        s.duration = k.duration;
        s.breakdown[static_cast<std::size_t>(WaitState::kOther)] = k.duration;
      }
      s.gateway_id = k.node;
      s.trace_id = k.trace_id;
      tracer_.unpin(k.trace_id);
      ready_.push_back(std::move(s));
      if (ready_.size() > config_.max_ready) {
        ready_.pop_front();
        ++stats_.ready_dropped;
      }
    }
  }
  kept_.clear();
  ++stats_.windows_closed;
}

std::vector<TraceSummary> TailSampler::drain_ready() {
  // An idle gateway still ships: close the window if its time fully passed
  // without a newer root arriving to roll it.
  if (window_index_ >= 0 && config_.window > 0 &&
      kernel_.now() / config_.window > window_index_) {
    close_current_window();
    window_index_ = kernel_.now() / config_.window;
  }
  std::vector<TraceSummary> out(ready_.begin(), ready_.end());
  ready_.clear();
  return out;
}

}  // namespace magma::obs
