#include "obs/tail_sampler.h"

#include <algorithm>

#include "obs/critical_path.h"
#include "obs/host_profiler.h"
#include "rpc/fields.h"

namespace magma::obs {

namespace {
constexpr std::size_t kMaxOpsPerWindow = 64;  // distinct root ops tracked
}  // namespace

// The breakdown travels with its state count, which decode checks against
// kWaitStateCount.
MAGMA_WIRE_FIELDS(TraceSummary, m.root_op, m.root_service, m.gateway_id,
                  m.trace_id, m.start, m.duration, m.breakdown);

common::Bytes encode_trace_summaries(
    const std::vector<TraceSummary>& summaries) {
  return rpc::encode_record(summaries);
}

common::Result<std::vector<TraceSummary>> decode_trace_summaries(
    common::BytesView data) {
  return rpc::decode_record<std::vector<TraceSummary>>(
      data, "corrupt trace summary report");
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
    if (kept_.size() >= kMaxOpsPerWindow) {
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
