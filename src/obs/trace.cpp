#include "obs/trace.h"

#include <algorithm>
#include <tuple>

namespace magma::obs {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kInternal: return "internal";
    case SpanKind::kClient: return "client";
    case SpanKind::kServer: return "server";
  }
  return "?";
}

const char* wait_state_name(WaitState state) {
  switch (state) {
    case WaitState::kCpu: return "cpu";
    case WaitState::kRunq: return "runq";
    case WaitState::kRpcWait: return "rpc_wait";
    case WaitState::kLinkTransit: return "link_transit";
    case WaitState::kTimer: return "timer";
    case WaitState::kOther: return "other";
  }
  return "?";
}

TraceContext Tracer::begin(std::string name, std::string service,
                           std::string node, SpanKind kind,
                           TraceContext parent) {
  if (!parent.valid()) parent = current_;

  SpanRecord span;
  span.trace_id = parent.valid() ? parent.trace_id : next_trace_id_++;
  span.span_id = next_span_id_++;
  span.parent_span_id = parent.valid() ? parent.span_id : 0;
  span.kind = kind;
  span.name = std::move(name);
  span.service = std::move(service);
  span.node = std::move(node);
  span.start = kernel_.now();

  const TraceContext ctx{span.trace_id, span.span_id};
  open_.emplace(span.span_id, std::move(span));
  return ctx;
}

void Tracer::tag(TraceContext span, std::string key, std::string value) {
  auto it = open_.find(span.span_id);
  if (it == open_.end() || it->second.trace_id != span.trace_id) return;
  if (key == "error") it->second.error = true;
  it->second.tags.emplace_back(std::move(key), std::move(value));
}

void Tracer::add_wait(TraceContext span, WaitState state,
                      sim::Duration amount) {
  if (amount <= 0) return;
  auto it = open_.find(span.span_id);
  if (it == open_.end() || it->second.trace_id != span.trace_id) return;
  it->second.wait_ns[static_cast<std::size_t>(state)] += amount;
}

void Tracer::link(TraceContext span, TraceContext target) {
  if (!target.valid()) return;
  auto it = open_.find(span.span_id);
  if (it == open_.end() || it->second.trace_id != span.trace_id) return;
  it->second.links.push_back(target);
}

void Tracer::end(TraceContext span) {
  auto it = open_.find(span.span_id);
  if (it == open_.end() || it->second.trace_id != span.trace_id) return;
  SpanRecord record = std::move(it->second);
  open_.erase(it);
  record.end = kernel_.now();
  ++spans_finished_;

  if (record.error) pin_trace(record.trace_id);
  finished_.push_back(record);
  by_trace_[record.trace_id].push_back(&finished_.back());
  evict_over_retention();
  // Iterate by index: a hook may add/remove hooks while running.
  for (std::size_t i = 0; i < hooks_.size(); ++i) {
    if (hooks_[i].second) hooks_[i].second(record);
  }
}

std::uint64_t Tracer::add_finish_hook(FinishHook hook) {
  const std::uint64_t id = next_hook_id_++;
  hooks_.emplace_back(id, std::move(hook));
  return id;
}

void Tracer::remove_finish_hook(std::uint64_t id) {
  std::erase_if(hooks_, [id](const auto& kv) { return kv.first == id; });
}

void Tracer::set_retention(std::size_t max_finished) {
  max_finished_ = max_finished;
  evict_over_retention();
}

void Tracer::set_max_pinned_traces(std::size_t max_pinned) {
  max_pinned_traces_ = max_pinned;
  while (pinned_.size() > max_pinned_traces_ && !pin_order_.empty()) {
    pinned_.erase(pin_order_.front());
    pin_order_.pop_front();
  }
}

void Tracer::pin_trace(std::uint64_t trace_id) {
  if (max_pinned_traces_ == 0 || pinned_.count(trace_id) != 0) return;
  pinned_.insert(trace_id);
  pin_order_.push_back(trace_id);
  // Error storm: release the oldest pin rather than growing without bound
  // (its spans become ordinary eviction candidates again).
  while (pinned_.size() > max_pinned_traces_) {
    pinned_.erase(pin_order_.front());
    pin_order_.pop_front();
  }
}

void Tracer::evict_over_retention() {
  while (finished_.size() > max_finished_) {
    if (!pinned_.empty() || !tail_pinned_.empty()) {
      // Oldest span of an *unpinned* trace goes first. Pinned spans at the
      // front rotate to the back instead of being scanned past every call:
      // long-lived pins (a sampler holds its keeps for a whole window)
      // would otherwise make each eviction a linear walk plus a mid-deque
      // erase. Rotation is O(1) amortized — each pinned span moves once
      // per eviction round, and consumers order by start time, not deque
      // position. The rotation budget covers the everything-pinned case:
      // after a full lap the size bound still wins and the front drops.
      std::size_t rotations = finished_.size();
      while (rotations-- > 0 && trace_pinned(finished_.front().trace_id)) {
        const SpanRecord* from = &finished_.front();
        finished_.push_back(std::move(finished_.front()));
        std::vector<const SpanRecord*>& spans =
            by_trace_.at(finished_.back().trace_id);
        *std::find(spans.begin(), spans.end(), from) = &finished_.back();
        finished_.pop_front();
      }
    }
    const SpanRecord& oldest = finished_.front();
    auto it = by_trace_.find(oldest.trace_id);
    std::erase(it->second, &oldest);
    if (it->second.empty()) by_trace_.erase(it);
    finished_.pop_front();
    ++spans_dropped_;
  }
}

std::vector<SpanRecord> Tracer::trace_spans(std::uint64_t trace_id) const {
  std::vector<SpanRecord> out;
  auto it = by_trace_.find(trace_id);
  if (it == by_trace_.end()) return out;
  out.reserve(it->second.size());
  for (const SpanRecord* span : it->second) out.push_back(*span);
  // span_id tie-break: ids are allocated sequentially, so spans begun at the
  // same instant still come out in begin order (parents before children).
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return std::tie(a.start, a.span_id) <
                            std::tie(b.start, b.span_id);
                   });
  return out;
}

}  // namespace magma::obs
