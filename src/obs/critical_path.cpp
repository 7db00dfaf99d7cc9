#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

namespace magma::obs {

namespace {

using ChildIndex =
    std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>>;

void add_into(WaitVector& into, const WaitVector& from) {
  for (std::size_t i = 0; i < kWaitStateCount; ++i) into[i] += from[i];
}

void charge(WaitVector& v, WaitState state, sim::Duration amount) {
  if (amount > 0) v[static_cast<std::size_t>(state)] += amount;
}

// Decompose `span.duration()` into a WaitVector that sums to it exactly.
WaitVector walk(const SpanRecord& span, const ChildIndex& children,
                ChildIndex::mapped_type const* root_orphans) {
  WaitVector out{};
  const sim::Duration total = span.duration();
  if (total <= 0) return out;

  // Union coverage by children, clipped to the span and swept in start
  // order so overlapping siblings are not double-counted. Children are
  // scaled when the clip truncates them (rare: a child out-living its
  // parent) so the invariant survives.
  sim::Duration covered = 0;
  sim::TimePoint cursor = span.start;
  auto it = children.find(span.span_id);
  const std::vector<const SpanRecord*>* kids =
      it != children.end() ? &it->second : nullptr;
  const SpanRecord* server_child = nullptr;
  if (kids != nullptr) {
    for (const SpanRecord* child : *kids) {
      if (child->kind == SpanKind::kServer) server_child = child;
      const sim::TimePoint s = std::max(child->start, cursor);
      const sim::TimePoint e = std::min(child->end, span.end);
      const sim::Duration clipped = e - s;
      if (clipped <= 0) continue;
      WaitVector sub = walk(*child, children, nullptr);
      const sim::Duration child_total = child->duration();
      if (child_total > clipped) {
        // Clip truncated this child: scale its decomposition down so the
        // parent still sums exactly (remainder goes to the largest term).
        WaitVector scaled{};
        sim::Duration assigned = 0;
        std::size_t largest = 0;
        for (std::size_t i = 0; i < kWaitStateCount; ++i) {
          scaled[i] = sub[i] * clipped / child_total;
          assigned += scaled[i];
          if (scaled[i] > scaled[largest]) largest = i;
        }
        scaled[largest] += clipped - assigned;
        sub = scaled;
      }
      add_into(out, sub);
      covered += clipped;
      cursor = std::max(cursor, e);
    }
  }
  // The root also absorbs orphans: spans whose parent was evicted from the
  // ring still belong to this trace's timeline (best-effort; only
  // non-overlapping tail coverage is counted).
  if (root_orphans != nullptr) {
    for (const SpanRecord* orphan : *root_orphans) {
      if (orphan->span_id == span.span_id) continue;
      const sim::TimePoint s = std::max(orphan->start, cursor);
      const sim::TimePoint e = std::min(orphan->end, span.end);
      if (e <= s) continue;
      WaitVector sub = walk(*orphan, children, nullptr);
      add_into(out, sub);
      covered += e - s;
      cursor = std::max(cursor, e);
    }
  }

  sim::Duration self = total - covered;
  if (self <= 0) return out;

  if (span.kind == SpanKind::kClient) {
    // The gap around a server child is the round trip on the wire; with no
    // server child the whole call was spent waiting on an RPC that never
    // produced a server span (timeout, send failure, lost response).
    charge(out,
           server_child != nullptr ? WaitState::kLinkTransit
                                   : WaitState::kRpcWait,
           self);
    return out;
  }

  // Classify self-time against the span's recorded wait charges. Charges
  // may overlap child coverage (e.g. a traced CPU task emits a child span
  // covering the same interval the scheduler charged as kCpu), so each
  // state is capped by the self-time still unexplained.
  static constexpr WaitState kOrder[] = {
      WaitState::kRunq, WaitState::kCpu, WaitState::kTimer,
      WaitState::kRpcWait, WaitState::kLinkTransit};
  for (const WaitState state : kOrder) {
    if (self <= 0) break;
    const sim::Duration claimed = std::min(self, span.wait(state));
    charge(out, state, claimed);
    self -= claimed;
  }
  charge(out, WaitState::kOther, self);
  return out;
}

}  // namespace

CriticalPathResult critical_path(const std::vector<SpanRecord>& spans) {
  CriticalPathResult result;
  if (spans.empty()) return result;

  std::unordered_set<std::uint64_t> ids;
  ids.reserve(spans.size());
  for (const SpanRecord& s : spans) ids.insert(s.span_id);

  ChildIndex children;
  const SpanRecord* root = nullptr;
  std::vector<const SpanRecord*> orphans;  // parent evicted, not the root
  for (const SpanRecord& s : spans) {
    if (s.parent_span_id == 0) {
      if (root == nullptr) root = &s;
    } else if (ids.count(s.parent_span_id) != 0) {
      children[s.parent_span_id].push_back(&s);
    } else {
      orphans.push_back(&s);
    }
  }
  if (root == nullptr) {
    // Ring eviction took the root; the earliest orphan stands in.
    if (orphans.empty()) return result;
    root = orphans.front();
  }

  result.valid = true;
  result.trace_id = root->trace_id;
  result.root_name = root->name;
  result.root_service = root->service;
  result.root_start = root->start;
  result.total = root->duration();
  result.breakdown = walk(*root, children, &orphans);

  // Dominant-cost chain: at every level follow the child with the largest
  // clipped contribution.
  const SpanRecord* at = root;
  sim::Duration contribution = root->duration();
  while (at != nullptr) {
    result.path.push_back(CriticalPathEdge{at->span_id, at->name, at->service,
                                           at->node, contribution});
    auto it = children.find(at->span_id);
    if (it == children.end()) break;
    const SpanRecord* best = nullptr;
    sim::Duration best_clipped = 0;
    for (const SpanRecord* child : it->second) {
      const sim::Duration clipped = std::min(child->end, at->end) -
                                    std::max(child->start, at->start);
      if (best == nullptr || clipped > best_clipped) {
        best = child;
        best_clipped = clipped;
      }
    }
    at = best;
    contribution = best_clipped;
  }
  return result;
}

CriticalPathResult critical_path(const Tracer& tracer,
                                 std::uint64_t trace_id) {
  return critical_path(tracer.trace_spans(trace_id));
}

std::string describe_breakdown(const WaitVector& breakdown) {
  std::string out;
  for (std::size_t i = 0; i < kWaitStateCount; ++i) {
    if (breakdown[i] <= 0) continue;
    if (!out.empty()) out += ", ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s %.3fms",
                  wait_state_name(static_cast<WaitState>(i)),
                  sim::to_seconds(breakdown[i]) * 1e3);
    out += buf;
  }
  return out.empty() ? "(empty)" : out;
}

}  // namespace magma::obs
