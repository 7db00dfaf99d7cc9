// Critical-path analysis over a finished span tree.
//
// Given all spans of one trace, decompose the root's wall time into the
// wait states of WaitVector — on-CPU, run-queue, rpc-wait, link-transit,
// timer, other — such that the components sum exactly to the root span's
// duration, and return the dominant-cost edge chain (the child path that
// explains the most time at every level). This is the Dapper/Canopy-style
// answer to "where inside a 900 ms attach did the time go": not which spans
// exist, but which resource each interval of the root was actually spent on.
//
// Attribution rules, applied recursively:
//  * an interval covered by a child span is explained by that child's own
//    decomposition (union coverage, clipped to the parent; overlapping
//    siblings never double-count);
//  * a client span's self-time (the gap around its server child) is
//    link-transit — that is precisely the two one-way network latencies;
//    a client span with no server child (timeout, send failure) is rpc-wait;
//  * any other span's self-time is classified against the wait charges the
//    instrumented layers recorded on it (runq, cpu, timer, rpc, link, in
//    that order), capped by the self-time remaining; what no layer claimed
//    stays `other`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace magma::obs {

// One hop of the dominant-cost chain, root first.
struct CriticalPathEdge {
  std::uint64_t span_id = 0;
  std::string name;
  std::string service;
  std::string node;
  // This span's contribution clipped to its parent (for the root: its full
  // duration).
  sim::Duration duration = 0;
};

struct CriticalPathResult {
  bool valid = false;  // false: no spans / no root found
  std::uint64_t trace_id = 0;
  std::string root_name;
  std::string root_service;
  sim::TimePoint root_start = 0;
  sim::Duration total = 0;  // root span duration
  // Decomposition of `total` by wait state; components (including kOther)
  // sum to `total`.
  WaitVector breakdown{};
  // Dominant-cost edge chain from the root to a leaf.
  std::vector<CriticalPathEdge> path;

  sim::Duration component(WaitState state) const {
    return breakdown[static_cast<std::size_t>(state)];
  }
};

// Analyze one trace's spans (as returned by Tracer::trace_spans — start
// order, parents before same-instant children). The root is the span with
// parent_span_id == 0; if eviction removed it, the earliest span whose
// parent is absent stands in.
CriticalPathResult critical_path(const std::vector<SpanRecord>& spans);

// Convenience: fetch + analyze.
CriticalPathResult critical_path(const Tracer& tracer, std::uint64_t trace_id);

// "cpu 312.5ms, runq 88.1ms, link 120ms" — for bench output and logs.
std::string describe_breakdown(const WaitVector& breakdown);

}  // namespace magma::obs
