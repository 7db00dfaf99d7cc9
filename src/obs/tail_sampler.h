// Tail-based trace sampling (PAPERS.md: Kaldor et al., Canopy).
//
// Error-pinning keeps failed traces, but the slow-yet-successful attach — the
// one an operator actually wants to open — ages out of the finished ring
// behind a flood of fast traces. A TailSampler watches root spans finish and
// keeps the K *slowest* completed traces per root operation per time window,
// pinning them in the tracer's ring (Tracer::pin) so eviction passes over
// them, and unpinning whichever trace a slower arrival displaces.
//
// When a window closes (lazily: on the first root of a later window, or on
// drain), each kept trace is reduced to a TraceSummary — root op, duration,
// critical-path breakdown — and queued for magmad to ship on the metrics
// tick. metricsd aggregates the summaries into the fleet-wide "where does
// attach latency go" table. Traces already pinned for error are never
// counted against K: they are retained regardless, and spending tail budget
// on them would shadow the slow-but-successful traces this exists to keep.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "obs/trace.h"
#include "sim/kernel.h"
#include "sim/time.h"

namespace magma::obs {

// What survives of a sampled trace once its spans leave the ring: enough to
// aggregate fleet-wide latency attribution, nothing more.
struct TraceSummary {
  std::string root_op;       // root span name, e.g. "attach"
  std::string root_service;  // root span service, e.g. "lte_frontend"
  std::string gateway_id;    // node the root ran on
  std::uint64_t trace_id = 0;
  sim::TimePoint start = 0;
  sim::Duration duration = 0;
  // Critical-path decomposition of `duration` (see obs/critical_path.h).
  WaitVector breakdown{};
};

// Wire codec (shipped magmad -> metricsd, best-effort). Same contract as
// the gateway-status codec: reject truncation, trailing garbage, and
// hostile lengths; never trust a wire count for an allocation.
common::Bytes encode_trace_summaries(const std::vector<TraceSummary>& summaries);
common::Result<std::vector<TraceSummary>> decode_trace_summaries(
    common::BytesView data);

struct TailSamplerConfig {
  std::size_t keep_per_op = 4;                 // K slowest per root op
  sim::Duration window = 30 * sim::kSecond;    // 0: one unbounded window
  std::size_t max_ready = 256;                 // summaries awaiting shipping
};

struct TailSamplerStats {
  std::uint64_t roots_seen = 0;
  std::uint64_t kept = 0;       // accepted into the top-K (incl. displacers)
  std::uint64_t displaced = 0;  // keeps later pushed out by slower traces
  std::uint64_t skipped_error_pinned = 0;
  std::uint64_t skipped_op_cap = 0;
  std::uint64_t windows_closed = 0;
  std::uint64_t ready_dropped = 0;  // summaries lost to the ready cap
  std::uint64_t budget_trims = 0;   // keeps dropped by a shrinking budget
};

class TailSampler {
 public:
  TailSampler(sim::Kernel& kernel, Tracer& tracer,
              TailSamplerConfig config = {});
  ~TailSampler();
  TailSampler(const TailSampler&) = delete;
  TailSampler& operator=(const TailSampler&) = delete;

  // Only sample root spans emitted by this node (a gateway samples its own
  // traces, not its neighbors' on the shared tracer). Empty: sample all.
  void set_node_filter(std::string node) { node_filter_ = std::move(node); }

  // Fleet-wide keep budget: the orchestrator assigns each gateway a
  // keep-per-op K on checkin (budget / fleet size), so total trace ingest
  // stays bounded as the fleet grows. Shrinking K trims the current
  // window's fastest keeps immediately (unpinned, counted in budget_trims);
  // growing K takes effect as new roots finish. Clamped to >= 1.
  void set_keep_per_op(std::size_t k);
  std::size_t keep_per_op() const { return config_.keep_per_op; }

  // Summaries of all closed windows, destructively. Closes the current
  // window first if its time has fully passed (so an idle gateway still
  // ships what it kept).
  std::vector<TraceSummary> drain_ready();

  std::size_t held() const;  // traces pinned in the current window
  std::size_t ready() const { return ready_.size(); }
  const TailSamplerStats& stats() const { return stats_; }

 private:
  struct Kept {
    std::uint64_t trace_id = 0;
    sim::TimePoint start = 0;
    sim::Duration duration = 0;
    std::string service;
    std::string node;
  };

  void on_finish(const SpanRecord& span);
  // Summarize + unpin everything kept in the current window.
  void close_current_window();

  sim::Kernel& kernel_;
  Tracer& tracer_;
  TailSamplerConfig config_;
  std::string node_filter_;
  std::int64_t window_index_ = -1;  // -1: nothing sampled yet
  std::map<std::string, std::vector<Kept>> kept_;  // root op -> top-K
  std::deque<TraceSummary> ready_;
  TailSamplerStats stats_;
  std::uint64_t hook_id_ = 0;
};

}  // namespace magma::obs
