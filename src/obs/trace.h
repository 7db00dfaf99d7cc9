// Deterministic distributed tracing over the simulation clock.
//
// The paper's operational-cost argument (§4.3.1) leans on first-class
// observability; this is the repository's answer to "where inside a 900 ms
// attach did the time go". A Tracer records spans — named intervals with a
// service, a node (gateway or orchestrator), and a parent — keyed by a
// TraceContext that the RPC layer carries across the wire, so one attach
// yields a single connected tree spanning the AGW and the orchestrator.
//
// Determinism: span ids are sequential per Tracer and timestamps come from
// sim::Kernel, so identical runs produce identical traces. One Tracer is
// shared by every node of a core::Network — the ids double as global
// ordering, and cross-node traces need no id reconciliation.
//
// Propagation model (single-threaded simulator, so no TLS needed):
//  * `current()` holds the context of the innermost active Scope;
//  * synchronous children pick it up implicitly (begin() with no parent);
//  * async continuations capture the TraceContext by value into their
//    lambdas and re-enter it with a Scope.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/kernel.h"
#include "sim/time.h"

namespace magma::obs {

// Wire-propagatable identity of a span. Zero trace_id means "not traced";
// everything downstream treats that as "do nothing", so untraced unit tests
// pay no cost and need no wiring.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

enum class SpanKind : std::uint8_t { kInternal = 0, kClient = 1, kServer = 2 };
const char* span_kind_name(SpanKind kind);

// Where a span's time went while it was open. The instrumented layers charge
// these as they learn them: sim::CpuModel charges kCpu/kRunq when a task
// starts, rpc::RpcNode charges kRpcWait when a call completes, and the
// access stack charges kLinkTransit for round trips it spends waiting on the
// UE. No layer charges kTimer today; the state stays because the
// TraceSummary wire format carries kWaitStateCount components. kOther is
// never charged directly — the critical-path walk uses it for self-time it
// cannot classify.
enum class WaitState : std::uint8_t {
  kCpu = 0,          // on a core, executing
  kRunq = 1,         // runnable, waiting for a core (or a worker slot)
  kRpcWait = 2,      // blocked on an outstanding RPC
  kLinkTransit = 3,  // in flight on a network link
  kTimer = 4,        // blocked on a timer (retry backoff, pacing)
  kOther = 5,        // unattributed self-time
};
inline constexpr std::size_t kWaitStateCount = 6;
const char* wait_state_name(WaitState state);

// Per-state accumulated durations; indexed by WaitState.
using WaitVector = std::array<sim::Duration, kWaitStateCount>;

struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  // 0: root
  SpanKind kind = SpanKind::kInternal;
  std::string name;     // operation, e.g. "attach", "streamer/GetUpdates"
  std::string service;  // emitting service, e.g. "accessd" (Chrome: thread)
  std::string node;     // gateway id or "orc8r" (Chrome: process)
  sim::TimePoint start = 0;
  sim::TimePoint end = 0;
  std::vector<std::pair<std::string, std::string>> tags;
  // Causally related spans in *other* traces (OpenTelemetry span links):
  // e.g. the one RPC that ships an event batch links every batched trace.
  std::vector<TraceContext> links;
  // Set when the span was tagged "error"; an erroring span pins its whole
  // trace against drop-oldest eviction (see Tracer::set_retention).
  bool error = false;
  // Accumulated off-/on-CPU attribution charged via Tracer::add_wait. The
  // states need not cover the whole duration — the critical-path walk
  // classifies the span's *self*-time against this vector and labels any
  // remainder kOther.
  WaitVector wait_ns{};

  sim::Duration duration() const { return end - start; }
  sim::Duration wait(WaitState state) const {
    return wait_ns[static_cast<std::size_t>(state)];
  }
};

class Tracer {
 public:
  explicit Tracer(sim::Kernel& kernel) : kernel_(kernel) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Open a span. An invalid `parent` falls back to current(); no current
  // context starts a fresh trace. Returns the new span's context.
  TraceContext begin(std::string name, std::string service, std::string node,
                     SpanKind kind = SpanKind::kInternal,
                     TraceContext parent = {});
  // Attach a key/value tag to an open span (no-op if unknown/closed).
  // A tag with key "error" additionally marks the span as errored, which
  // pins its trace in the finished ring (retain-on-error).
  void tag(TraceContext span, std::string key, std::string value);
  // Link `span` to a causally related span of another trace (no-op when
  // either context is invalid or `span` is unknown/closed).
  void link(TraceContext span, TraceContext target);
  // Charge `amount` of `span`'s open time to a wait state (no-op if the
  // span is unknown/closed or the amount is not positive). Charges
  // accumulate; nothing requires them to cover the span's duration.
  void add_wait(TraceContext span, WaitState state, sim::Duration amount);
  // Close a span: stamps the end time, moves it to the finished ring and
  // fires the finish hooks. Closing an unknown or already-closed span is a
  // no-op (failure paths may race an explicit end with a cleanup end).
  void end(TraceContext span);

  // Context of the innermost active Scope (invalid when none).
  TraceContext current() const { return current_; }

  // RAII propagation guard: makes `ctx` the current context for its
  // lifetime. Null-tracer and invalid-context safe.
  class Scope {
   public:
    Scope(Tracer* tracer, TraceContext ctx) : tracer_(tracer) {
      if (tracer_ != nullptr) {
        prev_ = tracer_->current_;
        tracer_->current_ = ctx;
      }
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->current_ = prev_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    TraceContext prev_{};
  };

  // Finish hooks observe every completed span (AGWs aggregate latency
  // histograms this way). Remove with the returned id — components
  // outliving the hook's captures must deregister in their destructor.
  using FinishHook = std::function<void(const SpanRecord&)>;
  std::uint64_t add_finish_hook(FinishHook hook);
  void remove_finish_hook(std::uint64_t id);

  // Finished spans are kept in a bounded ring (oldest dropped first) so
  // soak runs don't grow without limit; hooks still see every span.
  // Eviction skips spans of pinned (errored) traces while any unpinned span
  // remains — failure traces survive a flood of healthy ones. The ring size
  // bound always wins: with nothing unpinned left, the oldest pinned span
  // goes too.
  void set_retention(std::size_t max_finished);
  // Cap on distinct pinned traces (oldest pin released first). Keeps the
  // retain-on-error set bounded during error storms.
  void set_max_pinned_traces(std::size_t max_pinned);
  std::size_t pinned_traces() const { return pinned_.size(); }
  bool trace_pinned(std::uint64_t trace_id) const {
    return pinned_.count(trace_id) != 0 || tail_pinned_.count(trace_id) != 0;
  }
  // Error pins only (the retain-on-error set) — the TailSampler uses this
  // to leave errored traces out of its K budget: they are already retained.
  bool error_pinned(std::uint64_t trace_id) const {
    return pinned_.count(trace_id) != 0;
  }

  // Explicit pins (tail-based sampling): a TailSampler pins the traces it
  // keeps and unpins the ones it displaces. Kept separate from the error
  // pins — releasing an explicit pin never releases an error pin, and the
  // error-pin FIFO cap does not count explicit pins. Pins are refcounted so
  // two owners holding the same trace release independently.
  void pin(std::uint64_t trace_id) {
    if (trace_id != 0) ++tail_pinned_[trace_id];
  }
  void unpin(std::uint64_t trace_id) {
    auto it = tail_pinned_.find(trace_id);
    if (it == tail_pinned_.end()) return;
    if (--it->second == 0) tail_pinned_.erase(it);
  }
  std::size_t tail_pinned_traces() const { return tail_pinned_.size(); }
  const std::deque<SpanRecord>& finished() const { return finished_; }
  // All finished spans of one trace, in start order. Served from a per-trace
  // index, so the cost follows the trace's span count, not the ring's.
  std::vector<SpanRecord> trace_spans(std::uint64_t trace_id) const;

  std::uint64_t spans_finished() const { return spans_finished_; }
  std::uint64_t spans_dropped() const { return spans_dropped_; }

 private:
  void pin_trace(std::uint64_t trace_id);
  void evict_over_retention();

  sim::Kernel& kernel_;
  std::uint64_t next_trace_id_ = 1;
  std::uint64_t next_span_id_ = 1;
  TraceContext current_{};
  std::unordered_map<std::uint64_t, SpanRecord> open_;  // by span_id
  std::deque<SpanRecord> finished_;
  // trace id -> addresses of that trace's spans in finished_. A deque keeps
  // element addresses across push_back and pop_front, so only end() and
  // evict_over_retention() (which move spans in and out) touch the index.
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> by_trace_;
  std::size_t max_finished_ = 65536;
  std::unordered_set<std::uint64_t> pinned_;  // trace ids with an error span
  std::deque<std::uint64_t> pin_order_;       // FIFO for the pin cap
  // Explicitly pinned traces -> pin refcount.
  std::unordered_map<std::uint64_t, std::uint32_t> tail_pinned_;
  std::size_t max_pinned_traces_ = 128;
  std::uint64_t spans_finished_ = 0;
  std::uint64_t spans_dropped_ = 0;
  std::vector<std::pair<std::uint64_t, FinishHook>> hooks_;
  std::uint64_t next_hook_id_ = 1;
};

// Null-safe helpers: instrumented services hold a `Tracer*` that is null in
// unit tests, and call through these without branching at every site.
inline TraceContext begin_span(Tracer* tracer, std::string name,
                               std::string service, std::string node,
                               SpanKind kind = SpanKind::kInternal,
                               TraceContext parent = {}) {
  if (tracer == nullptr) return {};
  return tracer->begin(std::move(name), std::move(service), std::move(node),
                       kind, parent);
}
inline void end_span(Tracer* tracer, TraceContext span) {
  if (tracer != nullptr) tracer->end(span);
}
inline void tag_span(Tracer* tracer, TraceContext span, std::string key,
                     std::string value) {
  if (tracer != nullptr) tracer->tag(span, std::move(key), std::move(value));
}
inline TraceContext current_context(const Tracer* tracer) {
  return tracer == nullptr ? TraceContext{} : tracer->current();
}
inline void link_span(Tracer* tracer, TraceContext span, TraceContext target) {
  if (tracer != nullptr) tracer->link(span, target);
}
inline void add_span_wait(Tracer* tracer, TraceContext span, WaitState state,
                          sim::Duration amount) {
  if (tracer != nullptr) tracer->add_wait(span, state, amount);
}

}  // namespace magma::obs
