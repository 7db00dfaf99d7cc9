// Host-performance profiler: where does the *host* second go?
//
// Everything else under src/obs measures simulated time — attach latency,
// span trees, wait vectors — and is blind to what the simulation costs the
// machine running it. This layer is the other half: wall-clock
// (steady_clock) scoped timers attributed to interned (subsystem, op)
// labels, with self vs. child time separated, plus allocation accounting
// hooked into global operator new/delete so per-subsystem bytes-allocated
// land next to wall nanoseconds. It is the measurement substrate for the
// ROADMAP's "raw simulator speed" work: BENCH_host.json prices the core
// primitives release-over-release, and the per-label alloc counts say where
// arenas/pools will pay off before anyone writes one.
//
// Why a separate layer from the sim-clock profiler (sim::CpuModel): the two
// clocks answer different questions. CpuModel attributes *simulated* CPU
// seconds to simulated services — a model property, identical on every
// machine. HostProfiler attributes *real* nanoseconds to simulator
// subsystems — a property of this build on this host. Mixing them would
// poison determinism: host timings differ run to run, so nothing host-side
// may ever feed back into simulation behavior. The profiler therefore only
// observes (timestamps, counters); it never schedules, allocates into sim
// state, or gates sim logic — asserted by the profiler-on-vs-off diff test.
//
// Cost model, measured by HostProfilerOverhead.DisabledUnder2Percent:
//  * compiled in always; no build flag;
//  * disabled (no profiler installed): one predictable branch per scope
//    entry/exit and one per allocation — <2% on an event-loop hot path;
//  * enabled: two steady_clock reads per scope plus O(1) bookkeeping.
//
// Threading: the simulator is single-threaded by design ("RAII Scope as the
// single-threaded stand-in for TLS"); the frame stack follows the same
// convention. The process-wide allocation totals are relaxed atomics so the
// hooks stay safe if a test runner spawns a stray thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace magma::obs {

// Process-wide interned (subsystem, op) label. Interning is global and
// append-only so call sites can cache ids in function-local statics; stats
// live per HostProfiler instance, indexed by label id.
using HostLabelId = std::uint32_t;
inline constexpr HostLabelId kHostUnlabeled = 0;

// Register (idempotent) and return the id of a (subsystem, op) label.
// Label 0 is pre-interned ("unattributed", "").
HostLabelId host_label(const std::string& subsystem, const std::string& op);
// Number of labels interned so far (label ids are < this).
std::size_t host_label_count();

struct HostLabelStats {
  std::string subsystem;  // e.g. "kernel", "rpc", "datapath"
  std::string op;         // e.g. "dispatch", "encode", "process_batch"
  std::uint64_t calls = 0;          // scope entries
  std::uint64_t total_ns = 0;       // wall time inside the scope (w/ children)
  std::uint64_t self_ns = 0;        // total minus enclosed profiled scopes
  std::uint64_t max_ns = 0;         // slowest single scope
  std::uint64_t alloc_count = 0;    // operator new calls while innermost
  std::uint64_t alloc_bytes = 0;    // bytes requested by those calls
  std::uint64_t free_count = 0;     // operator delete calls while innermost
  // Sim-kernel event accounting: events whose schedule() ran while this
  // label's scope was innermost, and dispatches of those events (the
  // kernel re-enters the originating scope around the callback, so the
  // dispatch wall cost also lands in total_ns/self_ns above).
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_dispatched = 0;

  std::uint64_t child_ns() const { return total_ns - self_ns; }
};

class HostProfiler;

namespace detail {
// Fast-path global: nullptr means disabled. Scopes and hooks branch on this
// once; everything heavier lives behind the branch.
extern HostProfiler* g_host_profiler;
}  // namespace detail

class HostProfiler {
 public:
  HostProfiler();
  ~HostProfiler();  // uninstalls itself if it is the installed profiler
  HostProfiler(const HostProfiler&) = delete;
  HostProfiler& operator=(const HostProfiler&) = delete;

  // Make this the process profiler (replaces any other). Scopes entered
  // while a different profiler was installed keep writing to the profiler
  // that opened them.
  void install();
  static void uninstall();
  static HostProfiler* current() { return detail::g_host_profiler; }
  static bool enabled() { return detail::g_host_profiler != nullptr; }

  // Innermost active label (kHostUnlabeled when disabled or no scope). The
  // sim kernel stamps this onto events at schedule() so dispatch cost is
  // attributed to the subsystem that scheduled the event.
  static HostLabelId current_label();

  // Cumulative stats for every interned label, indexed by HostLabelId
  // (deterministic: intern order). Labels never touched by this profiler
  // have zero counts.
  std::vector<HostLabelStats> snapshot() const;
  // Lookup by name; zeroed stats when the label exists but was never hit.
  HostLabelStats stats_for(const std::string& subsystem,
                           const std::string& op) const;
  // Sum of self_ns over all labels == total_ns of the outermost scopes:
  // self/child separation is exact by construction; tests assert it.
  std::uint64_t total_self_ns() const;

  void reset();  // zero all per-label stats (labels stay interned)

  // --- process-wide allocation totals (always counted, even with no
  // profiler installed; relaxed atomics) ----------------------------------
  static std::uint64_t process_alloc_count();
  static std::uint64_t process_alloc_bytes();
  static std::uint64_t process_free_count();

  // --- internal: called from HostScope / kernel / operator new -----------
  void push_frame(HostLabelId label, std::uint64_t now_ns);
  void pop_frame(std::uint64_t now_ns);
  void note_event_scheduled(HostLabelId label);
  void note_event_dispatched(HostLabelId label);
  void note_alloc(std::size_t bytes);
  void note_free();

  static std::uint64_t now_ns();  // steady_clock, ns since an arbitrary epoch

 private:
  struct Frame {
    HostLabelId label = kHostUnlabeled;
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;  // time spent in enclosed profiled scopes
  };

  HostLabelStats& slot(HostLabelId label);

  std::vector<HostLabelStats> stats_;  // indexed by HostLabelId, lazily grown
  std::vector<Frame> frames_;
};

// RAII scoped timer. Binds to the profiler installed at entry; a profiler
// swap mid-scope is tolerated (the exit pops the frame it pushed).
class HostScope {
 public:
  explicit HostScope(HostLabelId label) {
    HostProfiler* prof = detail::g_host_profiler;
    if (prof == nullptr) return;  // the one disabled-path branch
    prof_ = prof;
    prof->push_frame(label, HostProfiler::now_ns());
  }
  ~HostScope() {
    if (prof_ != nullptr) prof_->pop_frame(HostProfiler::now_ns());
  }
  HostScope(const HostScope&) = delete;
  HostScope& operator=(const HostScope&) = delete;

 private:
  HostProfiler* prof_ = nullptr;
};

// Scope with a function-local interned label: the intern happens once, the
// per-call cost is the HostScope branch.
#define MAGMA_HOST_CONCAT_INNER(a, b) a##b
#define MAGMA_HOST_CONCAT(a, b) MAGMA_HOST_CONCAT_INNER(a, b)
#define MAGMA_HOST_SCOPE(subsystem, op)                                     \
  static const ::magma::obs::HostLabelId MAGMA_HOST_CONCAT(                 \
      magma_host_label_, __LINE__) = ::magma::obs::host_label(subsystem,    \
                                                              op);          \
  ::magma::obs::HostScope MAGMA_HOST_CONCAT(magma_host_scope_, __LINE__)(   \
      MAGMA_HOST_CONCAT(magma_host_label_, __LINE__))

}  // namespace magma::obs
