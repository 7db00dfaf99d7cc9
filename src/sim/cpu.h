// CPU model for simulated hosts.
//
// The paper's evaluation turns on where CPU time goes inside an AGW: attach
// storms are control-plane (crypto + session setup) heavy, steady state is
// user-plane (forwarding) heavy, and Figures 7/8 statically partition cores
// between the two. This model reproduces exactly that mechanism: a host has
// N cores; services submit work items tagged control/user; cores drain
// per-class FIFO queues. Cores can be shared (the kernel scheduler case in
// the paper) or statically pinned per class.
//
// Work costs are expressed in seconds on a 1 GHz reference core; a host's
// `speed_ghz` scales them, letting the same service code run on the paper's
// Intel J3160 (1.6 GHz) and Xeon 6126 (2.6 GHz) AGWs.
//
// Continuous profiler: every task may carry a (service, operation) label —
// interned once via intern_label(), then O(1) per submission — and the model
// attributes on-CPU time, completions, and run-queue wait per label, per
// core, and per class (run-queue wait as log-bucketed histograms). Benches
// turn a single "CPU at 97%" into "pipelined 71%, accessd 22%, ...", the
// per-service breakdown Figures 6/7 are really about. An optional tracer
// emits one span per executed task (service "cpu<core>") so Chrome's trace
// viewer shows the per-core schedule.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/string_pair_map.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "sim/kernel.h"
#include "sim/time.h"

namespace magma::sim {

enum class WorkClass : std::uint8_t { kControl = 0, kUser = 1 };

struct CpuConfig {
  int cores = 4;
  double speed_ghz = 1.6;  // relative to the 1 GHz reference core
  // Static partition: number of cores reserved for user-plane work. The
  // remaining cores serve control-plane work. -1 means no partition: all
  // cores serve both classes (work-conserving, the "flexible" case).
  int user_plane_cores = -1;
};

// Cumulative counters; utilization over a window is computed from deltas.
struct CpuStats {
  Duration busy_ns[2] = {0, 0};  // indexed by WorkClass
  std::uint64_t completed[2] = {0, 0};
  std::uint64_t rejected[2] = {0, 0};
  std::size_t queue_depth[2] = {0, 0};  // instantaneous
};

// Per-(service, operation) attribution. busy_ns is charged when the task
// *starts* (same convention as CpuStats::busy_ns, so per-label sums match
// per-class and per-core totals exactly); queue_wait_ns is the time the task
// sat runnable before a core picked it up. rpc_wait_ns is the off-CPU charge
// reported by other layers via charge_wait() — the RPC stack charges
// blocked-on-RPC time against the label that issued the call — so wall time
// per label decomposes into busy + queue_wait + rpc_wait.
struct TaskLabelStats {
  std::string service;  // e.g. "accessd", "pipelined"
  std::string op;       // e.g. "establish", "forward_ul"
  Duration busy_ns = 0;
  Duration queue_wait_ns = 0;
  Duration rpc_wait_ns = 0;
  std::uint64_t completed = 0;

  Duration wall_ns() const { return busy_ns + queue_wait_ns + rpc_wait_ns; }
};

class CpuModel {
 public:
  // Label 0 is the pre-interned ("unattributed", "") catch-all used by the
  // label-less submit() overload.
  using LabelId = std::uint32_t;

  CpuModel(Kernel& kernel, CpuConfig config);

  // Register a (service, operation) attribution label. Idempotent (same
  // pair returns the same id); call once at wiring time, not per task.
  LabelId intern_label(const std::string& service, const std::string& op);

  // Off-CPU attribution: charge `amount` of wait time against `label`.
  // kRunq adds to queue_wait_ns (the scheduler also charges this itself for
  // run-queue time; callers use it for upstream admission queues, e.g. the
  // accessd shard queue), kRpcWait to rpc_wait_ns. Other states are
  // ignored: on-CPU time is only ever charged by start(), and no layer
  // charges kTimer (obs/trace.h).
  void charge_wait(LabelId label, obs::WaitState state, Duration amount);

  // Submit `reference_seconds` of work. `done` runs when the work completes;
  // it is not called if the submission is rejected (returns false).
  bool submit(WorkClass cls, double reference_seconds,
              std::function<void()> done) {
    return submit(cls, kUnattributed, reference_seconds, std::move(done));
  }
  bool submit(WorkClass cls, LabelId label, double reference_seconds,
              std::function<void()> done);
  static constexpr LabelId kUnattributed = 0;

  const CpuStats& stats() const { return stats_; }
  const CpuConfig& config() const { return config_; }
  Kernel& kernel() { return kernel_; }

  // Number of cores eligible to run `cls` under the current partition.
  int cores_for(WorkClass cls) const;

  // --- profiler -----------------------------------------------------------
  // All interned labels with their cumulative attribution, indexed by
  // LabelId (deterministic: intern order).
  const std::vector<TaskLabelStats>& labels() const { return labels_; }
  // On-CPU seconds per service (labels summed over operations), name-ordered.
  std::map<std::string, double> service_busy_seconds() const;
  // Cumulative on-CPU time per core (charged at task start).
  std::vector<Duration> core_busy_ns() const;
  // Run-queue wait distribution (seconds) per work class.
  const obs::Histogram& queue_wait(WorkClass cls) const {
    return queue_wait_[static_cast<std::size_t>(cls)];
  }

  // Windowed per-core utilization: busy fraction of each core since
  // `window` was last stamped (first call stamps and returns zeros). A task
  // is charged entirely to the window in which it starts, so short windows
  // relative to task length read lumpy; benches use multi-second windows.
  struct UtilizationWindow {
    std::vector<Duration> busy;
    TimePoint at = -1;
  };
  std::vector<double> utilization_window(UtilizationWindow& window) const;

  // Optional per-task tracing: each executed task becomes a span named
  // "<service>/<op>" under thread "cpu<core>" on node `node`, parented on
  // the context current at submission — Chrome's viewer then renders the
  // per-core schedule. Expensive per task; opt in for short captures only.
  void set_tracer(obs::Tracer* tracer, std::string node);

  // Always-on span wait attribution (cheap: no spans emitted). When set,
  // the context current at submit() is captured and charged kRunq for its
  // run-queue wait and kCpu for its execution time when the task starts —
  // the span-side mirror of the per-label profiler counters.
  void set_wait_tracer(obs::Tracer* tracer) { wait_tracer_ = tracer; }

 private:
  struct Work {
    WorkClass cls;
    Duration cost;
    LabelId label = kUnattributed;
    TimePoint submitted = 0;
    obs::TraceContext origin;  // tracing parent, captured at submit
    std::function<void()> done;
  };
  struct Core {
    bool busy = false;
    Duration busy_ns = 0;
  };

  bool core_eligible(int core, WorkClass cls) const;
  // Start `work` on `core` now.
  void start(int core, Work work);
  // Called when a core finishes; pulls the next eligible queued item.
  void on_core_idle(int core);

  Kernel& kernel_;
  CpuConfig config_;
  std::vector<Core> cores_;
  std::deque<Work> queue_[2];
  CpuStats stats_;

  std::vector<TaskLabelStats> labels_;
  // Transparent comparator: intern_label's find compares through
  // string_views instead of building a pair<string,string> temporary (two
  // heap allocations per call on the pre-interned fast path).
  std::map<std::pair<std::string, std::string>, LabelId,
           common::StringPairLess>
      label_ids_;
  obs::Histogram queue_wait_[2];
  obs::Tracer* tracer_ = nullptr;         // per-task span emission (opt-in)
  obs::Tracer* wait_tracer_ = nullptr;    // span wait charging (always-on)
  std::string node_;

  obs::Tracer* context_tracer() const {
    return tracer_ != nullptr ? tracer_ : wait_tracer_;
  }
};

// Namespace-level shorthand for call sites that store labels as members.
using LabelId = CpuModel::LabelId;
inline constexpr LabelId kUnattributed = CpuModel::kUnattributed;

}  // namespace magma::sim
