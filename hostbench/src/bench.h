// hostbench — the simulator's host-cost benchmark.
//
// One binary, three workloads against the public API (core::Network, the
// ran:: UE models, agw::Magmad, orc8r::Orchestrator). Each run sets a
// workload up, advances it one simulated second per step for a fixed
// simulated length, checks the simulated outcome, and reports host cost:
// end-to-end metrics from an untraced run, per-layer metrics from a traced
// run (obs::HostProfiler installed, the benchmark's own spans around every
// step and around each call the benchmark makes into a layer, and timed
// probe calls into layer functions).
//
// Nothing here instruments src/: counts come from public stats structs,
// times from the benchmark's own steady_clock spans, the HostProfiler labels
// src/ already has, and the probe calls.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/network.h"
#include "orc8r/metricsd.h"
#include "sim/kernel.h"

namespace hostbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;  // nominal host seconds of the timed phase
  bool trace = false;
  bool smoke = false;   // tiny sizes: the benchmark's own test
  std::string out_dir;  // run records and span files ("" = none)
};

// Named numbers: stats snapshots, probe results, outcome counters.
using Values = std::map<std::string, double>;

// The benchmark's own spans, in host time. Storage is reserved up front so
// recording never allocates mid-phase; the log is written once, at exit.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int parent;  // index into spans(), -1 for a root
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  // Returns the span's index (-1 when disabled or full).
  int begin(const char* name, int parent = -1);
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }
  // One JSON object per line: {"id","name","parent","start_us","end_us"}.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, int parent = -1)
      : log_(log), id_(log.begin(name, parent)) {}
  ~SpanScope() { log_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// What a run checks and digests once the workload has drained.
struct Outcome {
  // Deterministic simulated outcome: identical for identical seeds, and
  // between the traced and the untraced run.
  Values counters;
  std::uint64_t attempted = 0;  // simulated operations attempted
  std::uint64_t failed = 0;     // of those, failed
  std::vector<std::string> violations;  // broken invariants
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Workload sizes for the run record, as JSON object members.
  virtual std::string sizes_json() const = 0;
  // Topology, provisioning, first config sync and warm-up.
  virtual void setup(SpanLog& spans, int parent) = 0;
  // Advance one step of simulated time.
  virtual void advance(magma::sim::Duration step) = 0;
  // Called after every timed step; cheap gauges only.
  virtual void after_step() {}
  // Public-stats snapshot the per-layer rates are computed from.
  virtual Values counters() = 0;
  // Stop the generators and let in-flight work settle.
  virtual void drain() = 0;
  virtual Outcome check() = 0;
  // Timed direct calls into layer functions at the end state. They may
  // mutate state, so they run only after check().
  virtual Values probe(SpanLog& spans, int parent) = 0;
};

std::unique_ptr<Workload> make_attach_churn(const Options& options);
std::unique_ptr<Workload> make_traffic_soak(const Options& options);
std::unique_ptr<Workload> make_fleet_sync(const Options& options);

std::uint64_t now_ns();        // steady_clock
std::uint64_t alloc_count();   // process-wide operator new calls
std::uint64_t alloc_bytes();
// Makes a probe call's result observable so the call is not optimized away.
void keep(std::uint64_t value);

// A fixed unit of host work no simulator change touches: hash-map probes,
// binary-heap pushes and pops and small allocations over ~6 MiB, the same
// kinds of work the simulator does. Timed between windows of steps, it says
// how fast this shared host is running at that moment.
class ReferenceUnit {
 public:
  ReferenceUnit();
  // Runs the unit twice and returns the second run's wall ms: the first
  // refills the caches the simulator just evicted, so the figure does not
  // depend on the simulator's own footprint.
  double run_ms();

 private:
  double once_ms();
  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  std::vector<std::uint64_t> keys_;
};

// Mean wall ns per call of fn(i), i in [0, n).
template <typename Fn>
double ns_per_call(int n, Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < n; ++i) fn(i);
  return static_cast<double>(now_ns() - t0) / (n > 0 ? n : 1);
}

// --- stats snapshots shared by the workloads (common.cpp) -------------------
void add_magmad_counters(Values& v, const magma::agw::MagmadStats& s);
void add_transport_counters(Values& v, const magma::net::ReliableStats& s);
// The kernel, the orchestrator (streamer, store, ingest, metricsd), every AGW
// of `net` (accessd, subscriberdb, sessiond, pipelined, user plane, control
// channels, orc8r-side RPC, magmad) and the network tracer.
void add_network_counters(Values& v, magma::core::Network& net);

// --- probes (common.cpp) ----------------------------------------------------
// Every layer probe, each inside a span: tracer lookups over the final ring
// and the per-span bookkeeping cost; AccessGateway::checkpoint() and the
// sessiond usage sweep on every AGW of `net`; generate_auth_vector and
// snapshot() on one live subscriber cache; Orchestrator::desired_update for
// a current (noop) and a lagging (delta) gateway; Metricsd::ingest of one
// gateway report of the workload's shape into the live metricsd.
Values probe_layers(magma::core::Network& net,
                    magma::agw::SubscriberDb& subscribers,
                    std::vector<magma::orc8r::MetricSample> report,
                    SpanLog& spans, int parent);
// A classic hold model on a standalone kernel filled to `queue_depth`.
double probe_kernel_hold_ns(std::size_t queue_depth, std::uint64_t seed);

}  // namespace hostbench
