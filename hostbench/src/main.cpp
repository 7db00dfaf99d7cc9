// hostbench: runs one workload untraced (end-to-end metrics) or
// untraced then traced (per-layer metrics), checks the simulated outcome,
// self-checks its JSON and prints it as the last line of stdout.
//
//   hostbench --workload <attach_churn|traffic_soak|fleet_sync> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//   hostbench --smoke      every workload at tiny size, both modes
//
// Exit codes: 0 ok, 2 usage, 3 a broken invariant (no numbers printed),
// 4 the emitted JSON failed its self-check.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/bench_json.h"
#include "obs/host_profiler.h"

namespace hostbench {
namespace {

using namespace magma;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"sim_speed", "sim-s/host-s"}, {"step_p50_ms", "ms"},
    {"step_tail_ms", "ms"},        {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},        {"ok_ratio", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.kernel.events_per_sim_s", "1/sim-s"},
    {"sim.kernel.ns_per_event", "ns"},
    {"sim.kernel.queue_hwm", "count"},
    {"sim.kernel.cancel_ratio", "ratio"},
    {"sim.kernel.hold_ns", "ns"},
    {"common.allocs_per_event", "count"},
    {"common.alloc_mb_per_sim_s", "MiB/sim-s"},
    {"common.heap_fallbacks", "count"},
    {"net.messages_per_sim_s", "1/sim-s"},
    {"net.retransmit_ratio", "ratio"},
    {"net.self_ms_per_sim_s", "ms/sim-s"},
    {"rpc.calls_per_sim_s", "1/sim-s"},
    {"rpc.fail_ratio", "ratio"},
    {"rpc.self_ms_per_sim_s", "ms/sim-s"},
    {"agw.subscriberdb.auth_vectors_per_sim_s", "1/sim-s"},
    {"crypto.auth_vector_us", "us"},
    {"agw.subscriberdb.snapshot_ms", "ms"},
    {"agw.checkpoint_ms", "ms"},
    {"agw.checkpoint_kb", "KiB"},
    {"agw.accessd.attaches_per_sim_s", "1/sim-s"},
    {"agw.accessd.attach_ok_ratio", "ratio"},
    {"agw.accessd.overload_rejections", "count"},
    {"agw.sessiond.active_sessions", "count"},
    {"agw.pipelined.session_usage_us", "us"},
    {"agw.pipelined.rule_changes_per_sim_s", "1/sim-s"},
    {"datapath.batches_per_sim_s", "1/sim-s"},
    {"datapath.cache_hit_ratio", "ratio"},
    {"datapath.process_batch_ns", "ns"},
    {"datapath.slow_walk_ns", "ns"},
    {"datapath.drop_ratio", "ratio"},
    {"obs.trace.spans_per_sim_s", "1/sim-s"},
    {"obs.trace.ring_fill", "ratio"},
    {"obs.trace.pinned_traces", "count"},
    {"obs.trace.trace_spans_us", "us"},
    {"obs.critical_path_us", "us"},
    {"obs.trace.span_allocs", "count"},
    {"obs.tail_sampler.summaries_per_sim_s", "1/sim-s"},
    {"agw.magmad.apply_full_ms", "ms"},
    {"agw.magmad.apply_delta_us", "us"},
    {"agw.magmad.telemetry_sheds", "count"},
    {"orc8r.streamer.polls_per_sim_s", "1/sim-s"},
    {"orc8r.streamer.delta_entries_per_sim_s", "1/sim-s"},
    {"orc8r.streamer.full_serializations", "count"},
    {"orc8r.streamer.desired_update_us", "us"},
    {"orc8r.streamer.noop_update_us", "us"},
    {"orc8r.streamer.delta_update_us", "us"},
    {"orc8r.store.writes_per_sim_s", "1/sim-s"},
    {"orc8r.ingest.processed_per_sim_s", "1/sim-s"},
    {"orc8r.ingest.shed_ratio", "ratio"},
    {"orc8r.ingest.pump_self_ms_per_sim_s", "ms/sim-s"},
    {"orc8r.metricsd.samples_per_sim_s", "1/sim-s"},
    {"orc8r.metricsd.ingest_us_per_sample", "us"},
    {"orc8r.metricsd.allocs_per_sample", "count"},
    {"trace.unattributed_share", "ratio"},
    {"trace.overhead", "ratio"},
};

constexpr std::size_t kRingCapacity = 65536;  // obs::Tracer default
constexpr int kSetups = 3;                    // setup_s is their median

// End-to-end timing. The timed phase is cut into windows of 60 one-second
// steps: one full period of every periodic loop (checkpoints at 60 s;
// metrics, polls and tail-sampler windows divide it), so windows carry the
// same simulated work. Co-tenant load on a shared VM moves the host's speed
// by 10-25% over seconds to minutes, far more than the changes this
// benchmark must resolve, so:
//  * after every window and every set-up the benchmark times the
//    ReferenceUnit, and rescales each window's step times (set-ups: by the
//    run's median sample) to a host on which the unit takes kReferenceMs.
//    On a 4-vCPU VM this cut the run-to-run spread of step_tail_ms, and of
//    attach_churn's times, by half or more;
//  * sim_speed and step_p50_ms are taken over the faster half of the
//    rescaled windows (min-of-N at window granularity);
//  * step_tail_ms is p99 over every rescaled step: ranking windows by time
//    would also rank away the stalls the tail is there to show. At least
//    2000 steps leave >= 20 beyond p99.
// Raw (unscaled) figures go to the run record.
constexpr double kReferenceMs = 8.0;
constexpr std::size_t kWindowSteps = 60;
constexpr double kTailQuantile = 0.99;
constexpr std::size_t kMinSteps = 2000;
constexpr std::size_t kSmokeSteps = 2 * kWindowSteps;

struct WorkloadSpec {
  const char* name;
  std::unique_ptr<Workload> (*make)(const Options&);
  // Nominal simulated seconds per host second on a 4-vCPU x86 VM: fixes the
  // timed phase's simulated length from --seconds, so a seed always
  // simulates the same thing.
  double nominal_speed;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"attach_churn", make_attach_churn, 120},
    {"traffic_soak", make_traffic_soak, 200},
    {"fleet_sync", make_fleet_sync, 130},
};

// Per-label profiler stats, indexed by HostLabelId.
using Labels = std::vector<obs::HostLabelStats>;

struct RunResult {
  std::vector<double> setup_s;
  std::vector<double> setup_reference_ms;  // reference unit after each setup
  std::size_t steps = 0;
  std::uint64_t wall_ns = 0;  // sum of the timed steps
  std::vector<std::uint64_t> step_ns;
  std::vector<double> window_reference_ms;  // reference unit after each window
  Values c0, c1;  // counters at the start and end of the timed phase
  // Allocations of the simulation itself in the timed phase (the
  // benchmark's own bookkeeping subtracted).
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  Outcome outcome;
  std::uint64_t digest = 0;
  std::string sizes;
  // Traced run only.
  Labels labels0, labels1;
  std::size_t label_count = 0;
  std::vector<std::uint64_t> step_self;  // steps x label_count, self ns
  Values probes;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::vector<double> reference_samples(const RunResult& r) {
  std::vector<double> out = r.window_reference_ms;
  out.insert(out.end(), r.setup_reference_ms.begin(),
             r.setup_reference_ms.end());
  return out;
}

// The steps of the faster half of the windows.
std::vector<double> faster_half(const std::vector<double>& steps_ms) {
  const std::size_t windows = steps_ms.size() / kWindowSteps;
  std::vector<std::pair<double, std::size_t>> by_time;  // (time, first step)
  for (std::size_t w = 0; w < windows; ++w) {
    double time = 0;
    for (std::size_t i = 0; i < kWindowSteps; ++i) {
      time += steps_ms[w * kWindowSteps + i];
    }
    by_time.emplace_back(time, w * kWindowSteps);
  }
  std::sort(by_time.begin(), by_time.end());
  std::vector<double> out;
  for (std::size_t k = 0; k < std::max<std::size_t>(1, windows / 2); ++k) {
    out.insert(out.end(), steps_ms.begin() + by_time[k].second,
               steps_ms.begin() + by_time[k].second + kWindowSteps);
  }
  return out;
}

// sim_speed, step_p50_ms, step_tail_ms and setup_s; with `rescale`, every
// step and set-up time is first rescaled to the reference host speed.
Values timing(const RunResult& r, bool rescale) {
  std::vector<double> all;
  for (std::size_t i = 0; i < r.step_ns.size(); ++i) {
    const double factor =
        rescale ? kReferenceMs / r.window_reference_ms[i / kWindowSteps] : 1.0;
    all.push_back(static_cast<double>(r.step_ns[i]) / 1e6 * factor);
  }
  const std::vector<double> fast = faster_half(all);
  double fast_ms = 0;
  for (double ms : fast) fast_ms += ms;
  // A set-up is too short to carry its own reference sample; it is rescaled
  // by the run's median one.
  const double setup_factor =
      rescale ? kReferenceMs / median(reference_samples(r)) : 1.0;
  std::vector<double> setups;
  for (double s : r.setup_s) setups.push_back(s * setup_factor);
  return {
      {"sim_speed", static_cast<double>(fast.size()) / (fast_ms / 1e3)},
      {"step_p50_ms", median(fast)},
      {"step_tail_ms", quantile(all, kTailQuantile)},
      {"setup_s", median(setups)},
  };
}

std::uint64_t fnv1a(const Values& counters) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [key, value] : counters) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "=%.17g;", value);
    for (const std::string& part : {key, std::string(buf)}) {
      for (unsigned char c : part) {
        h ^= c;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Counters a workload does not have (no AGWs, no tracer spans) read as 0.
double get(const Values& v, const char* key) {
  const auto it = v.find(key);
  return it == v.end() ? 0.0 : it->second;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::uint64_t> self_ns(const Labels& labels, std::size_t n) {
  std::vector<std::uint64_t> out(n, 0);
  for (std::size_t i = 0; i < std::min(n, labels.size()); ++i) {
    out[i] = labels[i].self_ns;
  }
  return out;
}

RunResult run(const WorkloadSpec& spec, const Options& options, bool traced,
              int setups, std::size_t steps, ReferenceUnit& reference,
              SpanLog& spans) {
  RunResult r;
  obs::HostProfiler profiler;
  if (traced) profiler.install();
  const int root = spans.begin(traced ? "run/traced" : "run/untraced");

  std::unique_ptr<Workload> workload;
  for (int k = 0; k < setups; ++k) {
    workload.reset();  // the previous set-up's world, outside any timing
    workload = spec.make(options);
    const int span = spans.begin("setup", root);
    const std::uint64_t t0 = now_ns();
    workload->setup(spans, span);
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    spans.end(span);
    r.setup_reference_ms.push_back(reference.run_ms());
  }
  r.sizes = workload->sizes_json();

  r.steps = steps;
  r.step_ns.reserve(steps);
  r.c0 = workload->counters();
  std::vector<std::uint64_t> prev;
  if (traced) {
    // Grow the profiler's per-label table to every label interned so far,
    // so it does not allocate mid-phase (one empty scope on the last label,
    // taken before the baseline snapshot).
    {
      const obs::HostScope warm(
          static_cast<obs::HostLabelId>(obs::host_label_count() - 1));
    }
    r.labels0 = profiler.snapshot();
    r.label_count = r.labels0.size();
    r.step_self.assign(steps * r.label_count, 0);
    prev = self_ns(r.labels0, r.label_count);
  }
  // Allocations the benchmark itself makes mid-phase are counted apart.
  std::uint64_t own_allocs = 0;
  std::uint64_t own_bytes = 0;
  const auto own = [&](auto&& fn) {
    const std::uint64_t oa = alloc_count();
    const std::uint64_t ob = alloc_bytes();
    fn();
    own_allocs += alloc_count() - oa;
    own_bytes += alloc_bytes() - ob;
  };
  const std::uint64_t a0 = alloc_count();
  const std::uint64_t b0 = alloc_bytes();
  const int timed = spans.begin("timed", root);
  for (std::size_t i = 0; i < steps; ++i) {
    const int span = spans.begin("step", timed);
    const std::uint64_t t0 = now_ns();
    workload->advance(sim::kSecond);
    r.step_ns.push_back(now_ns() - t0);
    r.wall_ns += r.step_ns.back();
    spans.end(span);
    workload->after_step();
    if (traced) {
      own([&] {
        const Labels snap = profiler.snapshot();
        for (std::size_t l = 0; l < r.label_count && l < snap.size(); ++l) {
          r.step_self[i * r.label_count + l] = snap[l].self_ns - prev[l];
          prev[l] = snap[l].self_ns;
        }
      });
    }
    if ((i + 1) % kWindowSteps == 0) {
      own([&] { r.window_reference_ms.push_back(reference.run_ms()); });
    }
  }
  spans.end(timed);
  r.allocs = alloc_count() - a0 - own_allocs;
  r.alloc_bytes = alloc_bytes() - b0 - own_bytes;
  r.c1 = workload->counters();
  if (traced) r.labels1 = profiler.snapshot();

  {
    const int span = spans.begin("drain_check", root);
    workload->drain();
    r.outcome = workload->check();
    r.digest = fnv1a(r.outcome.counters);
    spans.end(span);
  }
  if (traced) {
    const int span = spans.begin("probes", root);
    r.probes = workload->probe(spans, span);
    {
      SpanScope hold(spans, "probe/kernel_hold", span);
      r.probes["sim.kernel.hold_ns"] = probe_kernel_hold_ns(
          static_cast<std::size_t>(get(r.c1, "kernel.queue_hwm")), options.seed);
    }
    spans.end(span);
  }
  spans.end(root);
  workload.reset();
  return r;
}

// --- per-layer metrics -------------------------------------------------------

obs::HostLabelStats label_delta(const RunResult& r, const char* subsystem,
                                const char* op) {
  obs::HostLabelStats out;
  for (std::size_t i = 0; i < r.labels1.size(); ++i) {
    const obs::HostLabelStats& b = r.labels1[i];
    if (b.subsystem != subsystem || (op != nullptr && b.op != op)) continue;
    const obs::HostLabelStats a =
        i < r.labels0.size() ? r.labels0[i] : obs::HostLabelStats{};
    out.calls += b.calls - a.calls;
    out.total_ns += b.total_ns - a.total_ns;
    out.self_ns += b.self_ns - a.self_ns;
  }
  return out;
}

double per_call(std::uint64_t total_ns, std::uint64_t calls, double unit_ns) {
  return calls == 0 ? 0.0 : static_cast<double>(total_ns) / calls / unit_ns;
}

Values per_layer(const RunResult& u, const RunResult& t) {
  Values m;
  const double sim_s = static_cast<double>(t.steps);
  const auto d = [&t](const char* key) {
    return get(t.c1, key) - get(t.c0, key);
  };
  const auto rate = [&](const char* key) { return d(key) / sim_s; };
  const auto self_ms = [&](const char* subsystem, const char* op) {
    return static_cast<double>(label_delta(t, subsystem, op).self_ns) / 1e6 /
           sim_s;
  };
  const double events = d("kernel.events");

  m["sim.kernel.events_per_sim_s"] = events / sim_s;
  m["sim.kernel.ns_per_event"] = ratio(static_cast<double>(u.wall_ns), events);
  m["sim.kernel.queue_hwm"] = get(t.c1, "kernel.queue_hwm");
  m["sim.kernel.cancel_ratio"] =
      ratio(d("kernel.cancelled"), d("kernel.scheduled"));
  m["common.allocs_per_event"] = ratio(static_cast<double>(u.allocs), events);
  m["common.alloc_mb_per_sim_s"] =
      static_cast<double>(u.alloc_bytes) / (1024.0 * 1024.0) / sim_s;
  m["common.heap_fallbacks"] = d("common.heap_fallbacks");
  m["net.messages_per_sim_s"] = rate("net.messages_sent");
  m["net.retransmit_ratio"] =
      ratio(d("net.retransmissions"), d("net.messages_sent"));
  m["net.self_ms_per_sim_s"] =
      self_ms("net.channel", nullptr) + self_ms("sim.link", "transmit");
  m["rpc.calls_per_sim_s"] = rate("rpc.calls_served");
  m["rpc.fail_ratio"] = ratio(d("rpc.failures"), d("rpc.attempts"));
  m["rpc.self_ms_per_sim_s"] = self_ms("rpc", nullptr);
  m["agw.subscriberdb.auth_vectors_per_sim_s"] = rate("subscriberdb.vectors");
  m["agw.accessd.attaches_per_sim_s"] = rate("accessd.completed");
  m["agw.accessd.attach_ok_ratio"] =
      ratio(d("accessd.completed"), d("accessd.started"));
  m["agw.accessd.overload_rejections"] = d("accessd.overload_rejections");
  m["agw.sessiond.active_sessions"] = get(t.c1, "sessiond.step_mean");
  m["agw.pipelined.rule_changes_per_sim_s"] = rate("pipelined.rule_changes");
  m["datapath.batches_per_sim_s"] = rate("datapath.offered_batches");
  m["datapath.cache_hit_ratio"] =
      ratio(d("datapath.cache_hits"),
            d("datapath.cache_hits") + d("datapath.cache_misses"));
  const obs::HostLabelStats batch = label_delta(t, "datapath", "process_batch");
  const obs::HostLabelStats walk = label_delta(t, "datapath", "slow_walk");
  m["datapath.process_batch_ns"] = per_call(batch.total_ns, batch.calls, 1);
  m["datapath.slow_walk_ns"] = per_call(walk.total_ns, walk.calls, 1);
  m["datapath.drop_ratio"] =
      ratio(d("datapath.dropped_packets"),
            d("datapath.dropped_packets") + d("datapath.forwarded_packets"));
  m["obs.trace.spans_per_sim_s"] = rate("tracer.spans_finished");
  m["obs.trace.ring_fill"] =
      get(t.c1, "tracer.ring_size") / static_cast<double>(kRingCapacity);
  m["obs.trace.pinned_traces"] = get(t.c1, "tracer.pinned");
  m["obs.tail_sampler.summaries_per_sim_s"] = rate("magmad.summaries");
  // apply_full runs at first contact, in set-up: cumulative since set-up.
  obs::HostLabelStats full;
  for (const obs::HostLabelStats& s : t.labels1) {
    if (s.subsystem == "magmad" && s.op == "apply_full") full = s;
  }
  m["agw.magmad.apply_full_ms"] = per_call(full.total_ns, full.calls, 1e6);
  const obs::HostLabelStats delta = label_delta(t, "magmad", "apply_delta");
  m["agw.magmad.apply_delta_us"] = per_call(delta.total_ns, delta.calls, 1e3);
  m["agw.magmad.telemetry_sheds"] = d("magmad.telemetry_sheds");
  m["orc8r.streamer.polls_per_sim_s"] = rate("streamer.polls");
  m["orc8r.streamer.delta_entries_per_sim_s"] = rate("streamer.delta_entries");
  m["orc8r.streamer.full_serializations"] =
      get(t.c1, "streamer.full_serializations");
  const obs::HostLabelStats update =
      label_delta(t, "streamer", "desired_update");
  m["orc8r.streamer.desired_update_us"] =
      per_call(update.total_ns, update.calls, 1e3);
  m["orc8r.store.writes_per_sim_s"] = rate("store.version");
  m["orc8r.ingest.processed_per_sim_s"] = rate("ingest.processed");
  m["orc8r.ingest.shed_ratio"] = ratio(d("ingest.shed"), d("ingest.submitted"));
  m["orc8r.ingest.pump_self_ms_per_sim_s"] = self_ms("ingest", "pump");
  m["orc8r.metricsd.samples_per_sim_s"] = rate("metricsd.samples");
  for (const auto& [key, value] : t.probes) m[key] = value;

  // Traced timed-phase time no in-program label covers: step time outside
  // every label frame, plus kernel/dispatch self time.
  double uncovered = 0;
  for (std::size_t i = 0; i < t.steps; ++i) {
    std::uint64_t covered = 0;
    for (std::size_t l = 0; l < t.label_count; ++l) {
      covered += t.step_self[i * t.label_count + l];
    }
    uncovered += static_cast<double>(t.step_ns[i]) -
                 static_cast<double>(std::min(covered, t.step_ns[i]));
  }
  uncovered += static_cast<double>(label_delta(t, "kernel", "dispatch").self_ns);
  m["trace.unattributed_share"] =
      ratio(uncovered, static_cast<double>(t.wall_ns));
  m["trace.overhead"] =
      ratio(static_cast<double>(t.wall_ns), static_cast<double>(u.wall_ns)) - 1;
  return m;
}

// --- reports -----------------------------------------------------------------

std::string label_name(const obs::HostLabelStats& s) {
  return s.op.empty() ? s.subsystem : s.subsystem + "/" + s.op;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The traced run's report: per-label self time per simulated second, the
// label breakdown of the slowest 1% of steps (what step_tail_ms is made
// of), and the self time of the benchmark's own spans by name. Printed as a
// table and as one TRACE_REPORT JSON line for the run record.
void print_traced_report(const RunResult& t, const SpanLog& spans) {
  const double sim_s = static_cast<double>(t.steps);
  std::vector<std::size_t> order(t.steps);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&t](std::size_t a, std::size_t b) {
    return t.step_ns[a] > t.step_ns[b];
  });
  const std::size_t slow = std::max<std::size_t>(1, t.steps / 100);
  double slow_wall = 0;
  for (std::size_t k = 0; k < slow; ++k) {
    slow_wall += static_cast<double>(t.step_ns[order[k]]);
  }
  struct Row {
    std::string name;
    double ms_per_sim_s;
    double slow_ms;  // mean self ms per step in the slowest 1% of steps
  };
  std::vector<Row> rows;
  double slow_covered = 0;
  for (std::size_t l = 0; l < t.label_count; ++l) {
    const double self =
        static_cast<double>(t.labels1[l].self_ns - t.labels0[l].self_ns);
    double slow_self = 0;
    for (std::size_t k = 0; k < slow; ++k) {
      slow_self +=
          static_cast<double>(t.step_self[order[k] * t.label_count + l]);
    }
    slow_covered += slow_self;
    if (self <= 0 && slow_self <= 0) continue;
    rows.push_back(Row{label_name(t.labels1[l]), self / 1e6 / sim_s,
                       slow_self / 1e6 / static_cast<double>(slow)});
  }
  rows.push_back(Row{"(step time outside any label)", -1,
                     (slow_wall - slow_covered) / 1e6 /
                         static_cast<double>(slow)});
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.ms_per_sim_s > b.ms_per_sim_s;
  });

  // The benchmark's own spans: self time = duration minus child spans.
  std::map<std::string, std::pair<double, double>> by_name;  // total, self
  const std::vector<SpanLog::Span>& all = spans.spans();
  std::vector<double> child_ns(all.size(), 0);
  for (const SpanLog::Span& s : all) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double total = static_cast<double>(all[i].end_ns - all[i].start_ns);
    auto& [sum_total, sum_self] = by_name[all[i].name];
    sum_total += total / 1e6;
    sum_self += (total - child_ns[i]) / 1e6;
  }

  std::printf("traced: self ms per sim-s by label, and mean self ms per step "
              "in the slowest %zu of %zu steps (%.2f ms each)\n",
              slow, t.steps, slow_wall / 1e6 / static_cast<double>(slow));
  std::string json = "{\"slow_steps\": " + std::to_string(slow) +
                     ", \"slow_step_ms\": " +
                     number(slow_wall / 1e6 / static_cast<double>(slow)) +
                     ", \"labels\": {";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (row.ms_per_sim_s >= 0) {
      std::printf("  %-34s %10.4f %12.4f\n", row.name.c_str(),
                  row.ms_per_sim_s, row.slow_ms);
    } else {
      std::printf("  %-34s %10s %12.4f\n", row.name.c_str(), "",
                  row.slow_ms);
    }
    json += (i == 0 ? "\"" : ", \"") + row.name +
            "\": {\"self_ms_per_sim_s\": " +
            number(std::max(0.0, row.ms_per_sim_s)) +
            ", \"slow_step_self_ms\": " + number(row.slow_ms) + "}";
  }
  json += "}, \"bench_spans_ms\": {";
  std::printf("traced: the benchmark's own spans (total ms, self ms)\n");
  bool first = true;
  for (const auto& [name, times] : by_name) {
    std::printf("  %-34s %10.1f %12.1f\n", name.c_str(), times.first,
                times.second);
    json += (first ? "\"" : ", \"") + name + "\": {\"total\": " +
            number(times.first) + ", \"self\": " + number(times.second) +
            "}";
    first = false;
  }
  std::printf("TRACE_REPORT %s}}\n", json.c_str());
}

// Result line; numbers with all their digits.
std::string result_json(const Outcome& outcome,
                        const std::vector<std::pair<MetricSpec, double>>& ms) {
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + std::string(ms[i].first.name) +
            "\": {\"value\": " + number(ms[i].second) + ", \"unit\": \"" +
            ms[i].first.unit + "\"}";
  }
  return json + "}}";
}

// Re-parse the emitted JSON the way the repo's bench tooling does, and
// demand every metric this benchmark defines: present, finite, with a unit.
bool self_check(const std::string& json, const MetricSpec* specs,
                std::size_t n) {
  const auto flat = obs::flatten_json_numbers(json);
  if (!flat.ok()) {
    std::fprintf(stderr, "self-check: result does not parse: %s\n",
                 flat.error().message.c_str());
    return false;
  }
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string key = std::string("metrics.") + specs[i].name + ".value";
    const auto it = flat.value().find(key);
    const std::string unit_field =
        std::string("\"") + specs[i].name + "\": {\"value\": ";
    const bool has_unit =
        specs[i].unit[0] != '\0' && json.find(unit_field) != std::string::npos;
    if (it == flat.value().end() || !std::isfinite(it->second) || !has_unit) {
      std::fprintf(stderr, "self-check: metric %s missing, non-finite or "
                           "without a unit\n", specs[i].name);
      ok = false;
    }
  }
  return ok;
}

bool report_violations(const char* what, const RunResult& r) {
  for (const std::string& v : r.outcome.violations) {
    std::fprintf(stderr, "INVARIANT BROKEN (%s run): %s\n", what, v.c_str());
  }
  return r.outcome.violations.empty();
}

void print_run_record(const WorkloadSpec& spec, const Options& options,
                      const RunResult& r) {
  std::string setups;
  for (double s : r.setup_s) setups += (setups.empty() ? "" : ", ") + number(s);
  std::string raw;
  for (const auto& [key, value] : timing(r, false)) {
    raw += (raw.empty() ? "\"" : ", \"") + key + "\": " + number(value);
  }
  const std::vector<double> refs = reference_samples(r);
  std::printf("RUN_RECORD {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %s, \"trace\": %d, \"sizes\": {%s}, "
              "\"timed_sim_seconds\": %zu, \"window_steps\": %zu, "
              "\"step_tail_quantile\": %.2f, \"sim_digest\": \"%016llx\", "
              "\"setup_s\": [%s], \"reference_ms\": {\"target\": %s, "
              "\"median\": %s, \"min\": %s, \"max\": %s}, "
              "\"unscaled\": {%s}}\n",
              spec.name, static_cast<unsigned long long>(options.seed),
              number(options.seconds).c_str(), options.trace ? 1 : 0,
              r.sizes.c_str(), r.steps, kWindowSteps, kTailQuantile,
              static_cast<unsigned long long>(r.digest), setups.c_str(),
              number(kReferenceMs).c_str(), number(median(refs)).c_str(),
              number(*std::min_element(refs.begin(), refs.end())).c_str(),
              number(*std::max_element(refs.begin(), refs.end())).c_str(),
              raw.c_str());
}

int run_workload(const WorkloadSpec& spec, const Options& options) {
  const std::size_t nominal = static_cast<std::size_t>(
      std::llround(options.seconds * spec.nominal_speed));
  const std::size_t steps =
      options.smoke ? kSmokeSteps
                    : (std::max(kMinSteps, nominal) + kWindowSteps - 1) /
                          kWindowSteps * kWindowSteps;
  std::printf("hostbench %s seed=%llu seconds=%s trace=%d: %zu sim-s timed\n",
              spec.name, static_cast<unsigned long long>(options.seed),
              number(options.seconds).c_str(), options.trace ? 1 : 0, steps);
  std::fflush(stdout);

  ReferenceUnit reference;
  SpanLog untraced_spans(false);
  const RunResult u = run(spec, options, false, options.trace ? 1 : kSetups,
                          steps, reference, untraced_spans);
  std::printf("untraced: sim_digest %016llx, %.0f events, %llu allocs, "
              "wall %.3f s\n",
              static_cast<unsigned long long>(u.digest),
              u.c1.at("kernel.events") - u.c0.at("kernel.events"),
              static_cast<unsigned long long>(u.allocs), u.wall_ns / 1e9);
  if (!report_violations("untraced", u)) return 3;

  std::vector<std::pair<MetricSpec, double>> metrics;
  const MetricSpec* specs = kEndToEnd;
  std::size_t n_specs = std::size(kEndToEnd);
  if (!options.trace) {
    Values e2e = timing(u, true);
    e2e["peak_rss_mb"] = peak_rss_mib();
    e2e["ok_ratio"] = 1.0 - ratio(static_cast<double>(u.outcome.failed),
                                  static_cast<double>(u.outcome.attempted));
    for (const MetricSpec& s : kEndToEnd) {
      metrics.emplace_back(s, e2e.at(s.name));
    }
    print_run_record(spec, options, u);
  } else {
    SpanLog spans(true);
    const RunResult t = run(spec, options, true, 1, steps, reference, spans);
    std::printf("traced:   sim_digest %016llx, %.0f events, %llu allocs, "
                "wall %.3f s\n",
                static_cast<unsigned long long>(t.digest),
                t.c1.at("kernel.events") - t.c0.at("kernel.events"),
                static_cast<unsigned long long>(t.allocs), t.wall_ns / 1e9);
    if (!report_violations("traced", t)) return 3;
    if (t.digest != u.digest || t.outcome.counters != u.outcome.counters) {
      std::fprintf(stderr, "INVARIANT BROKEN: traced run's sim_digest "
                           "differs from the untraced run's\n");
      return 3;
    }
    print_traced_report(t, spans);
    const Values layer = per_layer(u, t);
    specs = kPerLayer;
    n_specs = std::size(kPerLayer);
    for (const MetricSpec& s : kPerLayer) {
      const auto it = layer.find(s.name);
      metrics.emplace_back(s, it == layer.end() ? std::nan("") : it->second);
    }
    print_run_record(spec, options, t);
    if (!options.out_dir.empty()) {
      const std::string path = options.out_dir + "/spans-" + spec.name +
                               "-seed" + std::to_string(options.seed) +
                               ".jsonl";
      if (spans.write(path)) std::printf("spans: %s\n", path.c_str());
    }
  }

  const std::string json = result_json(u.outcome, metrics);
  if (!self_check(json, specs, n_specs)) return 4;
  std::printf("%s\n", json.c_str());
  return 0;
}

// Every workload at tiny size, untraced and traced.
int smoke() {
  for (const WorkloadSpec& spec : kWorkloads) {
    for (bool trace : {false, true}) {
      Options options;
      options.workload = spec.name;
      options.seed = 7;
      options.trace = trace;
      options.smoke = true;
      const int rc = run_workload(spec, options);
      if (rc != 0) {
        std::fprintf(stderr, "smoke: %s trace=%d failed (%d)\n", spec.name,
                     trace ? 1 : 0, rc);
        return rc;
      }
    }
  }
  std::printf("smoke: all workloads passed\n");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload <attach_churn|traffic_soak|"
               "fleet_sync> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n       hostbench --smoke\n");
  return 2;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      return smoke();
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(options.seconds > 0)) return usage();
  for (const WorkloadSpec& spec : kWorkloads) {
    if (options.workload == spec.name) return run_workload(spec, options);
  }
  return usage();
}
