// Stats snapshots, span log and probes shared by the three workloads.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <queue>
#include <string>
#include <utility>

#include "bench.h"
#include "common/pool.h"
#include "obs/critical_path.h"
#include "obs/host_profiler.h"

namespace hostbench {

using namespace magma;

std::uint64_t now_ns() { return obs::HostProfiler::now_ns(); }
std::uint64_t alloc_count() { return obs::HostProfiler::process_alloc_count(); }
std::uint64_t alloc_bytes() { return obs::HostProfiler::process_alloc_bytes(); }

namespace {
volatile std::uint64_t g_kept = 0;
}  // namespace

void keep(std::uint64_t value) { g_kept = value; }

// ---------------------------------------------------------------------------
// ReferenceUnit
// ---------------------------------------------------------------------------

namespace {

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

ReferenceUnit::ReferenceUnit() {
  std::uint64_t x = 88172645463325252ull;
  for (std::uint64_t i = 0; i < (1u << 17); ++i) {
    keys_.push_back(xorshift(x));
    table_[keys_.back()] = i;
  }
}

double ReferenceUnit::once_ms() {
  const std::uint64_t t0 = now_ns();
  std::priority_queue<std::uint64_t> heap;
  std::uint64_t x = 2463534242ull;
  std::uint64_t sum = 0;
  for (int i = 0; i < 40000; ++i) {
    sum += table_.find(keys_[xorshift(x) % keys_.size()])->second;
    heap.push(sum ^ x);
    if (heap.size() > 4096) heap.pop();
    const auto cell = std::make_unique<std::array<std::uint64_t, 6>>();
    (*cell)[0] = sum;
    keep((*cell)[0]);
  }
  keep(sum + heap.top());
  return static_cast<double>(now_ns() - t0) / 1e6;
}

double ReferenceUnit::run_ms() {
  once_ms();
  return once_ms();
}

// ---------------------------------------------------------------------------
// SpanLog
// ---------------------------------------------------------------------------

int SpanLog::begin(const char* name, int parent) {
  if (!enabled_ || spans_.size() == spans_.capacity()) return -1;
  spans_.push_back(Span{name, parent, now_ns(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                 i, s.name, s.parent, (s.start_ns - base) / 1e3,
                 (s.end_ns - base) / 1e3);
  }
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------
// Stats snapshots
// ---------------------------------------------------------------------------

namespace {

void add_kernel_counters(Values& v, const sim::Kernel& kernel) {
  const sim::KernelStats& s = kernel.stats();
  v["kernel.events"] = static_cast<double>(kernel.executed_events());
  v["kernel.scheduled"] = static_cast<double>(s.scheduled);
  v["kernel.cancelled"] = static_cast<double>(s.cancelled);
  v["kernel.queue_hwm"] = static_cast<double>(s.queue_hwm);
  v["common.heap_fallbacks"] =
      static_cast<double>(s.closure_heap_fallbacks) +
      static_cast<double>(common::total_pool_heap_fallbacks());
}

void add_orc8r_counters(Values& v, const orc8r::Orchestrator& orc8r) {
  const orc8r::OrchestratorStats& s = orc8r.stats();
  v["streamer.polls"] = static_cast<double>(s.noop_polls + s.config_pushes);
  v["streamer.delta_entries"] = static_cast<double>(s.delta_entries_sent);
  v["streamer.full_serializations"] =
      static_cast<double>(s.full_serializations);
  v["store.version"] = static_cast<double>(orc8r.config_version());
  const orc8r::IngestStats& ing = orc8r.ingest().stats();
  v["ingest.submitted"] = static_cast<double>(ing.submitted);
  v["ingest.processed"] = static_cast<double>(ing.processed);
  v["ingest.shed"] = static_cast<double>(ing.shed);
  v["metricsd.samples"] = static_cast<double>(orc8r.metrics().total_samples());
}

}  // namespace

void add_magmad_counters(Values& v, const agw::MagmadStats& s) {
  // Southbound RPC outcomes as magmad sees them (the AGW-side RPC nodes of
  // core::Network are private): every loop's attempts and failures.
  const std::uint64_t failures =
      s.sync_failures + s.checkin_failures + s.metric_reports_lost +
      s.checkpoint_failures + s.histogram_reports_lost +
      s.trace_reports_lost + s.sketch_reports_lost;
  const std::uint64_t ok = s.config_syncs_applied + s.config_polls_noop +
                           s.checkins_ok + s.metric_reports_sent +
                           s.checkpoints_shipped + s.histogram_reports_sent +
                           s.trace_reports_sent + s.sketch_reports_sent;
  v["rpc.failures"] += static_cast<double>(failures);
  v["rpc.attempts"] += static_cast<double>(failures + ok);
  v["magmad.summaries"] += static_cast<double>(s.trace_summaries_shipped);
  v["magmad.telemetry_sheds"] += static_cast<double>(s.telemetry_sheds);
  v["magmad.delta_syncs"] += static_cast<double>(s.config_delta_syncs);
  v["magmad.full_syncs"] += static_cast<double>(s.config_full_syncs);
}

void add_transport_counters(Values& v, const net::ReliableStats& s) {
  v["net.messages_sent"] += static_cast<double>(s.messages_sent);
  v["net.retransmissions"] += static_cast<double>(s.retransmissions);
}

void add_network_counters(Values& v, core::Network& net) {
  add_kernel_counters(v, net.kernel());
  add_orc8r_counters(v, net.orchestrator());
  for (std::size_t i = 0; i < net.agw_count(); ++i) {
    agw::AccessGateway& gw = net.agw(i);
    const agw::AccessdStats& acc = gw.accessd().stats();
    for (int rat = 0; rat < 3; ++rat) {
      v["accessd.started"] += static_cast<double>(acc.attach_started[rat]);
      v["accessd.completed"] += static_cast<double>(acc.attach_completed[rat]);
      v["accessd.rejected"] += static_cast<double>(acc.attach_rejected[rat]);
    }
    v["accessd.overload_rejections"] +=
        static_cast<double>(acc.overload_rejections);
    v["subscriberdb.vectors"] +=
        static_cast<double>(gw.subscriberdb().stats().vectors_generated);
    v["sessiond.active"] += static_cast<double>(gw.sessiond().active_sessions());
    const agw::PipelinedStats& pd = gw.pipelined().stats();
    v["pipelined.rule_changes"] +=
        static_cast<double>(pd.sessions_installed + pd.sessions_removed);
    const datapath::PipelineStats& dp = gw.pipelined().pipeline().stats();
    v["datapath.cache_hits"] += static_cast<double>(dp.cache_hits);
    v["datapath.cache_misses"] += static_cast<double>(dp.cache_misses);
    v["datapath.forwarded_packets"] += static_cast<double>(dp.forwarded_packets);
    v["datapath.dropped_packets"] += static_cast<double>(
        dp.dropped_no_match + dp.dropped_by_policy + dp.dropped_by_meter);
    v["datapath.offered_batches"] +=
        static_cast<double>(gw.user_plane_stats().offered_batches);
    add_magmad_counters(v, gw.magmad().stats());
    add_transport_counters(v, net.control_stats_orc8r(gw));
    add_transport_counters(v, net.control_stats_agw(gw));
    v["rpc.calls_served"] +=
        static_cast<double>(net.orc8r_node_for(gw).stats().calls_served);
  }
  const obs::Tracer& tracer = net.tracer();
  v["tracer.spans_finished"] = static_cast<double>(tracer.spans_finished());
  v["tracer.ring_size"] = static_cast<double>(tracer.finished().size());
  v["tracer.pinned"] = static_cast<double>(tracer.pinned_traces() +
                                           tracer.tail_pinned_traces());
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

namespace {

Values probe_tracer(const obs::Tracer& tracer) {
  Values out;
  // Up to 64 trace ids spread evenly over the final ring.
  std::vector<std::uint64_t> ids;
  const std::deque<obs::SpanRecord>& ring = tracer.finished();
  const std::size_t want = std::min<std::size_t>(64, ring.size());
  for (std::size_t i = 0; i < want; ++i) {
    ids.push_back(ring[i * ring.size() / want].trace_id);
  }
  if (ids.empty()) ids.push_back(1);
  const int n = static_cast<int>(ids.size());
  out["obs.trace.trace_spans_us"] =
      ns_per_call(n, [&](int i) {
        keep(tracer.trace_spans(ids[static_cast<std::size_t>(i)]).size());
      }) / 1e3;
  out["obs.critical_path_us"] =
      ns_per_call(n, [&](int i) {
        keep(obs::critical_path(tracer, ids[static_cast<std::size_t>(i)])
                 .path.size());
      }) / 1e3;

  // Allocations per begin+end with the strings this workload's spans carry,
  // on a standalone tracer so hooks and eviction are left out.
  std::string name = "GetUpdates";
  std::string service = "streamer";
  std::string node = "orc8r";
  if (!ring.empty()) {
    name = ring.back().name;
    service = ring.back().service;
    node = ring.back().node;
  }
  sim::Kernel kernel;
  obs::Tracer probe_tracer(kernel);
  constexpr int kPairs = 1000;
  const std::uint64_t a0 = alloc_count();
  for (int i = 0; i < kPairs; ++i) {
    probe_tracer.end(probe_tracer.begin(name, service, node));
  }
  out["obs.trace.span_allocs"] =
      static_cast<double>(alloc_count() - a0) / kPairs;
  return out;
}

Values probe_metricsd(orc8r::Metricsd& metricsd,
                      std::vector<orc8r::MetricSample> report,
                      sim::TimePoint now) {
  Values out;
  constexpr int kReports = 20;
  if (report.empty()) {
    out["orc8r.metricsd.ingest_us_per_sample"] = 0;
    out["orc8r.metricsd.allocs_per_sample"] = 0;
    return out;
  }
  // Reports are stamped in order after the run's last sample, like the next
  // few ticks of a live gateway; built before timing.
  std::vector<std::vector<orc8r::MetricSample>> reports(kReports, report);
  for (int r = 0; r < kReports; ++r) {
    for (orc8r::MetricSample& s : reports[static_cast<std::size_t>(r)]) {
      s.time = now + (r + 1) * sim::kMillisecond;
    }
  }
  const double samples = static_cast<double>(kReports * report.size());
  const std::uint64_t a0 = alloc_count();
  const double ns = ns_per_call(kReports, [&](int r) {
    metricsd.ingest(reports[static_cast<std::size_t>(r)]);
  });
  out["orc8r.metricsd.allocs_per_sample"] =
      static_cast<double>(alloc_count() - a0) / samples;
  out["orc8r.metricsd.ingest_us_per_sample"] =
      ns * kReports / samples / 1e3;
  return out;
}

Values probe_streamer(orc8r::Orchestrator& orc8r) {
  Values out;
  constexpr int kCalls = 200;
  orc8r::GetUpdatesRequest current;
  current.gateway_id = "probe";
  current.have_version = orc8r.config_version();
  current.have_epoch = orc8r.epoch();
  orc8r::GetUpdatesRequest behind = current;
  behind.have_version -= std::min<std::uint64_t>(8, current.have_version - 1);
  out["orc8r.streamer.noop_update_us"] =
      ns_per_call(kCalls, [&](int) {
        keep(orc8r.desired_update(current).entries.size());
      }) / 1e3;
  out["orc8r.streamer.delta_update_us"] =
      ns_per_call(kCalls, [&](int) {
        keep(orc8r.desired_update(behind).entries.size());
      }) / 1e3;
  return out;
}

Values probe_subscriberdb(agw::SubscriberDb& db) {
  Values out;
  const std::vector<common::Imsi> imsis = db.all_imsis();
  const int vectors = static_cast<int>(std::min<std::size_t>(200, imsis.size()));
  out["crypto.auth_vector_us"] =
      vectors == 0 ? 0.0
                   : ns_per_call(vectors, [&](int i) {
                       keep(db.generate_auth_vector(
                                   imsis[static_cast<std::size_t>(i)])
                                .ok());
                     }) / 1e3;
  out["agw.subscriberdb.snapshot_ms"] =
      ns_per_call(3, [&](int) { keep(db.snapshot().size()); }) / 1e6;
  return out;
}

Values probe_agws(core::Network& net) {
  Values out;
  double checkpoint_ns = 0;
  double checkpoint_bytes = 0;
  double usage_ns = 0;
  const std::size_t agws = net.agw_count();
  for (std::size_t i = 0; i < agws; ++i) {
    agw::AccessGateway& gw = net.agw(i);
    const std::uint64_t t0 = now_ns();
    const common::Bytes image = gw.checkpoint();
    checkpoint_ns += static_cast<double>(now_ns() - t0);
    checkpoint_bytes += static_cast<double>(image.size());
    const std::vector<std::uint64_t> cookies = gw.pipelined().installed_cookies();
    const std::uint64_t t1 = now_ns();
    for (std::uint64_t cookie : cookies) {
      keep(gw.pipelined().session_usage(cookie).bytes);
    }
    usage_ns += static_cast<double>(now_ns() - t1);
  }
  const double n = agws > 0 ? static_cast<double>(agws) : 1.0;
  out["agw.checkpoint_ms"] = checkpoint_ns / n / 1e6;
  out["agw.checkpoint_kb"] = checkpoint_bytes / n / 1024.0;
  out["agw.pipelined.session_usage_us"] = usage_ns / n / 1e3;
  return out;
}

}  // namespace

Values probe_layers(core::Network& net, agw::SubscriberDb& subscribers,
                    std::vector<orc8r::MetricSample> report, SpanLog& spans,
                    int parent) {
  Values out;
  const auto run = [&](const char* name, auto&& probe) {
    SpanScope s(spans, name, parent);
    const Values v = probe();
    out.insert(v.begin(), v.end());
  };
  run("probe/tracer", [&] { return probe_tracer(net.tracer()); });
  run("probe/agws", [&] { return probe_agws(net); });
  run("probe/subscriberdb", [&] { return probe_subscriberdb(subscribers); });
  run("probe/streamer", [&] { return probe_streamer(net.orchestrator()); });
  run("probe/metricsd", [&] {
    return probe_metricsd(net.orchestrator().metrics(), std::move(report),
                          net.kernel().now());
  });
  return out;
}

namespace {

// One hold-model event: on dispatch it schedules its successor an
// exponential increment ahead, so the queue depth stays constant.
struct Hold {
  sim::Kernel* kernel;
  sim::Rng* rng;
  sim::Duration mean;
  void operator()() const {
    kernel->schedule(static_cast<sim::Duration>(
                         rng->exponential(static_cast<double>(mean))),
                     Hold{*this});
  }
};

}  // namespace

double probe_kernel_hold_ns(std::size_t queue_depth, std::uint64_t seed) {
  sim::Kernel kernel;
  sim::Rng rng(seed);
  const sim::Duration mean = sim::kMillisecond;
  const std::size_t depth = std::max<std::size_t>(1, queue_depth);
  for (std::size_t i = 0; i < depth; ++i) {
    kernel.schedule(static_cast<sim::Duration>(
                        rng.exponential(static_cast<double>(mean))),
                    Hold{&kernel, &rng, mean});
  }
  // Let the time distribution of the queue reach its steady state first.
  for (std::size_t i = 0; i < depth; ++i) kernel.step();
  const int holds = static_cast<int>(std::max<std::size_t>(200000, 4 * depth));
  return ns_per_call(holds, [&](int) { kernel.step(); });
}

}  // namespace hostbench
