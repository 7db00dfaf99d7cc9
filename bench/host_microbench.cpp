// Host-cost microbench: price the simulator's core primitives in host
// nanoseconds and allocations per operation, and emit BENCH_host.json — the
// release-over-release artifact `bench/bench_compare` diffs to catch host
// performance regressions (ROADMAP: "raw simulator speed").
//
// Six primitives, spanning every layer the HostProfiler instruments:
//   1. event_schedule_dispatch — sim::Kernel schedule + heap pop + callback
//   2. packet_route            — cached datapath walk (OVS-style microflow)
//   3. reliable_roundtrip      — one message each way over net::ReliablePair
//   4. lte_attach              — full attach through core::Network
//   5. streamer_delta_apply    — magmad applying a config delta (priced from
//                                the HostProfiler's (magmad, apply_delta)
//                                label — the tentpole instrument in action)
//   6. checkin_drain           — a 1000-gateway checkin wave through the
//                                sharded ingest
//
// Time is thread CPU time (CLOCK_THREAD_CPUTIME_ID), so time the VM spends
// running other tenants does not count; streamer_delta_apply_ns is the
// exception, read from the profiler's wall-clock label. Primitives 1-3 run
// their timed loop 5 times (2 with --quick), each on a fresh world, and
// report the fastest run, printing the min-max spread on the `host:` line:
// single wall-clock runs of these drifted by up to 61% on unchanged code.
// Their allocation keys come from the first run, the same cold run a
// single-run bench measured. lte_attach, checkin_drain and
// streamer_delta_apply run once each: every run builds a network or a
// 1,000-gateway fleet.
//
// `--quick` shrinks iteration counts for the ctest smoke target; the JSON
// schema (key set) is identical in both modes, and the binary re-parses its
// own output through obs::flatten_json_numbers before reporting success.
// A primitive that does not finish its work prints a WARNING and the run
// exits non-zero: its price would be of something else.
#include <time.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agw/magmad.h"
#include "agw/pipelined.h"
#include "bench_util.h"
#include "net/channel.h"
#include "obs/bench_json.h"
#include "obs/host_profiler.h"
#include "orc8r/orchestrator.h"

using namespace magma;

namespace {

struct Metric {
  std::string key;
  double value;
};

std::vector<Metric> g_metrics;

void emit(const std::string& key, double value, const char* note = nullptr) {
  g_metrics.push_back(Metric{key, value});
  std::printf("host: %-34s %14.1f", key.c_str(), value);
  if (note != nullptr) std::printf("  (%s)", note);
  std::printf("\n");
}

int g_warnings = 0;

__attribute__((format(printf, 1, 2))) void warn(const char* format, ...) {
  ++g_warnings;
  std::printf("  WARNING: ");
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// One run's cost per operation.
struct Price {
  double ns = 0;
  double allocs = 0;
  double alloc_bytes = 0;
};

// Allocation + thread-CPU window around one primitive's loop.
struct Window {
  std::uint64_t t0 = thread_cpu_ns();
  std::uint64_t a0 = obs::HostProfiler::process_alloc_count();
  std::uint64_t b0 = obs::HostProfiler::process_alloc_bytes();

  Price per_op(std::uint64_t ops) const {
    const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
    return Price{
        static_cast<double>(thread_cpu_ns() - t0) / n,
        static_cast<double>(obs::HostProfiler::process_alloc_count() - a0) /
            n,
        static_cast<double>(obs::HostProfiler::process_alloc_bytes() - b0) /
            n};
  }
};

void emit_price(const char* name, const Price& price,
                const char* note = nullptr) {
  emit(std::string(name) + "_ns", price.ns, note);
  emit(std::string(name) + "_allocs", price.allocs);
  emit(std::string(name) + "_alloc_bytes", price.alloc_bytes);
}

// Runs `run` (one fresh world and one timed loop per call) `reps` times and
// emits the fastest time with the spread, and the first run's allocations.
template <typename Run>
void emit_min_of(const char* name, int reps, Run run) {
  Price first = run();
  double lo = first.ns;
  double hi = first.ns;
  for (int r = 1; r < reps; ++r) {
    const double ns = run().ns;
    lo = std::min(lo, ns);
    hi = std::max(hi, ns);
  }
  char note[64];
  std::snprintf(note, sizeof(note), "min of %d, spread %.1f-%.1f", reps, lo,
                hi);
  first.ns = lo;
  emit_price(name, first, note);
}

// --- 1: kernel event schedule + dispatch ------------------------------------

Price bench_event_schedule_dispatch(bool quick) {
  const int n = quick ? 20000 : 200000;
  sim::Kernel kernel;
  std::uint64_t sink = 0;
  const Window w;
  for (int i = 0; i < n; ++i) {
    kernel.schedule(static_cast<sim::Duration>(i % 1000) * sim::kMicrosecond,
                    [&sink]() { ++sink; });
  }
  kernel.run_until(2 * sim::kSecond);
  const Price price = w.per_op(static_cast<std::uint64_t>(n));
  if (sink != static_cast<std::uint64_t>(n)) {
    warn("only %llu/%d events dispatched",
         static_cast<unsigned long long>(sink), n);
  }
  return price;
}

// --- 2: cached datapath packet route ----------------------------------------

agw::SessionFlows make_session(std::uint64_t cookie) {
  agw::SessionFlows f;
  f.cookie = cookie;
  f.ue_ip = common::Ipv4{0xAC100000u + static_cast<std::uint32_t>(cookie)};
  f.agw_teid_ul = common::Teid{static_cast<std::uint32_t>(cookie)};
  f.enb_teid_dl = common::Teid{static_cast<std::uint32_t>(cookie + 65536)};
  f.enb_address = common::Ipv4::from_octets(10, 100, 0, 1);
  // Generous meters: this primitive prices the cached table walk, not the
  // rate limiter (micro_benchmarks has the meter ablations).
  f.dl_rate_bps = 1e12;
  f.ul_rate_bps = 1e12;
  return f;
}

Price bench_packet_route(bool quick) {
  const int n = quick ? 20000 : 200000;
  agw::Pipelined pd;
  for (std::uint64_t c = 1; c <= 100; ++c) {
    pd.install_session(make_session(c), 0).ok();
  }
  const datapath::Packet pkt = datapath::make_udp(
      common::Ipv4::from_octets(8, 8, 8, 8), common::Ipv4{0xAC100000u + 51},
      443, 40000, 1400);
  sim::TimePoint now = 0;
  std::uint64_t forwarded = 0;
  const Window w;
  for (int i = 0; i < n; ++i) {
    now += sim::kMicrosecond;
    const datapath::PipelineResult r =
        pd.pipeline().process(pkt, datapath::Direction::kDownlink, now);
    forwarded += r.verdict == datapath::Verdict::kForwarded ? 1 : 0;
  }
  const Price price = w.per_op(static_cast<std::uint64_t>(n));
  if (forwarded != static_cast<std::uint64_t>(n)) {
    warn("%llu/%d packets forwarded",
         static_cast<unsigned long long>(forwarded), n);
  }
  return price;
}

// --- 3: reliable-channel round trip -----------------------------------------

Price bench_reliable_roundtrip(bool quick) {
  const int rounds = quick ? 200 : 2000;
  sim::Kernel kernel;
  sim::Rng rng(7);
  net::DuplexLink link(kernel, rng, sim::fiber_backhaul());
  net::ReliablePair pair = net::make_reliable_pair(kernel, link);
  int completed = 0;
  pair.b->set_receiver(
      [&pair](common::Bytes msg) { pair.b->send(std::move(msg)); });
  pair.a->set_receiver([&pair, &completed, rounds](common::Bytes msg) {
    if (++completed < rounds) pair.a->send(std::move(msg));
  });
  const Window w;
  pair.a->send(common::Bytes(64, 0x5a));
  kernel.run_until(static_cast<sim::Duration>(rounds) * sim::kSecond);
  const Price price = w.per_op(static_cast<std::uint64_t>(completed));
  if (completed != rounds) {
    warn("%d/%d round trips completed", completed, rounds);
  }
  return price;
}

// --- 4: full LTE attach -------------------------------------------------------

void bench_lte_attach(bool quick) {
  const int n = quick ? 10 : 100;
  // 2 attaches/s, below the J3160's calibrated ~3.2/s (DESIGN §6), over
  // two eNodeBs, as one holds at most 96 active UEs: the price is of an
  // attach, not of an overloaded MME's queue or a full cell.
  constexpr sim::Duration kSpacing = 500 * sim::kMillisecond;
  core::Network net;
  agw::AccessGateway& agw = net.add_agw(agw::bare_metal_j3160());
  ran::EnodeB* enbs[] = {&net.add_enodeb(agw), &net.add_enodeb(agw)};
  std::vector<ran::UeLte*> ues = benchutil::provision_lte_ues(net, n);
  int attached = 0;
  const Window w;
  for (int i = 0; i < n; ++i) {
    ran::EnodeB* enb = enbs[i % 2];
    net.kernel().schedule(
        static_cast<sim::Duration>(i) * kSpacing,
        [&ues, enb, &attached, i]() {
          ues[static_cast<std::size_t>(i)]->attach(
              *enb, [&attached](const ran::AttachOutcome& outcome) {
                if (outcome.success) ++attached;
              });
        });
  }
  net.run_for(static_cast<sim::Duration>(n) * kSpacing + 5 * sim::kSecond);
  emit_price("lte_attach", w.per_op(static_cast<std::uint64_t>(attached)));
  if (attached < n) {
    warn("%d/%d UEs attached", attached, n);
  }
}

// --- 5 + 6: streamer delta apply, fleet checkin drain -----------------------
// One orchestrator + magmad fleet serves both primitives: the boot wave
// prices the checkin drain, then config mutations price the delta apply via
// the HostProfiler's (magmad, apply_delta) label.

void bench_fleet(bool quick) {
  const int kFleet = quick ? 100 : 1000;
  const int kMutations = quick ? 2 : 3;
  sim::Kernel kernel;
  sim::Rng rng(2023);
  orc8r::Orchestrator orc8r(kernel);
  for (int i = 0; i < 50; ++i) {
    orc8r.add_subscriber(
        benchutil::fleet_subscriber(static_cast<std::uint64_t>(i)));
  }
  agw::MagmadConfig config;
  config.metrics_interval = sim::kHour;
  config.checkpoint_interval = sim::kHour;
  config.event_flush_interval = sim::kHour;

  std::vector<std::unique_ptr<benchutil::MagmadGateway>> fleet;
  fleet.reserve(static_cast<std::size_t>(kFleet));
  for (int i = 0; i < kFleet; ++i) {
    char id[16];
    std::snprintf(id, sizeof(id), "gw%04d", i);
    fleet.push_back(std::make_unique<benchutil::MagmadGateway>(
        kernel, rng, orc8r, id, config));
    const sim::Duration offset =
        static_cast<sim::Duration>(i) * (30 * sim::kSecond) / kFleet;
    agw::Magmad* m = &fleet.back()->magmad;
    kernel.schedule(offset, [m]() { m->start(); });
  }

  // Primitive 6: the boot wave — every gateway checks in and takes its
  // first full sync; price the whole drain per checkin served.
  {
    const Window w;
    kernel.run_until(35 * sim::kSecond);
    emit_price("checkin_drain", w.per_op(orc8r.stats().checkins));
  }
  if (orc8r.stats().checkins < static_cast<std::uint64_t>(kFleet)) {
    warn("%llu/%d checkins served",
         static_cast<unsigned long long>(orc8r.stats().checkins), kFleet);
  }

  // Primitive 5: config mutations fan out as deltas; the profiler's
  // (magmad, apply_delta) label prices the apply itself — wall time and
  // allocations per call, exclusive of transport and polling machinery.
  obs::HostProfiler profiler;
  profiler.install();
  for (int k = 0; k < kMutations; ++k) {
    orc8r.add_subscriber(
        benchutil::fleet_subscriber(9000u + static_cast<std::uint64_t>(k)));
    kernel.run_until((35 + 30 * (k + 1)) * sim::kSecond);
  }
  const obs::HostLabelStats applies = profiler.stats_for("magmad",
                                                         "apply_delta");
  obs::HostProfiler::uninstall();
  const double calls =
      applies.calls > 0 ? static_cast<double>(applies.calls) : 1.0;
  emit("streamer_delta_apply_ns",
       static_cast<double>(applies.total_ns) / calls);
  emit("streamer_delta_apply_allocs",
       static_cast<double>(applies.alloc_count) / calls);
  emit("streamer_delta_apply_alloc_bytes",
       static_cast<double>(applies.alloc_bytes) / calls);
  if (applies.calls < static_cast<std::uint64_t>(kFleet) * kMutations) {
    warn("%llu/%d delta applies observed",
         static_cast<unsigned long long>(applies.calls), kFleet * kMutations);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  benchutil::banner(
      "Host microbench — pricing the simulator's core primitives",
      "ROADMAP: raw simulator speed (BENCH_host.json trajectory)");
  std::printf("mode: %s\n\n", quick ? "quick (ctest smoke)" : "full");

  const int reps = quick ? 2 : 5;
  emit_min_of("event_schedule_dispatch", reps,
              [quick] { return bench_event_schedule_dispatch(quick); });
  emit_min_of("packet_route", reps,
              [quick] { return bench_packet_route(quick); });
  emit_min_of("reliable_roundtrip", reps,
              [quick] { return bench_reliable_roundtrip(quick); });
  bench_lte_attach(quick);
  bench_fleet(quick);

  // Assemble the JSON, validate it through the same parser bench_compare
  // uses (schema self-check), then write BENCH_host.json.
  std::string json = "{\n  \"bench\": \"host_microbench\",\n";
  json += quick ? "  \"quick\": 1,\n" : "  \"quick\": 0,\n";
  json += "  \"metrics\": {\n";
  for (std::size_t i = 0; i < g_metrics.size(); ++i) {
    char line[160];
    std::snprintf(line, sizeof(line), "    \"%s\": %.1f%s\n",
                  g_metrics[i].key.c_str(), g_metrics[i].value,
                  i + 1 < g_metrics.size() ? "," : "");
    json += line;
  }
  json += "  }\n}\n";

  int failures = 0;
  const auto flat = obs::flatten_json_numbers(json);
  if (!flat.ok()) {
    std::printf("\nFAIL: emitted JSON does not parse: %s\n",
                flat.error().message.c_str());
    ++failures;
  } else {
    static const char* kRequired[] = {
        "event_schedule_dispatch_ns", "packet_route_ns",
        "reliable_roundtrip_ns",      "lte_attach_ns",
        "streamer_delta_apply_ns",    "checkin_drain_ns"};
    for (const char* key : kRequired) {
      const std::string path = std::string("metrics.") + key;
      auto it = flat.value().find(path);
      if (it == flat.value().end() || !(it->second > 0)) {
        std::printf("\nFAIL: %s missing or non-positive\n", path.c_str());
        ++failures;
      }
    }
  }

  std::FILE* out = std::fopen("BENCH_host.json", "w");
  if (out == nullptr) {
    std::printf("\nFAIL: cannot write BENCH_host.json\n");
    ++failures;
  } else {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("\nwrote BENCH_host.json (%zu metrics, schema %s)\n",
                g_metrics.size(), failures == 0 ? "valid" : "INVALID");
  }
  if (g_warnings > 0) {
    std::printf("FAIL: %d WARNING(s): those prices are not comparable\n",
                g_warnings);
  }
  return failures == 0 && g_warnings == 0 ? 0 : 1;
}
