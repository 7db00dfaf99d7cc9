// Subscriber-axis scaleout: 1,000,000 subscribers against one orchestrator
// (§4.3.1 — FreedomFi-scale provisioning — and §3.1's operator question
// "why do attaches fail for *these* IMSIs?").
//
// What this measures, and asserts:
//   * Northbound load: a million add_subscriber calls land in the config
//     store; the first gateway sync serializes the full-state blob exactly
//     once and the gateway converges on all 1M entries.
//   * Sketch scale: four gateways feed per-IMSI outcomes into SpaceSaving /
//     HyperLogLog sketches and ship them over the real RPC path (magmad
//     metrics tick → kReportSketches → metricsd). The fleet-merged top-K
//     names the planted worst offenders EXACTLY (keys and order), with
//     sound bounds and exemplar trace ids.
//   * Distinct-active: the fleet HLL estimate lands within 5% of the true
//     distinct-IMSI count.
//   * O(K + 2^p) memory: sketch footprint after 1M distinct keys equals
//     the footprint after 10k — independent of subscriber count — and the
//     wire report stays a few KB however big the gateway.
//
// Emits BENCH_subscribers.json and exits nonzero if any property fails.
// --quick shrinks the subscriber and noise counts for ctest smoke; the
// *_allocs entries are normalized per unit so the regression gate compares
// quick runs against the committed full-run trajectory.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "agw/magmad.h"
#include "bench_util.h"
#include "obs/host_profiler.h"
#include "obs/sketch/subscriber_sketches.h"
#include "orc8r/orchestrator.h"

using namespace magma;

namespace {

constexpr int kPlanted = 10;
constexpr int kSketchGateways = 4;

using benchutil::check;

double wall_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
             .count() /
         1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int kSubscribers = quick ? 20'000 : 1'000'000;
  const int kNoisePerGateway = quick ? 3'000 : 30'000;

  benchutil::banner(
      "Subscriber scaleout — 1M subscribers, O(K) heavy-hitter telemetry",
      "Hasan et al., NSDI'23, §3.1/§4.3.1 (the subscriber axis at scale)");
  const auto wall_start = std::chrono::steady_clock::now();

  sim::Kernel kernel;
  sim::Rng rng(2023);
  orc8r::Orchestrator orc8r(kernel);
  int failures = 0;

  using obs::sketch::SubscriberMetric;

  // ---- Phase 1: sketch fleet — planted offenders through the real RPC ----
  // Four gateways boot against the still-empty store (cheap sync), feed
  // their sketches, and ship them on the metrics tick.
  agw::MagmadConfig sketch_config;
  sketch_config.config_poll_interval = sim::kHour;
  sketch_config.checkin_interval = sim::kHour;
  sketch_config.checkpoint_interval = sim::kHour;
  sketch_config.event_flush_interval = sim::kHour;
  sketch_config.metrics_interval = 15 * sim::kSecond;

  std::vector<obs::sketch::SubscriberSketches> sketches(kSketchGateways);
  std::vector<std::unique_ptr<benchutil::MagmadGateway>> fleet;
  for (int g = 0; g < kSketchGateways; ++g) {
    char id[16];
    std::snprintf(id, sizeof(id), "sketch-gw%d", g);
    fleet.push_back(std::make_unique<benchutil::MagmadGateway>(
        kernel, rng, orc8r, id, sketch_config));
    obs::sketch::SubscriberSketches* sk = &sketches[g];
    fleet.back()->magmad.set_sketch_source(
        [sk, &kernel, id = std::string(id)]() {
          return sk->snapshot(id, kernel.now());
        });
    fleet.back()->magmad.start();
  }

  // Planted worst offenders: IMSI 999...00i fails attach (kPlanted - i) *
  // 100k times, the failures spread evenly across all four gateways — the
  // fleet-wide count only exists after the merge. Planted first (tables
  // empty), so their counters are exact (error 0).
  std::vector<std::string> planted;
  std::vector<std::uint64_t> planted_total;
  for (int i = 0; i < kPlanted; ++i) {
    const std::string imsi =
        common::Imsi::from_digits(9990000000000ULL + i).value;
    const std::uint64_t total = static_cast<std::uint64_t>(kPlanted - i) *
                                100'000ULL;
    planted.push_back(imsi);
    planted_total.push_back(total);
    for (int g = 0; g < kSketchGateways; ++g) {
      sketches[g].record(SubscriberMetric::kAttachFailures, imsi,
                                total / kSketchGateways,
                                0xE000000000000000ULL + i);
      // The same subscribers also dominate bytes — a second axis through
      // the same pipe.
      sketches[g].record(SubscriberMetric::kBytes, imsi,
                                total * 1000 / kSketchGateways);
    }
  }

  // Background noise: per gateway, kNoisePerGateway distinct IMSIs with 1-3
  // failures each. Their total weight bounds SpaceSaving's min-counter far
  // below the planted counts, so the planted set survives exactly.
  const std::uint64_t offer_allocs_before =
      obs::HostProfiler::process_alloc_count();
  std::uint64_t noise_offers = 0;
  for (int g = 0; g < kSketchGateways; ++g) {
    for (int j = 0; j < kNoisePerGateway; ++j) {
      const std::string imsi =
          common::Imsi::from_digits(5000000000000ULL +
                                    static_cast<std::uint64_t>(g) * 1000000 +
                                    j)
              .value;
      sketches[g].record(SubscriberMetric::kAttachFailures, imsi,
                                1 + rng.next_u64() % 3);
      ++noise_offers;
    }
  }
  const double offer_allocs_per_record =
      static_cast<double>(obs::HostProfiler::process_alloc_count() -
                          offer_allocs_before) /
      static_cast<double>(noise_offers);

  // Distinct-active ground truth: every provisioned subscriber plus the
  // noise and planted IMSIs touches exactly one gateway's HLL.
  for (int n = 0; n < kSubscribers; ++n) {
    sketches[static_cast<std::size_t>(n % kSketchGateways)]
        .record_active(common::Imsi::from_digits(1010000000000ULL + n).value,
                       kernel.now());
  }
  const double hll_truth =
      static_cast<double>(kSubscribers) +
      static_cast<double>(kSketchGateways) * kNoisePerGateway + kPlanted;
  for (int g = 0; g < kSketchGateways; ++g) {
    for (int j = 0; j < kNoisePerGateway; ++j) {
      sketches[g].record_active(
          common::Imsi::from_digits(5000000000000ULL +
                                    static_cast<std::uint64_t>(g) * 1000000 +
                                    j)
              .value,
          kernel.now());
    }
    for (const std::string& imsi : planted) {
      sketches[g].record_active(imsi, kernel.now());
    }
  }

  // One metrics tick per gateway plus ingest drain.
  auto phase_start = std::chrono::steady_clock::now();
  kernel.run_until(kernel.now() + 40 * sim::kSecond);
  const double sketch_wall_ms = wall_ms_since(phase_start);

  std::printf("\nPhase 1 — fleet-merged heavy hitters (%d gateways, %d noise "
              "IMSIs each):\n",
              kSketchGateways, kNoisePerGateway);
  std::uint64_t reports_sent = 0;
  for (const auto& gw : fleet) reports_sent += gw->magmad.stats().sketch_reports_sent;
  check(reports_sent >= static_cast<std::uint64_t>(kSketchGateways),
        "every gateway shipped a sketch report on the metrics tick",
        failures);
  check(orc8r.metrics().sketch_gateways() ==
            static_cast<std::size_t>(kSketchGateways),
        "metricsd holds a report from each gateway", failures);

  const obs::sketch::SpaceSaving merged =
      orc8r.metrics().merged_top_subscribers(SubscriberMetric::kAttachFailures);
  const std::vector<obs::sketch::HeavyHitter> top = merged.top(kPlanted);
  bool exact = top.size() == static_cast<std::size_t>(kPlanted);
  bool bounds_sound = exact;
  bool exemplars_present = exact;
  for (std::size_t i = 0; exact && i < top.size(); ++i) {
    if (top[i].key != planted[i]) exact = false;
    if (top[i].count < planted_total[i] ||
        top[i].count - top[i].error > planted_total[i]) {
      bounds_sound = false;
    }
    if (top[i].exemplar_trace_id == 0) exemplars_present = false;
  }
  check(exact, "fleet-merged top-10 names the planted offenders exactly",
        failures);
  check(bounds_sound, "every estimate brackets the true planted count",
        failures);
  check(exemplars_present, "every heavy hitter carries an exemplar trace id",
        failures);

  const obs::sketch::SpaceSaving merged_bytes =
      orc8r.metrics().merged_top_subscribers(SubscriberMetric::kBytes);
  const std::vector<obs::sketch::HeavyHitter> top_bytes = merged_bytes.top(1);
  check(!top_bytes.empty() && top_bytes[0].key == planted[0],
        "bytes axis agrees on the worst offender", failures);

  const double fleet_active = orc8r.metrics().fleet_active_subscribers();
  const double hll_rel_err = std::fabs(fleet_active - hll_truth) / hll_truth;
  char hll_line[96];
  std::snprintf(hll_line, sizeof(hll_line),
                "fleet HLL %.0f vs %.0f true (%.2f%% error, < 5%%)",
                fleet_active, hll_truth, hll_rel_err * 100.0);
  check(hll_rel_err < 0.05, hll_line, failures);

  std::printf("\n%s\n",
              orc8r.metrics()
                  .top_subscribers_report(SubscriberMetric::kAttachFailures, 5)
                  .c_str());

  // ---- Phase 2: northbound load of 1M subscribers ------------------------
  const std::uint64_t load_allocs_before =
      obs::HostProfiler::process_alloc_count();
  phase_start = std::chrono::steady_clock::now();
  for (int n = 0; n < kSubscribers; ++n) {
    orc8r.add_subscriber(
        benchutil::fleet_subscriber(static_cast<std::uint64_t>(n)));
  }
  const double load_wall_ms = wall_ms_since(phase_start);
  const double load_allocs_per_sub =
      static_cast<double>(obs::HostProfiler::process_alloc_count() -
                          load_allocs_before) /
      static_cast<double>(kSubscribers);

  // ---- Phase 3: one gateway completes the full sync ----------------------
  const std::uint64_t serializations_before =
      orc8r.stats().full_serializations;
  agw::MagmadConfig sync_config;
  sync_config.metrics_interval = sim::kHour;
  sync_config.checkin_interval = sim::kHour;
  sync_config.checkpoint_interval = sim::kHour;
  sync_config.event_flush_interval = sim::kHour;
  auto sync_gw = std::make_unique<benchutil::MagmadGateway>(
      kernel, rng, orc8r, "sync-gw", sync_config);
  const std::uint64_t sync_allocs_before =
      obs::HostProfiler::process_alloc_count();
  phase_start = std::chrono::steady_clock::now();
  sync_gw->magmad.start();
  kernel.run_until(kernel.now() + 40 * sim::kSecond);
  const double sync_wall_ms = wall_ms_since(phase_start);
  const double sync_allocs_per_sub =
      static_cast<double>(obs::HostProfiler::process_alloc_count() -
                          sync_allocs_before) /
      static_cast<double>(kSubscribers);

  std::printf("\nPhase 3 — full sync of %d subscribers to one gateway:\n",
              kSubscribers);
  check(sync_gw->subscribers.size() == static_cast<std::size_t>(kSubscribers),
        "the gateway holds every provisioned subscriber", failures);
  check(sync_gw->magmad.synced_version() == orc8r.config_version(),
        "the gateway converged on the store version", failures);
  check(orc8r.stats().full_serializations - serializations_before == 1,
        "the full-state blob was serialized exactly once", failures);

  // ---- Phase 4: sketch memory is O(K + 2^p), not O(subscribers) ----------
  obs::sketch::SpaceSaving small_load(64);
  for (int n = 0; n < 10'000; ++n) {
    small_load.offer(common::Imsi::from_digits(7000000000000ULL + n).value);
  }
  obs::sketch::SpaceSaving big_load(64);
  for (int n = 0; n < kSubscribers; ++n) {
    big_load.offer(common::Imsi::from_digits(7000000000000ULL + n).value);
  }
  const std::size_t sketch_memory = sketches[0].memory_bytes();
  const common::Bytes wire =
      obs::sketch::encode_sketch_report(
          sketches[0].snapshot("sketch-gw0", kernel.now()));
  std::printf("\nPhase 4 — memory independence (%d distinct keys offered):\n",
              kSubscribers);
  check(big_load.memory_bytes() == small_load.memory_bytes(),
        "SpaceSaving footprint after 1M keys == footprint after 10k",
        failures);
  check(big_load.size() == 64, "the table still holds exactly K counters",
        failures);
  check(sketch_memory < 64 * 1024,
        "full gateway sketch set stays under 64 KiB", failures);
  check(wire.size() < 32 * 1024, "the wire report stays under 32 KiB",
        failures);

  const double wall_ms = wall_ms_since(wall_start);
  std::printf("\nhost: wall %.0f ms total (load %.0f ms, sync %.0f ms, "
              "sketch phase %.0f ms)\n",
              wall_ms, load_wall_ms, sync_wall_ms, sketch_wall_ms);
  std::printf("host: %.1f allocs/subscriber load, %.1f allocs/subscriber "
              "sync, %.2f allocs/offer, sketch %zu B, wire %zu B\n",
              load_allocs_per_sub, sync_allocs_per_sub,
              offer_allocs_per_record, sketch_memory, wire.size());

  std::FILE* json = std::fopen("BENCH_subscribers.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"bench\": \"scaleout_subscribers\",\n"
        "  \"subscribers\": %d,\n"
        "  \"quick\": %s,\n"
        "  \"wall_ms\": %.1f,\n"
        "  \"load_wall_ms\": %.1f,\n"
        "  \"sync_wall_ms\": %.1f,\n"
        "  \"sketch_wall_ms\": %.1f,\n"
        "  \"sketch_memory_bytes\": %zu,\n"
        "  \"sketch_wire_bytes\": %zu,\n"
        "  \"fleet_active_estimate\": %.0f,\n"
        "  \"fleet_active_true\": %.0f,\n"
        "  \"host\": {\n"
        "    \"load_per_sub_allocs\": %.2f,\n"
        "    \"sync_per_sub_allocs\": %.2f,\n"
        "    \"sketch_offer_allocs\": %.2f\n"
        "  },\n"
        "  \"pass\": %s\n"
        "}\n",
        kSubscribers, quick ? "true" : "false", wall_ms, load_wall_ms,
        sync_wall_ms, sketch_wall_ms, sketch_memory, wire.size(),
        fleet_active, hll_truth, load_allocs_per_sub, sync_allocs_per_sub,
        offer_allocs_per_record, failures == 0 ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_subscribers.json\n");
  }

  std::printf("\nSHAPE %s: the subscriber axis scales — 1M-entry config "
              "syncs in one blob, per-IMSI telemetry in O(K + 2^p).\n",
              failures == 0 ? "HOLDS" : "DIVERGES");
  return failures == 0 ? 0 : 1;
}
