// statusd — orchestrator-side gateway health tracking (the orc8r service of
// the same name; §3.2 device management).
//
// Every magmad checkin carries the gateway's Service303 snapshot (see
// obs/status.h). statusd records the per-gateway snapshot and checkin time,
// and a periodic freshness sweep drives a three-state health machine from
// the number of *missed* checkins:
//
//   healthy      — fewer than `degraded_after_missed` intervals since the
//                  last checkin
//   degraded     — at least `degraded_after_missed` missed
//   unreachable  — at least `unreachable_after_missed` missed
//
// A partitioned gateway therefore flips to unreachable within a bounded
// time: unreachable_after_missed × checkin_interval + sweep_interval. A
// single successful checkin recovers it to healthy immediately (and counts
// a recovery). Each sweep and each checkin push `gateway_health` and
// `gateway_missed_checkins` gauges into metricsd, where the default health
// alert rules (install_default_health_rules) fire and clear on the same
// samples — the alert lifecycle needs no side channel.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/slo/availability.h"
#include "obs/status.h"
#include "orc8r/metricsd.h"
#include "sim/kernel.h"
#include "sim/time.h"

namespace magma::orc8r {

enum class GatewayHealth : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kUnreachable = 2,
};

struct StatusdConfig {
  // Expected checkin cadence — must match the gateways' MagmadConfig
  // (core::Network wires them together).
  sim::Duration checkin_interval = 60 * sim::kSecond;
  // Freshness evaluation cadence. Bounds detection latency on top of the
  // missed-checkin thresholds.
  sim::Duration sweep_interval = 15 * sim::kSecond;
  std::uint32_t degraded_after_missed = 2;
  std::uint32_t unreachable_after_missed = 5;
};

// Per-gateway view: last checkin, health, and the reported service statuses.
struct GatewayStatus {
  std::string gateway_id;
  sim::TimePoint last_checkin = -1;
  std::uint64_t checkins = 0;
  GatewayHealth health = GatewayHealth::kHealthy;
  std::vector<obs::ServiceStatus> services;
};

struct StatusdStats {
  std::uint64_t checkins = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t to_degraded = 0;
  std::uint64_t to_unreachable = 0;
  std::uint64_t recoveries = 0;  // non-healthy → healthy
  // Per-service error-growth alert rules installed (one per distinct
  // service name seen across all gateways' checkins).
  std::uint64_t service_rules_installed = 0;
};

class Statusd {
 public:
  // `metricsd` may be null (no gauges pushed, health machine still runs).
  Statusd(sim::Kernel& kernel, Metricsd* metricsd, StatusdConfig config = {});
  Statusd(const Statusd&) = delete;
  Statusd& operator=(const Statusd&) = delete;

  // Replace the config (freshness thresholds apply from the next sweep).
  void configure(StatusdConfig config) { config_ = config; }
  const StatusdConfig& config() const { return config_; }

  // Begin the periodic freshness sweep. NOT started implicitly: the sweep
  // reschedules forever, which would wedge tests that drain the kernel with
  // run(). core::Network starts it; standalone tests call sweep_now().
  void start();
  bool started() const { return started_; }

  // A checkin from `gateway_id` carrying its Service303 snapshot. Resets
  // the missed count — an unhealthy gateway recovers here, immediately.
  void record_checkin(const std::string& gateway_id,
                      std::vector<obs::ServiceStatus> services);

  // One freshness evaluation over all tracked gateways (what the periodic
  // sweep runs).
  void sweep_now();

  // kHealthy for gateways that never checked in (nothing tracked yet).
  GatewayHealth health(const std::string& gateway_id) const;
  std::uint64_t missed_checkins(const std::string& gateway_id) const;
  const GatewayStatus* gateway(const std::string& gateway_id) const;
  std::vector<std::string> tracked_gateways() const;

  // The availability ledger the health FSM drives: a gateway entering
  // Unreachable opens a downtime interval (backdated to its first missed
  // heartbeat, last_checkin + checkin_interval — see availability.h), and
  // leaving Unreachable closes it. Alongside the health gauges, every
  // evaluation also pushes `sli_gateway_up` (1.0 unless unreachable) — the
  // SLI series the default availability burn-rate alert watches.
  obs::slo::AvailabilityLedger& availability() { return ledger_; }
  const obs::slo::AvailabilityLedger& availability() const { return ledger_; }

  // Hooks the orchestrator's attribution join hangs off the ledger edges:
  // `open` fires when a downtime interval opens (with its backdated start),
  // `close` when it closes (with the whole interval, end filled in).
  using DowntimeOpenHook =
      std::function<void(const std::string&, sim::TimePoint)>;
  using DowntimeCloseHook = std::function<void(
      const std::string&, const obs::slo::DowntimeInterval&)>;
  void set_downtime_hooks(DowntimeOpenHook open, DowntimeCloseHook close) {
    on_down_ = std::move(open);
    on_up_ = std::move(close);
  }

  const StatusdStats& stats() const { return stats_; }

 private:
  void sweep_tick();
  std::uint64_t missed_for(const GatewayStatus& gw) const;
  // Re-evaluate one gateway's health and push its gauges.
  void evaluate(GatewayStatus& gw);
  // Per-service health: while the gateway FSM is Healthy, push each
  // service's cumulative error counter as a `service_errors_<svc>` gauge,
  // installing (once per distinct service name) a kDelta rule that fires
  // when the counter grows between checkins. A gateway whose checkins stop
  // is covered by the missed-checkin machine instead; its error gauges
  // freeze, so growth during an unhealthy stretch fires once on recovery —
  // the first healthy checkin is exactly when an operator can act on it.
  void push_service_health(const GatewayStatus& gw);

  sim::Kernel& kernel_;
  Metricsd* metricsd_;
  StatusdConfig config_;
  std::map<std::string, GatewayStatus> gateways_;
  std::set<std::string> service_rules_;  // service names with a rule
  bool started_ = false;
  StatusdStats stats_;
  obs::slo::AvailabilityLedger ledger_;
  DowntimeOpenHook on_down_;
  DowntimeCloseHook on_up_;
};

// Default health alerting over the statusd gauges: `gateway_degraded` warns
// at health ≥ degraded, `gateway_unreachable` pages at health ≥ unreachable.
// Both clear automatically when a recovering sweep/checkin pushes a healthy
// sample. Idempotent by rule name.
void install_default_health_rules(Metricsd& metricsd);

}  // namespace magma::orc8r
