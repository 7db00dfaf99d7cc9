#include "orc8r/statusd.h"

namespace magma::orc8r {

Statusd::Statusd(sim::Kernel& kernel, Metricsd* metricsd, StatusdConfig config)
    : kernel_(kernel), metricsd_(metricsd), config_(config) {}

void Statusd::start() {
  if (started_) return;
  started_ = true;
  sweep_tick();
}

void Statusd::sweep_tick() {
  kernel_.schedule(config_.sweep_interval, [this]() {
    sweep_now();
    sweep_tick();
  });
}

std::uint64_t Statusd::missed_for(const GatewayStatus& gw) const {
  if (gw.last_checkin < 0 || config_.checkin_interval <= 0) return 0;
  const sim::Duration since = kernel_.now() - gw.last_checkin;
  if (since <= 0) return 0;
  return static_cast<std::uint64_t>(since / config_.checkin_interval);
}

void Statusd::evaluate(GatewayStatus& gw) {
  const std::uint64_t missed = missed_for(gw);
  GatewayHealth next = GatewayHealth::kHealthy;
  if (missed >= config_.unreachable_after_missed) {
    next = GatewayHealth::kUnreachable;
  } else if (missed >= config_.degraded_after_missed) {
    next = GatewayHealth::kDegraded;
  }
  if (next != gw.health) {
    const GatewayHealth prev = gw.health;
    if (next == GatewayHealth::kHealthy) {
      ++stats_.recoveries;
    } else if (next == GatewayHealth::kUnreachable) {
      ++stats_.to_unreachable;
    } else {
      ++stats_.to_degraded;
    }
    gw.health = next;
    if (next == GatewayHealth::kUnreachable) {
      // The gateway went dark well before the FSM noticed: backdate the
      // down edge to the first missed heartbeat, bounding the availability
      // error per edge to one checkin interval instead of the detection
      // latency (unreachable_after_missed intervals + a sweep).
      const sim::TimePoint down_at =
          gw.last_checkin >= 0 ? gw.last_checkin + config_.checkin_interval
                               : kernel_.now();
      ledger_.record_down(gw.gateway_id, down_at);
      if (on_down_) {
        on_down_(gw.gateway_id,
                 ledger_.intervals(gw.gateway_id)->back().start);
      }
    } else if (prev == GatewayHealth::kUnreachable) {
      ledger_.record_up(gw.gateway_id, kernel_.now());
      if (on_up_) {
        on_up_(gw.gateway_id, ledger_.intervals(gw.gateway_id)->back());
      }
    }
  }
  if (metricsd_ != nullptr) {
    const sim::TimePoint now = kernel_.now();
    metricsd_->ingest(MetricSample{gw.gateway_id, "gateway_health",
                                   static_cast<double>(gw.health), now});
    metricsd_->ingest(MetricSample{gw.gateway_id, "gateway_missed_checkins",
                                   static_cast<double>(missed), now});
    metricsd_->ingest(MetricSample{
        gw.gateway_id, "sli_gateway_up",
        gw.health == GatewayHealth::kUnreachable ? 0.0 : 1.0, now});
  }
}

void Statusd::record_checkin(const std::string& gateway_id,
                             std::vector<obs::ServiceStatus> services) {
  GatewayStatus& gw = gateways_[gateway_id];
  gw.gateway_id = gateway_id;
  ledger_.observe(gateway_id, kernel_.now());
  gw.last_checkin = kernel_.now();
  ++gw.checkins;
  gw.services = std::move(services);
  ++stats_.checkins;
  // Immediate re-evaluation: recovery (and its alert clear) must not wait
  // for the next sweep.
  evaluate(gw);
  push_service_health(gw);
}

void Statusd::push_service_health(const GatewayStatus& gw) {
  if (metricsd_ == nullptr || gw.health != GatewayHealth::kHealthy) return;
  const sim::TimePoint now = kernel_.now();
  for (const obs::ServiceStatus& svc : gw.services) {
    if (service_rules_.insert(svc.service).second) {
      // First sight of this service name anywhere in the fleet: watch its
      // error counter for growth. Counters are monotonic, so any positive
      // delta between two healthy checkins means the service is erroring
      // while the gateway as a whole still looks fine — precisely the
      // failure the gateway-level FSM cannot see.
      metricsd_->add_alert_rule(
          AlertRule{"service_errors_growth_" + svc.service,
                    "service_errors_" + svc.service, 0.0, true,
                    AlertKind::kDelta});
      ++stats_.service_rules_installed;
    }
    metricsd_->ingest(MetricSample{gw.gateway_id,
                                   "service_errors_" + svc.service,
                                   static_cast<double>(svc.errors), now});
  }
}

void Statusd::sweep_now() {
  ++stats_.sweeps;
  for (auto& [_, gw] : gateways_) evaluate(gw);
}

GatewayHealth Statusd::health(const std::string& gateway_id) const {
  auto it = gateways_.find(gateway_id);
  return it == gateways_.end() ? GatewayHealth::kHealthy : it->second.health;
}

std::uint64_t Statusd::missed_checkins(const std::string& gateway_id) const {
  auto it = gateways_.find(gateway_id);
  return it == gateways_.end() ? 0 : missed_for(it->second);
}

const GatewayStatus* Statusd::gateway(const std::string& gateway_id) const {
  auto it = gateways_.find(gateway_id);
  return it == gateways_.end() ? nullptr : &it->second;
}

std::vector<std::string> Statusd::tracked_gateways() const {
  std::vector<std::string> out;
  out.reserve(gateways_.size());
  for (const auto& [id, _] : gateways_) out.push_back(id);
  return out;
}

void install_default_health_rules(Metricsd& metricsd) {
  // gateway_health samples are 0/1/2 (healthy/degraded/unreachable), so the
  // thresholds split cleanly between the levels and clear on recovery.
  metricsd.add_alert_rule(AlertRule{"gateway_degraded", "gateway_health", 0.5,
                                    true, AlertKind::kThreshold});
  metricsd.add_alert_rule(AlertRule{"gateway_unreachable", "gateway_health",
                                    1.5, true, AlertKind::kThreshold});
}

}  // namespace magma::orc8r
