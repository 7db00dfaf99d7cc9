#include "orc8r/orchestrator.h"

#include "obs/host_profiler.h"

#include <algorithm>

#include "common/log.h"
#include "obs/slo/attribution.h"

namespace magma::orc8r {

namespace {
// Process-wide incarnation counter. The sim has no wall clock or boot id,
// so this is what guarantees two orchestrator incarnations never share an
// epoch, and thus that a gateway never splices one incarnation's deltas
// onto another's state.
std::uint64_t g_next_epoch = 1;

// The orchestrator's own name in span records, events and the metrics it
// pushes.
constexpr char kNodeLabel[] = "orc8r";
// Cadence of the periodic SLO evaluation.
constexpr sim::Duration kSloTickInterval = 60 * sim::kSecond;
}  // namespace

Orchestrator::Orchestrator(sim::Kernel& kernel)
    : kernel_(kernel), epoch_(g_next_epoch++) {
  // Every deployment watches its control transports out of the box.
  install_default_transport_rules(metricsd_);
  // ... and its gateways' checkin freshness (statusd gauges).
  install_default_health_rules(metricsd_);
  // A store blob that stops deserializing silently shrinks the config
  // pushed to every gateway; any growth of the decode-error gauge pages.
  metricsd_.add_alert_rule(AlertRule{"orchestrator_store_decode_errors_growth",
                                     "orchestrator_store_decode_errors", 0.0,
                                     true, AlertKind::kDelta});
  // Southbound ingest sheds are loss-tolerant by design, but sustained
  // growth means the fleet outgrew the ingest bounds.
  metricsd_.add_alert_rule(AlertRule{"orc8r_ingest_shed_growth",
                                     "orc8r_ingest_shed", 0.0, true,
                                     AlertKind::kDelta});
  // SRE-style multi-window burn-rate alerting over the extracted SLIs.
  install_default_slo_rules(metricsd_);
  install_default_metricsd_rules(metricsd_);
  // Host-observability guards: the sim kernel and the payload pools fall
  // back to the heap when their inline/pooled capacity is exceeded — both
  // are perf regressions the fleet should page on, not discover in a bench.
  metricsd_.add_alert_rule(AlertRule{"sim_closure_heap_fallbacks_growth",
                                     "sim_closure_heap_fallbacks", 0.0, true,
                                     AlertKind::kDelta});
  metricsd_.add_alert_rule(AlertRule{"pool_heap_fallbacks_growth",
                                     "pool_heap_fallbacks", 0.0, true,
                                     AlertKind::kDelta});
  // SLOs over the signals that already flow (see the header's SLO docs).
  {
    obs::slo::SloSpec availability;
    availability.name = "availability";
    availability.sli_metric = "sli_gateway_up";
    availability.objective = 0.999;
    slos_.push_back(std::move(availability));
    obs::slo::SloSpec attach_success;
    attach_success.name = "attach_success";
    attach_success.sli_metric = "sli_attach_success_rate";
    attach_success.objective = 0.99;
    slos_.push_back(std::move(attach_success));
    obs::slo::SloSpec attach_p95;
    attach_p95.name = "attach_p95";
    attach_p95.sli_metric = "sli_attach_p95_ok";
    attach_p95.objective = 0.95;
    attach_p95.source_histogram = "span_lte_frontend_attach_s";
    attach_p95.quantile = 0.95;
    attach_p95.target = 0.5;  // p95 attach under 500 ms
    slos_.push_back(std::move(attach_p95));
    obs::slo::SloSpec config_sync;
    config_sync.name = "config_sync_freshness";
    config_sync.sli_metric = "sli_config_sync_fresh";
    config_sync.objective = 0.95;
    slos_.push_back(std::move(config_sync));
  }
  // Downtime attribution rides the ledger edges statusd's health FSM drives.
  statusd_.set_downtime_hooks(
      [this](const std::string& gw, sim::TimePoint start) {
        on_downtime_open(gw, start);
      },
      [this](const std::string& gw,
             const obs::slo::DowntimeInterval& interval) {
        on_downtime_close(gw, interval);
      });
  svc_streamer_ = &status_.register_service("streamer");
  svc_bootstrapper_ = &status_.register_service("bootstrapper");
  svc_state_ = &status_.register_service("state");
  svc_metricsd_ = &status_.register_service("metricsd");
  svc_eventd_ = &status_.register_service("eventd");
  svc_statusd_ = &status_.register_service("statusd");
}

std::vector<obs::Event> Orchestrator::events_of_type(
    const std::string& type) const {
  std::vector<obs::Event> out;
  for (const obs::Event& e : events_) {
    if (e.type == type) out.push_back(e);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Northbound API
// ---------------------------------------------------------------------------

void Orchestrator::add_subscriber(const agw::SubscriberData& subscriber) {
  common::Bytes blob = subscriber.serialize();
  subscribers_[subscriber.imsi] = blob;
  record_delta(DeltaEntry{DeltaEntry::Kind::kSubscriber, false,
                          subscriber.imsi.value, std::move(blob)});
}

void Orchestrator::remove_subscriber(const common::Imsi& imsi) {
  if (subscribers_.erase(imsi) == 0) return;
  record_delta(DeltaEntry{DeltaEntry::Kind::kSubscriber, true, imsi.value, {}});
}

std::optional<agw::SubscriberData> Orchestrator::get_subscriber(
    const common::Imsi& imsi) const {
  const auto it = subscribers_.find(imsi);
  if (it == subscribers_.end()) return std::nullopt;
  auto parsed = agw::SubscriberData::deserialize(it->second);
  if (!parsed.ok()) return std::nullopt;
  return std::move(parsed).take();
}

void Orchestrator::add_policy(const core::Policy& policy) {
  common::Bytes blob = policy.serialize();
  policies_[policy.name] = blob;
  record_delta(DeltaEntry{DeltaEntry::Kind::kPolicy, false, policy.name,
                          std::move(blob)});
}

void Orchestrator::remove_policy(const std::string& name) {
  if (policies_.erase(name) == 0) return;
  record_delta(DeltaEntry{DeltaEntry::Kind::kPolicy, true, name, {}});
}

std::optional<core::Policy> Orchestrator::get_policy(
    const std::string& name) const {
  const auto it = policies_.find(name);
  if (it == policies_.end()) return std::nullopt;
  auto parsed = core::Policy::deserialize(it->second);
  if (!parsed.ok()) return std::nullopt;
  return std::move(parsed).take();
}

void Orchestrator::register_gateway(const std::string& gateway_id,
                                    const std::string& description) {
  auto& record = gateways_[gateway_id];
  record.id = gateway_id;
  record.description = description;
}

std::optional<GatewayRecord> Orchestrator::gateway(
    const std::string& gateway_id) const {
  auto it = gateways_.find(gateway_id);
  if (it == gateways_.end()) return std::nullopt;
  return it->second;
}

std::vector<GatewayRecord> Orchestrator::gateways() const {
  std::vector<GatewayRecord> out;
  out.reserve(gateways_.size());
  for (const auto& [_, record] : gateways_) out.push_back(record);
  return out;
}

std::optional<common::Bytes> Orchestrator::stored_checkpoint(
    const std::string& gateway_id) const {
  auto it = checkpoints_.find(gateway_id);
  if (it == checkpoints_.end()) return std::nullopt;
  return it->second;
}

// ---------------------------------------------------------------------------
// Streamer: full state, blob cache, delta log
// ---------------------------------------------------------------------------

void Orchestrator::record_delta(DeltaEntry entry) {
  delta_log_.push_back(DeltaRecord{++version_, std::move(entry)});
  while (delta_log_.size() > delta_log_cap_) delta_log_.pop_front();
}

void Orchestrator::set_delta_log_cap(std::size_t cap) {
  delta_log_cap_ = cap;
  while (delta_log_.size() > delta_log_cap_) delta_log_.pop_front();
}

void Orchestrator::note_store_decode_error(const std::string& key,
                                           const std::string& what) {
  ++stats_.store_decode_errors;
  MLOG_WARN("orchestrator")
      << "store blob failed to decode, dropped from desired state: " << key
      << " (" << what << ")";
  metricsd_.ingest(MetricSample{
      kNodeLabel, "orchestrator_store_decode_errors",
      static_cast<double>(stats_.store_decode_errors), kernel_.now()});
  obs::Event event;
  event.time = kernel_.now();
  event.gateway_id = kNodeLabel;
  event.type = "store_decode_error";
  event.source = "streamer";
  event.message = key + ": " + what;
  event.severity = obs::EventSeverity::kWarn;
  record_event(std::move(event));
}

void Orchestrator::record_event(obs::Event event) {
  events_.push_back(std::move(event));
  if (events_.size() > kEventRetention) {
    events_.pop_front();
    ++stats_.events_dropped;
  }
}

DesiredState Orchestrator::build_full_state() {
  DesiredState state;
  state.version = version_;
  for (const auto& [imsi, blob] : subscribers_) {
    auto sub = agw::SubscriberData::deserialize(blob);
    if (sub.ok()) {
      state.subscribers.push_back(std::move(sub).take());
    } else {
      note_store_decode_error("sub/" + imsi.value, sub.error().message);
    }
  }
  for (const auto& [name, blob] : policies_) {
    auto policy = core::Policy::deserialize(blob);
    if (policy.ok()) {
      state.policies.push_back(std::move(policy).take());
    } else {
      note_store_decode_error("policy/" + name, policy.error().message);
    }
  }
  return state;
}

const common::Bytes& Orchestrator::full_state_blob() {
  MAGMA_HOST_SCOPE("streamer", "serialize_full");
  if (!cached_full_valid_ || cached_full_version_ != version_) {
    const DesiredState state = build_full_state();
    cached_full_ = state.serialize();
    cached_full_version_ = state.version;
    cached_full_valid_ = true;
    ++stats_.full_serializations;
  } else {
    ++stats_.full_cache_hits;
  }
  return cached_full_;
}

DesiredUpdate Orchestrator::desired_update(const GetUpdatesRequest& request) {
  MAGMA_HOST_SCOPE("streamer", "desired_update");
  DesiredUpdate u;
  u.version = version_;
  u.epoch = epoch_;

  const auto full = [this, &u]() {
    u.mode = SyncMode::kFull;
    u.full = full_state_blob();
    ++stats_.full_pushes;
  };

  if (request.have_epoch != epoch_) {
    // First contact (have_epoch 0) or another incarnation's state: only the
    // idempotent full sync is safe.
    if (request.have_epoch != 0) ++stats_.epoch_resyncs;
    full();
    return u;
  }
  if (request.have_version == u.version) {
    u.mode = SyncMode::kNoop;
    return u;
  }
  if (request.have_version > u.version) {
    // Same epoch but the gateway is ahead of the config — it claims a
    // version this incarnation never served. Full sync walks it back
    // explicitly.
    ++stats_.version_regressions;
    full();
    return u;
  }

  // Behind by (have_version, version]. Serve a delta only if the log holds
  // a record for *every* version bump in the range — a range longer than
  // the capped log must surface as a coverage gap, not a wrong delta.
  const std::uint64_t need = u.version - request.have_version;
  std::uint64_t covered = 0;
  for (auto it = delta_log_.rbegin();
       it != delta_log_.rend() && it->version > request.have_version; ++it) {
    ++covered;
  }
  if (covered != need) {
    ++stats_.delta_log_misses;
    full();
    return u;
  }

  // Coalesce the range: last mutation per (kind, key) wins, emitted in
  // deterministic (kind, key) order. An add+remove pair still emits the
  // remove — the gateway may hold the earlier add.
  std::map<std::pair<int, std::string>, const DeltaEntry*> coalesced;
  for (auto it = delta_log_.end() - static_cast<std::ptrdiff_t>(covered);
       it != delta_log_.end(); ++it) {
    coalesced[{static_cast<int>(it->entry.kind), it->entry.key}] = &it->entry;
  }
  u.mode = SyncMode::kDelta;
  u.entries.reserve(coalesced.size());
  for (const auto& [_, entry] : coalesced) u.entries.push_back(*entry);
  ++stats_.delta_pushes;
  stats_.delta_entries_sent += u.entries.size();
  stats_.deltas_coalesced += covered - u.entries.size();
  return u;
}

std::uint64_t Orchestrator::assigned_keep_per_op() const {
  if (fleet_trace_budget_ == 0) return 0;
  const std::uint64_t fleet =
      std::max<std::uint64_t>(1, gateways_.size());
  return std::max<std::uint64_t>(1, fleet_trace_budget_ / fleet);
}

void Orchestrator::note_ingest_shed(IngestKind kind) {
  (void)kind;  // per-kind breakdown lives in IngestShards' stats
  ++stats_.ingest_sheds;
  metricsd_.ingest(MetricSample{kNodeLabel, "orc8r_ingest_shed",
                                static_cast<double>(stats_.ingest_sheds),
                                kernel_.now()});
}

// ---------------------------------------------------------------------------
// Fleet SLO layer
// ---------------------------------------------------------------------------

void Orchestrator::start_slo_tick() {
  if (slo_tick_started_) return;
  slo_tick_started_ = true;
  slo_tick();
}

void Orchestrator::slo_tick() {
  kernel_.schedule(kSloTickInterval, [this]() {
    slo_tick_now();
    slo_tick();
  });
}

void Orchestrator::slo_tick_now() {
  ++stats_.slo_ticks;
  const sim::TimePoint now = kernel_.now();
  // Piggyback metricsd's self-observation (the per-kind samples-dropped
  // gauge) on the SLO cadence: the kDelta growth rule sees a fresh point
  // every tick.
  metricsd_.self_observe(now);
  for (const obs::slo::SloSpec& spec : slos_) {
    if (spec.source_histogram.empty()) continue;
    // Derived SLI: the fleet-merged quantile of a histogram that already
    // ships, folded to a 0/1 good sample against the spec's target.
    if (metricsd_.histogram_count(spec.source_histogram) == 0) continue;
    const double q =
        metricsd_.histogram_quantile(spec.source_histogram, spec.quantile);
    metricsd_.ingest(MetricSample{kNodeLabel, spec.sli_metric,
                                  q <= spec.target ? 1.0 : 0.0, now});
  }
}

std::vector<obs::slo::SloStatus> Orchestrator::slo_report(
    sim::TimePoint from, sim::TimePoint to) const {
  std::vector<obs::slo::SloStatus> rows;
  rows.reserve(slos_.size());
  const std::vector<ActiveAlert> alerts = metricsd_.active_alerts();
  for (const obs::slo::SloSpec& spec : slos_) {
    obs::slo::SloStatus row;
    row.name = spec.name;
    row.objective = spec.objective;
    // No samples in the window means nothing went wrong where the SLI is
    // extracted (e.g. no attaches at all): report the budget untouched.
    row.sli =
        metricsd_.mean_in_window(spec.sli_metric, from, to).value_or(1.0);
    row.burn = obs::slo::burn_rate(row.sli, spec.objective);
    row.budget_consumed = obs::slo::budget_consumed(
        row.sli, spec.objective, to - from, spec.window);
    for (const ActiveAlert& alert : alerts) {
      for (const AlertRule& rule : metricsd_.alert_rules()) {
        if (rule.name == alert.rule && rule.metric == spec.sli_metric &&
            rule.kind == AlertKind::kBurnRate) {
          row.alerting = true;
        }
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {
// Fleet critical-path profile (runq_s, total_s) summed over metricsd's
// latency attribution — the overload lens of downtime attribution.
std::pair<double, double> fleet_runq_profile(const Metricsd& metricsd) {
  double runq_s = 0;
  double total_s = 0;
  for (const LatencyAttributionRow& row : metricsd.latency_attribution()) {
    runq_s += row.component_s[static_cast<std::size_t>(obs::WaitState::kRunq)];
    total_s += row.total_s;
  }
  return {runq_s, total_s};
}
}  // namespace

void Orchestrator::on_downtime_open(const std::string& gateway_id,
                                    sim::TimePoint start) {
  (void)start;
  // Snapshot the fleet profile now; the close-side join deltas against it
  // to decide whether the outage window was runq-dominated.
  open_runq_snapshots_[gateway_id] = fleet_runq_profile(metricsd_);
}

void Orchestrator::on_downtime_close(
    const std::string& gateway_id,
    const obs::slo::DowntimeInterval& interval) {
  // Wait out the settle delay so the recovered gateway's next metrics tick
  // (carrying the counters that grew mid-outage) and its buffered events
  // have landed before the join reads the evidence.
  kernel_.schedule(kAttributionSettle,
                   [this, gw = gateway_id, iv = interval]() mutable {
                     attribute_interval(gw, std::move(iv));
                   });
}

void Orchestrator::attribute_interval(const std::string& gateway_id,
                                      obs::slo::DowntimeInterval interval) {
  const sim::TimePoint now = kernel_.now();
  // Counter growth across [just before the down edge, now]: cumulative
  // gauges make this robust to every mid-outage report being lost.
  auto growth = [&](const std::string& metric) -> double {
    const auto after = metricsd_.latest_at_or_before(gateway_id, metric, now);
    if (!after.has_value()) return 0;
    const auto before =
        metricsd_.latest_at_or_before(gateway_id, metric, interval.start);
    // A series that first appears mid-outage grew from zero.
    if (!before.has_value()) return std::max(0.0, *after);
    return std::max(0.0, *after - *before);
  };
  obs::slo::DowntimeSignals signals;
  signals.transport_resets_growth = growth("transport_resets");
  signals.rto_at_cap_growth = growth("transport_rto_at_cap");
  signals.link_drops_growth = growth("link_dropped_packets_ul") +
                              growth("link_dropped_packets_dl");
  // ERROR events near the interval. The down edge is backdated to the first
  // missed heartbeat, so a crash logged just before the heartbeats stopped
  // sits slightly before interval.start — scan back a couple of checkin
  // intervals.
  const sim::TimePoint event_floor =
      interval.start - 2 * statusd_.config().checkin_interval;
  for (const obs::Event& e : events_) {
    if (e.gateway_id != gateway_id || e.time < event_floor) continue;
    if (e.severity != obs::EventSeverity::kError) continue;
    signals.error_event = true;
    signals.error_source = e.source;
  }
  // Per-service error-counter growth (statusd pushes service_errors_<svc>
  // from the checkin snapshots).
  static constexpr const char kServiceErrorsPrefix[] = "service_errors_";
  for (const std::string& name : metricsd_.metric_names()) {
    if (name.rfind(kServiceErrorsPrefix, 0) != 0) continue;
    const double g = growth(name);
    if (g > signals.max_service_error_growth) {
      signals.max_service_error_growth = g;
      signals.error_service = name.substr(sizeof(kServiceErrorsPrefix) - 1);
    }
  }
  signals.overload_rejections_growth = growth("accessd_overload_rejections");
  if (auto it = open_runq_snapshots_.find(gateway_id);
      it != open_runq_snapshots_.end()) {
    const auto [runq_s, total_s] = fleet_runq_profile(metricsd_);
    const double total_delta = total_s - it->second.second;
    if (total_delta > 0) {
      signals.runq_wait_fraction =
          std::max(0.0, (runq_s - it->second.first) / total_delta);
    }
    open_runq_snapshots_.erase(it);
  }

  std::string detail;
  const obs::slo::DowntimeCause cause =
      obs::slo::attribute_downtime(signals, &detail);
  statusd_.availability().label(gateway_id, interval.start, cause, detail);
  if (cause == obs::slo::DowntimeCause::kUnknown) {
    ++stats_.downtime_unattributed;
  } else {
    ++stats_.downtime_intervals_labeled;
  }
  // Leave the verdict where operators already look: the event stream.
  obs::Event event;
  event.time = now;
  event.gateway_id = gateway_id;
  event.type = "downtime_attributed";
  event.source = "statusd";
  event.message = std::string(obs::slo::downtime_cause_name(cause)) +
                  (detail.empty() ? "" : ": " + detail);
  event.severity = obs::EventSeverity::kWarn;
  record_event(std::move(event));
}

// ---------------------------------------------------------------------------
// Southbound RPC surface
// ---------------------------------------------------------------------------

namespace {
// The gateway a decoded report came from (its ingest-shard key).
template <typename T>
std::string report_gateway(const std::vector<T>& batch) {
  return batch.empty() ? std::string{} : batch.front().gateway_id;
}
std::string report_gateway(const obs::sketch::SketchReport& report) {
  return report.gateway_id;
}
}  // namespace

template <auto kDecode, IngestKind kKind, Metricsd::DropKind kDrop,
          std::uint64_t OrchestratorStats::*kReports, typename Apply>
void Orchestrator::bind_report(rpc::RpcNode& node, const char* method,
                               Apply apply) {
  node.register_method(
      kMetricsService, method,
      [this, apply](const rpc::Bytes& request, rpc::Respond respond) {
        obs::svc_request(svc_metricsd_);
        auto decoded = kDecode(request);
        if (!decoded.ok()) {
          obs::svc_error(svc_metricsd_, decoded.error().message);
          metricsd_.note_drop(kDrop);
          respond(rpc::Error{decoded.error()});
          return;
        }
        ++(stats_.*kReports);
        auto batch = std::move(decoded).take();
        const std::string gateway_id = report_gateway(batch);
        if (!ingest_.submit(gateway_id, kKind,
                            [this, apply, batch = std::move(batch)]() mutable {
                              apply(metricsd_, batch);
                            })) {
          note_ingest_shed(kKind);
        }
        respond(rpc::Bytes{});
      });
}

void Orchestrator::bind(rpc::RpcNode& node) {
  node.register_method(
      kStreamerService, kGetUpdates,
      [this](const rpc::Bytes& request, rpc::Respond respond) {
        obs::svc_request(svc_streamer_);
        auto req = GetUpdatesRequest::deserialize(request);
        if (!req.ok()) {
          obs::svc_error(svc_streamer_, req.error().message);
          respond(rpc::Error{req.error()});
          return;
        }
        const DesiredUpdate update = desired_update(req.value());
        if (update.mode == SyncMode::kNoop) {
          ++stats_.noop_polls;
        } else {
          ++stats_.config_pushes;
        }
        // Config-sync freshness SLI: a poll answered "current" means this
        // gateway's config was fresh when it asked (first contact and
        // post-change catch-ups read as stale, which is exactly what the
        // freshness budget is spent on).
        if (!req.value().gateway_id.empty()) {
          metricsd_.ingest(MetricSample{
              req.value().gateway_id, "sli_config_sync_fresh",
              update.mode == SyncMode::kNoop ? 1.0 : 0.0, kernel_.now()});
        }
        respond(update.serialize());
      });

  node.register_method(
      kBootstrapperService, kCheckin,
      [this](const rpc::Bytes& request, rpc::Respond respond) {
        MAGMA_HOST_SCOPE("orc8r", "checkin");
        obs::svc_request(svc_bootstrapper_);
        auto checkin =
            rpc::decode_record<CheckinRequest>(request, "bad checkin");
        if (!checkin.ok()) {
          obs::svc_error(svc_bootstrapper_, checkin.error().message);
          respond(rpc::Error{checkin.error()});
          return;
        }
        auto services = obs::decode_gateway_status(checkin.value().status);
        if (!services.ok()) {
          obs::svc_error(svc_bootstrapper_, services.error().message);
          respond(rpc::Error{services.error()});
          return;
        }
        // Inventory bookkeeping stays inline (cheap, and the response's
        // tail budget needs the fleet size); the statusd apply — health FSM
        // plus per-service snapshot storage — rides the ingest shards.
        const std::string& gateway_id = checkin.value().gateway_id;
        auto& record = gateways_[gateway_id];
        record.id = gateway_id;
        if (record.description.empty()) {
          record.description = checkin.value().description;
        }
        ++stats_.checkins;
        obs::svc_request(svc_statusd_);
        if (!ingest_.submit(
                gateway_id, IngestKind::kCheckin,
                [this, gateway_id,
                 snapshot = std::move(services).take()]() mutable {
                  statusd_.record_checkin(gateway_id, std::move(snapshot));
                })) {
          note_ingest_shed(IngestKind::kCheckin);
        }
        respond(rpc::encode_record(
            CheckinResponse{true, assigned_keep_per_op()}));
      });

  node.register_method(
      kStateService, kReportCheckpoint,
      [this](const rpc::Bytes& request, rpc::Respond respond) {
        obs::svc_request(svc_state_);
        auto checkpoint =
            rpc::decode_record<CheckpointReport>(request, "bad checkpoint");
        if (!checkpoint.ok()) {
          obs::svc_error(svc_state_, checkpoint.error().message);
          respond(rpc::Error{checkpoint.error()});
          return;
        }
        checkpoints_[checkpoint.value().gateway_id] =
            std::move(checkpoint.value().image);
        ++stats_.checkpoints_stored;
        respond(rpc::Bytes{});
      });

  using Drop = Metricsd::DropKind;
  bind_report<decode_metric_report, IngestKind::kMetrics, Drop::kMetric,
              &OrchestratorStats::metric_reports>(
      node, kReportMetrics, [](Metricsd& m, auto& b) { m.ingest(b); });
  bind_report<decode_histogram_report, IngestKind::kHistograms,
              Drop::kHistogram, &OrchestratorStats::histogram_reports>(
      node, kReportHistograms,
      [](Metricsd& m, auto& b) { m.ingest_histograms(b); });
  bind_report<obs::decode_trace_summaries, IngestKind::kTraceSummaries,
              Drop::kTraceSummary, &OrchestratorStats::trace_summary_reports>(
      node, kReportTraceSummaries,
      [](Metricsd& m, auto& b) { m.ingest_trace_summaries(b); });
  bind_report<obs::sketch::decode_sketch_report, IngestKind::kSketches,
              Drop::kSketch, &OrchestratorStats::sketch_reports>(
      node, kReportSketches,
      [](Metricsd& m, auto& b) { m.ingest_sketch_report(std::move(b)); });

  node.register_method(
      kEventService, kLogEvents,
      [this](const rpc::Bytes& request, rpc::Respond respond) {
        obs::svc_request(svc_eventd_);
        auto events = obs::decode_event_report(request);
        if (!events.ok()) {
          obs::svc_error(svc_eventd_, events.error().message);
          respond(rpc::Error{events.error()});
          return;
        }
        // Attach-success SLI, extracted from the attach milestone events
        // already in the batch: per gateway, good / (good + bad).
        std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
            attach_outcomes;
        for (const obs::Event& e : events.value()) {
          if (e.type == "attach_success") {
            ++attach_outcomes[e.gateway_id].first;
          } else if (e.type == "attach_reject" || e.type == "attach_abort") {
            ++attach_outcomes[e.gateway_id].second;
          }
        }
        for (const auto& [gateway_id, outcomes] : attach_outcomes) {
          const double total =
              static_cast<double>(outcomes.first + outcomes.second);
          metricsd_.ingest(MetricSample{
              gateway_id, "sli_attach_success_rate",
              static_cast<double>(outcomes.first) / total, kernel_.now()});
        }
        for (obs::Event& e : events.value()) {
          if (tracer_ != nullptr && e.trace.valid()) {
            // Anchor the ingest into the event's originating trace — this
            // is the orc8r-side leaf of an attach's span tree.
            const obs::TraceContext span = tracer_->begin(
                "ingest_event", "eventd", kNodeLabel,
                obs::SpanKind::kInternal, e.trace);
            tracer_->tag(span, "type", e.type);
            tracer_->tag(span, "gateway", e.gateway_id);
            tracer_->end(span);
          }
          record_event(std::move(e));
          ++stats_.events_ingested;
        }
        ++stats_.event_reports;
        respond(rpc::Bytes{});
      });
}

}  // namespace magma::orc8r
