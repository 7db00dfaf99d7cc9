#include "agw/magmad.h"

#include <algorithm>

#include "common/log.h"
#include "obs/host_profiler.h"
#include "rpc/fields.h"

namespace magma::agw {

namespace {
constexpr sim::Duration kRpcDeadline = 10 * sim::kSecond;
// Deadline for the streamer GetUpdates poll specifically. The sync is the
// one RPC that must land on degraded backhaul, and on a satellite path at
// high loss a round trip can sit out several RTO backoffs; a deadline
// shorter than that discards responses the transport was about to
// deliver. Long-poll style: one poll interval.
constexpr sim::Duration kSyncRpcDeadline = 30 * sim::kSecond;
// Events per LogEvents RPC.
constexpr std::size_t kEventBatchMax = 64;
}  // namespace

Magmad::Magmad(sim::Kernel& kernel, std::string gateway_id,
               rpc::RpcNode* orc8r, SubscriberDb& subscribers,
               PolicyDb& policies,
               std::function<common::Bytes()> checkpoint_source,
               std::function<std::vector<orc8r::MetricSample>()> metric_source,
               MagmadConfig config, obs::EventBuffer* events,
               std::function<std::vector<orc8r::HistogramSnapshot>()>
                   histogram_source,
               std::function<std::vector<obs::ServiceStatus>()> status_source)
    : kernel_(kernel),
      gateway_id_(std::move(gateway_id)),
      orc8r_(orc8r),
      subscribers_(subscribers),
      policies_(policies),
      checkpoint_source_(std::move(checkpoint_source)),
      metric_source_(std::move(metric_source)),
      config_(config),
      events_(events),
      histogram_source_(std::move(histogram_source)),
      status_source_(std::move(status_source)) {}

void Magmad::set_status(obs::Service303* status) {
  status_ = status;
  obs::svc_phase(status_, reachable_ ? "connected" : "headless");
}

void Magmad::set_reachable(bool up) {
  reachable_ = up;
  obs::svc_phase(status_, up ? "connected" : "headless");
}

template <typename Tick>
void Magmad::every(sim::Duration interval, Tick tick) {
  if (!wedged_) tick();
  kernel_.schedule(interval,
                   [this, interval, tick]() { every(interval, tick); });
}

template <typename Done>
void Magmad::report(const char* service, const char* method,
                    common::Bytes payload, Done done) {
  obs::svc_request(status_);
  orc8r_->call(service, method, std::move(payload), kRpcDeadline,
               [done](rpc::Result<rpc::Bytes> result) { done(result.ok()); });
}

void Magmad::start() {
  if (started_ || orc8r_ == nullptr) return;
  started_ = true;
  every(config_.config_poll_interval, [this]() { sync_config_now(); });
  every(config_.checkin_interval, [this]() { checkin(); });
  every(config_.metrics_interval, [this]() { ship_metrics(); });
  every(config_.checkpoint_interval, [this]() { ship_checkpoint(); });
  if (events_ != nullptr) event_tick();
}

void Magmad::apply(const orc8r::DesiredState& state) {
  MAGMA_HOST_SCOPE("magmad", "apply_full");
  subscribers_.replace_all(state.subscribers);
  policies_.replace_all(state.policies);
  synced_version_ = state.version;
  ++stats_.config_syncs_applied;
}

bool Magmad::apply_delta(const orc8r::DesiredUpdate& update) {
  MAGMA_HOST_SCOPE("magmad", "apply_delta");
  for (const orc8r::DeltaEntry& e : update.entries) {
    if (e.kind == orc8r::DeltaEntry::Kind::kSubscriber) {
      if (e.remove) {
        subscribers_.remove(common::Imsi{e.key});
      } else {
        auto sub = SubscriberData::deserialize(e.blob);
        if (!sub.ok()) return false;
        subscribers_.upsert(std::move(sub).take());
      }
    } else {
      if (e.remove) {
        policies_.remove(e.key);
      } else {
        auto policy = core::Policy::deserialize(e.blob);
        if (!policy.ok()) return false;
        policies_.upsert(std::move(policy).take());
      }
    }
    ++stats_.delta_entries_applied;
  }
  synced_version_ = update.version;
  synced_epoch_ = update.epoch;
  ++stats_.config_delta_syncs;
  ++stats_.config_syncs_applied;
  return true;
}

void Magmad::handle_update(const orc8r::DesiredUpdate& update,
                           const std::function<void(bool)>& done) {
  switch (update.mode) {
    case orc8r::SyncMode::kNoop:
      ++stats_.config_polls_noop;
      if (done) done(false);
      return;
    case orc8r::SyncMode::kFull: {
      auto state = orc8r::DesiredState::deserialize(update.full);
      if (!state.ok()) {
        ++stats_.sync_failures;
        obs::svc_error(status_, "config sync: " + state.error().message);
        if (done) done(false);
        return;
      }
      // The orchestrator is the source of truth: a full sync is applied
      // even when its version goes backwards (restart with an older or
      // rebuilt store) — converging on the authoritative state beats
      // wedging on stale-but-newer local state.
      if (synced_epoch_ != 0 && update.epoch != synced_epoch_) {
        ++stats_.epoch_resyncs;
      }
      if (update.epoch == synced_epoch_ && update.version < synced_version_) {
        ++stats_.sync_regressions;
      }
      apply(state.value());
      synced_version_ = update.version;
      synced_epoch_ = update.epoch;
      ++stats_.config_full_syncs;
      if (done) done(true);
      return;
    }
    case orc8r::SyncMode::kDelta: {
      if (update.epoch != synced_epoch_) {
        // Deltas from another incarnation must never splice onto our
        // state; discard and force a full resync.
        ++stats_.sync_failures;
        synced_version_ = 0;
        synced_epoch_ = 0;
        obs::svc_error(status_, "config sync: delta from foreign epoch");
        if (done) done(false);
        return;
      }
      if (!apply_delta(update)) {
        // A corrupt entry may have been half-applied; resetting the synced
        // state makes the next poll a full sync — the idempotent
        // replace_all repairs whatever the partial delta left behind.
        ++stats_.sync_failures;
        synced_version_ = 0;
        synced_epoch_ = 0;
        obs::svc_error(status_, "config sync: corrupt delta entry");
        if (done) done(false);
        return;
      }
      if (done) done(true);
      return;
    }
  }
  if (done) done(false);
}

void Magmad::sync_config_now(std::function<void(bool)> done) {
  if (orc8r_ == nullptr) {
    if (done) done(false);
    return;
  }
  orc8r::GetUpdatesRequest req;
  req.gateway_id = gateway_id_;
  req.have_version = synced_version_;
  req.have_epoch = synced_epoch_;
  obs::svc_request(status_);
  orc8r_->call(
      orc8r::kStreamerService, orc8r::kGetUpdates, req.serialize(),
      kSyncRpcDeadline, [this, done](rpc::Result<rpc::Bytes> result) {
        if (!result.ok()) {
          ++stats_.sync_failures;
          if (result.error().code == rpc::ErrorCode::kDeadlineExceeded) {
            obs::svc_deadline(status_);
          }
          obs::svc_error(status_, "config sync: " + result.error().message);
          set_reachable(false);
          if (done) done(false);
          return;
        }
        set_reachable(true);
        auto update = orc8r::DesiredUpdate::deserialize(result.value());
        if (!update.ok()) {
          ++stats_.sync_failures;
          obs::svc_error(status_, "config sync: " + update.error().message);
          if (done) done(false);
          return;
        }
        handle_update(update.value(), done);
      });
}

void Magmad::checkin() {
  // The heartbeat carries the gateway's Service303 snapshot — orc8r statusd
  // keys gateway health off these arriving on time.
  const orc8r::CheckinRequest request{
      gateway_id_, "agw",
      obs::encode_gateway_status(status_source_
                                     ? status_source_()
                                     : std::vector<obs::ServiceStatus>{})};
  obs::svc_request(status_);
  orc8r_->call(orc8r::kBootstrapperService, orc8r::kCheckin,
               rpc::encode_record(request), kRpcDeadline,
               [this](rpc::Result<rpc::Bytes> result) {
                 if (result.ok()) {
                   ++stats_.checkins_ok;
                   set_reachable(true);
                   auto ack = rpc::decode_record<orc8r::CheckinResponse>(
                       result.value(), "corrupt checkin ack");
                   const std::uint64_t keep =
                       ack.ok() ? ack.value().keep_per_op : 0;
                   if (keep != 0 && keep != assigned_tail_keep_) {
                     assigned_tail_keep_ = keep;
                     ++stats_.tail_budget_updates;
                     if (tail_budget_sink_) {
                       tail_budget_sink_(static_cast<std::size_t>(keep));
                     }
                   }
                 } else {
                   ++stats_.checkin_failures;
                   if (result.error().code ==
                       rpc::ErrorCode::kDeadlineExceeded) {
                     obs::svc_deadline(status_);
                   }
                   obs::svc_error(status_,
                                  "checkin: " + result.error().message);
                   set_reachable(false);
                 }
               });
}

bool Magmad::shed_telemetry() {
  if (orc8r_->transport_backlog() < config_.telemetry_backpressure) {
    return false;
  }
  ++stats_.telemetry_sheds;
  return true;
}

std::vector<orc8r::HistogramSnapshot> Magmad::prepare_histogram_report(
    std::vector<orc8r::HistogramSnapshot> full) {
  std::vector<orc8r::HistogramSnapshot> out;
  out.reserve(full.size());
  for (orc8r::HistogramSnapshot& snapshot : full) {
    auto it = last_shipped_counts_.find(snapshot.name);
    if (it == last_shipped_counts_.end() ||
        it->second.size() != snapshot.counts.size()) {
      // First sight of this histogram (or a bucket-layout change): ship the
      // full snapshot so metricsd has a base for later deltas.
      ++stats_.histogram_full_snapshots;
      stats_.histogram_buckets_shipped += snapshot.counts.size();
      last_shipped_counts_[snapshot.name] = snapshot.counts;
      out.push_back(std::move(snapshot));
      continue;
    }
    std::vector<std::pair<std::uint32_t, std::uint64_t>> changed;
    for (std::size_t i = 0; i < snapshot.counts.size(); ++i) {
      if (snapshot.counts[i] != it->second[i]) {
        changed.emplace_back(static_cast<std::uint32_t>(i),
                             snapshot.counts[i]);
      }
    }
    if (changed.empty()) {
      // Nothing observed since the last report — ship nothing at all.
      ++stats_.histogram_unchanged_skips;
      continue;
    }
    ++stats_.histogram_delta_snapshots;
    stats_.histogram_buckets_shipped += changed.size();
    it->second = snapshot.counts;
    orc8r::HistogramSnapshot delta;
    delta.gateway_id = std::move(snapshot.gateway_id);
    delta.name = std::move(snapshot.name);
    delta.sum = snapshot.sum;
    delta.time = snapshot.time;
    delta.delta = true;
    delta.changed = std::move(changed);
    out.push_back(std::move(delta));
  }
  return out;
}

void Magmad::ship_metrics() {
  if (shed_telemetry()) return;
  const std::vector<orc8r::MetricSample> samples = metric_source_();
  if (!samples.empty()) {
    // Best effort (§3.4 metrics state): one attempt, short deadline, losses
    // tolerated.
    report(orc8r::kMetricsService, orc8r::kReportMetrics,
           orc8r::encode_metric_report(samples), [this](bool ok) {
             ++(ok ? stats_.metric_reports_sent : stats_.metric_reports_lost);
           });
  }
  if (histogram_source_) {
    std::vector<orc8r::HistogramSnapshot> snapshots =
        prepare_histogram_report(histogram_source_());
    if (!snapshots.empty()) {
      report(orc8r::kMetricsService, orc8r::kReportHistograms,
             orc8r::encode_histogram_report(snapshots), [this](bool ok) {
               if (ok) {
                 ++stats_.histogram_reports_sent;
               } else {
                 ++stats_.histogram_reports_lost;
                 // Metricsd may have missed the base these deltas were
                 // built on — re-ship everything full next tick.
                 last_shipped_counts_.clear();
               }
             });
    }
  }
  if (trace_source_) {
    const std::vector<obs::TraceSummary> summaries = trace_source_();
    if (!summaries.empty()) {
      const std::size_t count = summaries.size();
      report(orc8r::kMetricsService, orc8r::kReportTraceSummaries,
             obs::encode_trace_summaries(summaries), [this, count](bool ok) {
               if (ok) {
                 ++stats_.trace_reports_sent;
                 stats_.trace_summaries_shipped += count;
               } else {
                 ++stats_.trace_reports_lost;
               }
             });
    }
  }
  if (sketch_source_) {
    // Cumulative snapshot, like histograms: a lost report costs nothing,
    // the next tick's snapshot supersedes it.
    report(orc8r::kMetricsService, orc8r::kReportSketches,
           obs::sketch::encode_sketch_report(sketch_source_()),
           [this](bool ok) {
             ++(ok ? stats_.sketch_reports_sent : stats_.sketch_reports_lost);
           });
  }
}

void Magmad::event_tick() {
  if (wedged_) {
    kernel_.schedule(config_.event_flush_interval, [this]() { event_tick(); });
    return;
  }
  // Backpressure-paced drain: ship batches until the buffer is empty or the
  // channel already holds telemetry_backpressure unacked messages. Each
  // batch sent occupies one slot, so the loop self-limits — a deep
  // post-outage buffer catches up a few batches per tick at a rate the
  // congestion window can absorb, while a congested channel sheds entirely
  // and events wait in the bounded buffer (a long backlog only ever costs
  // buffer memory, never channel occupancy).
  while (events_->size() > 0 && !shed_telemetry()) {
    std::vector<obs::Event> batch = events_->take(kEventBatchMax);
    if (batch.empty()) break;
    const std::size_t count = batch.size();
    // Parent the shipping RPC under the first traced event so the eventd
    // leg shows up in that attach's span tree — and span-link every other
    // traced event in the batch onto the shipping span, so a batch carrying
    // N traces connects all N to this one RPC instead of only the first.
    obs::TraceContext parent{};
    for (const obs::Event& e : batch) {
      if (e.trace.valid()) {
        parent = e.trace;
        break;
      }
    }
    obs::TraceContext ship{};
    obs::Tracer* tracer = orc8r_->tracer();
    if (tracer != nullptr && parent.valid()) {
      ship = tracer->begin("ship_events", "magmad", gateway_id_,
                           obs::SpanKind::kInternal, parent);
      for (const obs::Event& e : batch) {
        if (e.trace.valid()) obs::link_span(tracer, ship, e.trace);
      }
    }
    {
      const obs::Tracer::Scope scope(tracer, ship.valid() ? ship : parent);
      // Best effort, like metrics: one attempt, losses counted, nothing
      // re-queued (re-queueing under backhaul loss would just churn the
      // bounded buffer).
      orc8r_->call(orc8r::kEventService, orc8r::kLogEvents,
                   obs::encode_event_report(batch), kRpcDeadline,
                   [this, count](rpc::Result<rpc::Bytes> result) {
                     if (result.ok()) {
                       stats_.events_shipped += count;
                     } else {
                       stats_.events_lost += count;
                     }
                   });
    }
    obs::end_span(tracer, ship);
  }
  // Catch-up cadence: a buffer that still holds events (deep post-outage
  // backlog, or a congested channel we are shedding around) is re-checked
  // every second — a cheap local poll, no channel occupancy — instead of
  // waiting out the full flush interval.
  const sim::Duration next =
      events_->empty() ? config_.event_flush_interval
                       : std::min(config_.event_flush_interval, sim::kSecond);
  kernel_.schedule(next, [this]() { event_tick(); });
}

void Magmad::ship_checkpoint() {
  if (shed_telemetry()) return;
  const orc8r::CheckpointReport checkpoint{gateway_id_, checkpoint_source_()};
  rpc::Writer w;
  w.reserve(8 + checkpoint.gateway_id.size() + checkpoint.image.size());
  rpc::put(w, checkpoint);
  report(orc8r::kStateService, orc8r::kReportCheckpoint, std::move(w).take(),
         [this](bool ok) {
           ++(ok ? stats_.checkpoints_shipped : stats_.checkpoint_failures);
         });
}

}  // namespace magma::agw
