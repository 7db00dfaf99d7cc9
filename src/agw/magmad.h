// magmad — the AGW's device-management agent (Table 1 rows "Device
// Management" and "Telemetry and logging": functions with no 3GPP
// equivalent that Magma adds, §3.1).
//
// Responsibilities, all periodic and all tolerant of a disconnected
// orchestrator (§3.2 headless operation):
//   * config sync   — poll the streamer with our current version; apply the
//                     full desired state (subscribers + policies) when it
//                     changed. A failed poll is simply repeated next tick.
//   * check-in      — device heartbeat into the gateway inventory.
//   * metrics       — best-effort telemetry shipping (no retries, §3.4).
//   * checkpoint    — serialize AGW runtime state and ship it to the
//                     orchestrator as the warm-standby image (§3.3).
//   * events        — drain the gateway's structured-event buffer (attach
//                     outcomes, WARN/ERROR logs) to the orchestrator's
//                     eventd. Best-effort: a batch that fails in flight is
//                     counted lost, never re-queued, and a backhaul outage
//                     only ever costs bounded buffer memory.
//
// All best-effort shipping (metrics, events, checkpoints) yields to the
// config sync under transport backpressure: when the shared control channel
// already holds `telemetry_backpressure` unacknowledged messages, the tick
// sheds instead of queueing behind the congestion window. Without this, on
// a high-loss satellite path the telemetry queue grows without bound and
// every deadline-bound sync RPC behind it times out — the gateway delivers
// metrics it no longer needs while never learning its subscribers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <map>

#include "agw/policydb.h"
#include "agw/subscriberdb.h"
#include "obs/events.h"
#include "obs/status.h"
#include "obs/tail_sampler.h"
#include "orc8r/metricsd.h"
#include "orc8r/streamer.h"
#include "rpc/rpc.h"
#include "sim/kernel.h"

namespace magma::agw {

struct MagmadConfig {
  sim::Duration config_poll_interval = 30 * sim::kSecond;
  sim::Duration checkin_interval = 60 * sim::kSecond;
  sim::Duration metrics_interval = 15 * sim::kSecond;
  sim::Duration checkpoint_interval = 60 * sim::kSecond;
  sim::Duration event_flush_interval = 5 * sim::kSecond;
  // Best-effort backpressure: when the control channel already holds this
  // many unacknowledged messages, metrics/event/checkpoint ticks skip
  // shipping (counted in telemetry_sheds) instead of queueing behind the
  // congestion window — where they would starve the config sync whose
  // deadline-bound RPCs share the channel.
  std::size_t telemetry_backpressure = 4;
};

struct MagmadStats {
  std::uint64_t config_syncs_applied = 0;
  std::uint64_t config_polls_noop = 0;
  std::uint64_t sync_failures = 0;
  // Sync breakdown: config_syncs_applied = full + delta applies.
  std::uint64_t config_full_syncs = 0;
  std::uint64_t config_delta_syncs = 0;
  std::uint64_t delta_entries_applied = 0;
  // Full syncs whose version went *backwards* (orchestrator restarted with
  // an older or rebuilt store). Accepted, not wedged: the orchestrator is
  // the source of truth, stale-but-newer local state loses (§3.4).
  std::uint64_t sync_regressions = 0;
  // Orchestrator epoch changes observed (each forces a full resync).
  std::uint64_t epoch_resyncs = 0;
  // Fleet tail-budget assignments applied from checkin responses.
  std::uint64_t tail_budget_updates = 0;
  std::uint64_t checkins_ok = 0;
  std::uint64_t checkin_failures = 0;
  std::uint64_t metric_reports_sent = 0;
  std::uint64_t metric_reports_lost = 0;
  std::uint64_t checkpoints_shipped = 0;
  std::uint64_t checkpoint_failures = 0;
  std::uint64_t histogram_reports_sent = 0;
  std::uint64_t histogram_reports_lost = 0;
  // Buckets actually put on the wire (full snapshots count every bucket,
  // deltas only the changed ones, unchanged histograms nothing) — the gauge
  // that proves delta shipping's reduction.
  std::uint64_t histogram_buckets_shipped = 0;
  // Delta bookkeeping: full snapshots vs deltas vs unchanged-skips.
  std::uint64_t histogram_full_snapshots = 0;
  std::uint64_t histogram_delta_snapshots = 0;
  std::uint64_t histogram_unchanged_skips = 0;
  std::uint64_t events_shipped = 0;
  std::uint64_t events_lost = 0;
  // Tail-sampled trace summaries (the "where does attach latency go"
  // payload): reports put on the wire vs lost, and summaries carried.
  // Best-effort like metrics — a lost report's summaries are gone; the
  // sampler keeps producing fresh ones every window.
  std::uint64_t trace_reports_sent = 0;
  std::uint64_t trace_reports_lost = 0;
  std::uint64_t trace_summaries_shipped = 0;
  // Per-subscriber sketch reports (cumulative SpaceSaving + HLL snapshots,
  // O(K + 2^p) on the wire however many subscribers the gateway serves).
  // Best-effort like the rest: a lost report is superseded by the next
  // tick's cumulative snapshot.
  std::uint64_t sketch_reports_sent = 0;
  std::uint64_t sketch_reports_lost = 0;
  // Best-effort ticks that skipped shipping because the control channel was
  // already backlogged (see MagmadConfig::telemetry_backpressure). Events
  // stay in their bounded buffer for the next tick; metrics/checkpoints are
  // simply not snapshotted this round.
  std::uint64_t telemetry_sheds = 0;
};

class Magmad {
 public:
  // `orc8r` is the RPC client toward the orchestrator; may be null for a
  // fully standalone AGW (everything local keeps working — that is the
  // point). `checkpoint_source` returns the AGW's serialized runtime state;
  // `metric_source` returns the current telemetry snapshot.
  // `events` (optional) is the gateway's structured-event buffer, drained
  // periodically toward eventd; `histogram_source` (optional) returns the
  // gateway's latency-histogram snapshots, shipped with each metrics tick;
  // `status_source` (optional) returns the gateway's Service303 registry
  // snapshot, shipped inside each checkin (the health plane's payload).
  Magmad(sim::Kernel& kernel, std::string gateway_id, rpc::RpcNode* orc8r,
         SubscriberDb& subscribers, PolicyDb& policies,
         std::function<common::Bytes()> checkpoint_source,
         std::function<std::vector<orc8r::MetricSample>()> metric_source,
         MagmadConfig config = {}, obs::EventBuffer* events = nullptr,
         std::function<std::vector<orc8r::HistogramSnapshot>()>
             histogram_source = {},
         std::function<std::vector<obs::ServiceStatus>()> status_source = {});

  // magmad's own Service303 handle (phase tracks orchestrator reachability;
  // requests/errors/deadlines count its southbound RPC outcomes).
  void set_status(obs::Service303* status);

  // Tail-sampled trace summaries (optional): drained and shipped to
  // metricsd on each metrics tick. The source hands over whatever windows
  // have closed since the last tick (typically the gateway TailSampler's
  // drain_ready()).
  void set_trace_source(std::function<std::vector<obs::TraceSummary>()> src) {
    trace_source_ = std::move(src);
  }

  // Per-subscriber sketches (optional): the source returns the gateway's
  // cumulative SketchReport (typically SubscriberSketches::snapshot),
  // shipped to metricsd on each metrics tick.
  void set_sketch_source(std::function<obs::sketch::SketchReport()> src) {
    sketch_source_ = std::move(src);
  }

  // Fleet-wide tail-sampling budget: the checkin response carries the
  // keep-per-op K the orchestrator assigned this gateway (0: unmanaged).
  // The sink is invoked whenever the assignment changes (typically wired to
  // TailSampler::set_keep_per_op).
  void set_tail_budget_sink(std::function<void(std::size_t)> sink) {
    tail_budget_sink_ = std::move(sink);
  }
  std::uint64_t assigned_tail_keep() const { return assigned_tail_keep_; }

  // Begin the periodic loops (idempotent).
  void start();
  // One immediate config sync (used at boot and by tests).
  void sync_config_now(std::function<void(bool applied)> done = nullptr);

  // Fault injection: a wedged magmad stops doing work on every periodic
  // tick (no checkins, no config polls, no telemetry) while the ticks keep
  // rescheduling — the supervisor process is alive but its loops are stuck,
  // the classic crashed-service shape statusd's missed-checkin FSM detects.
  // Unwedging resumes on the next tick boundary.
  void simulate_wedge(bool wedged) { wedged_ = wedged; }
  bool wedged() const { return wedged_; }

  std::uint64_t synced_version() const { return synced_version_; }
  std::uint64_t synced_epoch() const { return synced_epoch_; }
  bool orchestrator_reachable() const { return reachable_; }
  const MagmadStats& stats() const { return stats_; }

 private:
  // Run `tick` now and every `interval` after, skipping the body (but not
  // the reschedule) while wedged.
  template <typename Tick>
  void every(sim::Duration interval, Tick tick);
  void checkin();
  void ship_metrics();
  void ship_checkpoint();
  void event_tick();
  // One best-effort report RPC: counts a Service303 request, then
  // `done(ok)`. A template, not std::function, so each completion still
  // fits the RPC callback's inline storage (no allocation per report).
  template <typename Done>
  void report(const char* service, const char* method, common::Bytes payload,
              Done done);
  void handle_update(const orc8r::DesiredUpdate& update,
                     const std::function<void(bool)>& done);
  void apply(const orc8r::DesiredState& state);
  // Per-entry upsert/remove. False: an entry blob failed to decode — the
  // sync is counted failed and synced state reset, forcing the next poll
  // onto the self-healing full path.
  bool apply_delta(const orc8r::DesiredUpdate& update);
  // True when the control channel backlog says best-effort traffic should
  // be shed this tick (also bumps telemetry_sheds).
  bool shed_telemetry();
  // Track orchestrator reachability (and mirror it into the Service303
  // phase: "connected" / "headless").
  void set_reachable(bool up);
  // Full/delta/skip decision per histogram vs last_shipped_counts_; bumps
  // the shipping stats.
  std::vector<orc8r::HistogramSnapshot> prepare_histogram_report(
      std::vector<orc8r::HistogramSnapshot> full);

  sim::Kernel& kernel_;
  std::string gateway_id_;
  rpc::RpcNode* orc8r_;
  SubscriberDb& subscribers_;
  PolicyDb& policies_;
  std::function<common::Bytes()> checkpoint_source_;
  std::function<std::vector<orc8r::MetricSample>()> metric_source_;
  MagmadConfig config_;
  obs::EventBuffer* events_;
  std::function<std::vector<orc8r::HistogramSnapshot>()> histogram_source_;
  std::function<std::vector<obs::ServiceStatus>()> status_source_;
  std::function<std::vector<obs::TraceSummary>()> trace_source_;
  std::function<obs::sketch::SketchReport()> sketch_source_;
  std::function<void(std::size_t)> tail_budget_sink_;
  obs::Service303* status_ = nullptr;

  // Delta shipping: counts as of the last report put on the wire, per
  // histogram name. Cleared on a lost report so the next tick re-ships full
  // (metricsd may have missed the base the deltas build on).
  std::map<std::string, std::vector<std::uint64_t>> last_shipped_counts_;

  bool started_ = false;
  bool wedged_ = false;
  bool reachable_ = false;
  std::uint64_t synced_version_ = 0;
  std::uint64_t synced_epoch_ = 0;  // 0: never synced
  std::uint64_t assigned_tail_keep_ = 0;
  MagmadStats stats_;
};

}  // namespace magma::agw
