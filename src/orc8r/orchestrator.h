// Orchestrator — Magma's central point of control (§3.2).
//
// Holds the authoritative configuration state (the paper keeps it in
// Postgres): serialized subscriber and policy records in key order, and a
// version that every mutation bumps. Exposes a northbound API for operators
// (subscriber and policy management, gateway inventory, metrics queries),
// and serves the southbound RPC surface AGWs poll: desired-state config
// sync, device check-in (device management, §3.1), best-effort metrics
// ingestion, and checkpoint backup storage (§3.3: an AGW's runtime state
// "may be copied to a backup instance ... running as a cloud service").
//
// Runtime UE state never lives here — that is the hierarchical control
// plane split: the orchestrator scales with configuration churn and
// gateway count, not with subscriber activity (§3.2, §4.3.2).
//
// Fleet scale (§3.4 at deployment size): the streamer caches the serialized
// full-state blob per config version (N gateways polling the same version
// cost one serialization) and serves version-ranged deltas from a bounded
// log of recent mutations, falling back to the idempotent full sync for
// first contact, epoch changes, regressions, and log gaps. Southbound
// report applies run behind IngestShards' per-gateway bounded queues.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <deque>

#include "agw/subscriberdb.h"
#include "common/result.h"
#include "core/policy.h"
#include "obs/events.h"
#include "obs/slo/slo.h"
#include "obs/status.h"
#include "obs/trace.h"
#include "orc8r/ingest.h"
#include "orc8r/metricsd.h"
#include "orc8r/statusd.h"
#include "orc8r/streamer.h"
#include "rpc/rpc.h"
#include "sim/kernel.h"

namespace magma::orc8r {

// Checkin freshness and counts live in statusd (GatewayStatus).
struct GatewayRecord {
  std::string id;
  std::string description;
};

struct OrchestratorStats {
  std::uint64_t config_pushes = 0;      // GetUpdates answered with changes
  std::uint64_t noop_polls = 0;         // GetUpdates answered "current"
  std::uint64_t checkins = 0;
  std::uint64_t checkpoints_stored = 0;
  std::uint64_t metric_reports = 0;
  std::uint64_t histogram_reports = 0;
  std::uint64_t trace_summary_reports = 0;
  std::uint64_t sketch_reports = 0;
  std::uint64_t event_reports = 0;
  std::uint64_t events_ingested = 0;
  std::uint64_t events_dropped = 0;  // event store retention overflow
  // Streamer breakdown: config_pushes = full_pushes + delta_pushes.
  std::uint64_t full_pushes = 0;
  std::uint64_t delta_pushes = 0;
  // Full-state blob cache: serializations is the number of cache rebuilds
  // (at most one per config version *requested*), hits the pushes served
  // from it — the stat that proves one config change fans out to N
  // gateways without N serializations.
  std::uint64_t full_serializations = 0;
  std::uint64_t full_cache_hits = 0;
  std::uint64_t delta_entries_sent = 0;
  std::uint64_t deltas_coalesced = 0;  // log records folded away per push
  // Full-sync fallback causes (each also counts a full_push).
  std::uint64_t version_regressions = 0;  // gateway ahead of the config
  std::uint64_t epoch_resyncs = 0;        // gateway from another incarnation
  std::uint64_t delta_log_misses = 0;     // gap older than the delta log
  // Store blobs that failed to deserialize while building the full state
  // (also pushed as the orchestrator_store_decode_errors gauge).
  std::uint64_t store_decode_errors = 0;
  // Southbound report applies shed at a full per-gateway ingest queue
  // (also pushed as the orc8r_ingest_shed gauge; IngestShards has the
  // per-kind breakdown).
  std::uint64_t ingest_sheds = 0;
  // SLO layer: periodic derived-SLI evaluations, and the downtime
  // attribution join's outcomes (labeled = a non-unknown cause was found).
  std::uint64_t slo_ticks = 0;
  std::uint64_t downtime_intervals_labeled = 0;
  std::uint64_t downtime_unattributed = 0;
};

class Orchestrator {
 public:
  explicit Orchestrator(sim::Kernel& kernel);

  // --- Northbound API (operator-facing) ---------------------------------
  void add_subscriber(const agw::SubscriberData& subscriber);
  void remove_subscriber(const common::Imsi& imsi);
  std::optional<agw::SubscriberData> get_subscriber(
      const common::Imsi& imsi) const;
  std::size_t subscriber_count() const { return subscribers_.size(); }

  void add_policy(const core::Policy& policy);
  void remove_policy(const std::string& name);
  std::optional<core::Policy> get_policy(const std::string& name) const;

  void register_gateway(const std::string& gateway_id,
                        const std::string& description);
  std::optional<GatewayRecord> gateway(const std::string& gateway_id) const;
  std::vector<GatewayRecord> gateways() const;

  // Stored AGW checkpoint (for bringing up a backup instance).
  std::optional<common::Bytes> stored_checkpoint(
      const std::string& gateway_id) const;

  Metricsd& metrics() { return metricsd_; }
  const Metricsd& metrics() const { return metricsd_; }

  // Gateway health plane: per-gateway checkin freshness and the reported
  // Service303 snapshots (fed by the bootstrapper checkin handler).
  Statusd& statusd() { return statusd_; }
  const Statusd& statusd() const { return statusd_; }

  // Sharded southbound ingest: report applies (statusd/metricsd mutations)
  // run behind per-gateway bounded queues, not inline in the RPC handlers.
  IngestShards& ingest() { return ingest_; }
  const IngestShards& ingest() const { return ingest_; }

  // The orchestrator's own Service303 registry: every southbound service
  // (streamer, bootstrapper, state, metricsd, eventd, statusd) counts its
  // requests/errors here.
  obs::StatusRegistry& status() { return status_; }
  const obs::StatusRegistry& status() const { return status_; }

  // Structured events shipped by gateways (WARN/ERROR logs, attach
  // milestones), newest last; bounded retention, oldest dropped.
  const std::deque<obs::Event>& events() const { return events_; }
  std::vector<obs::Event> events_of_type(const std::string& type) const;

  // Tracing: when set, event ingestion anchors an "ingest_event" span into
  // each event's originating trace, and bind()-created handlers run traced.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  // Current config version (changes on every northbound mutation).
  std::uint64_t config_version() const { return version_; }
  // This incarnation's epoch (bumped every construction; a gateway seeing a
  // new epoch discards its version and full-syncs).
  std::uint64_t epoch() const { return epoch_; }

  // The streamer's answer for a poll: noop, a coalesced delta, or the
  // cached full state (see streamer.h for when each is chosen). Building the
  // full state counts (and alerts on) stored records that fail to
  // deserialize instead of silently shrinking the config.
  DesiredUpdate desired_update(const GetUpdatesRequest& request);

  // Fleet-wide tail-sampling budget: on checkin each gateway is assigned
  // keep-per-op K = clamp(budget / fleet size, 1, ...), so trace ingest
  // stays bounded as the fleet grows. 0 (default): unmanaged — gateways
  // keep their locally configured K.
  void set_fleet_trace_budget(std::uint64_t budget) {
    fleet_trace_budget_ = budget;
  }
  // K currently handed out at checkin (0 when unmanaged).
  std::uint64_t assigned_keep_per_op() const;

  // Mutations the delta log retains; older gaps fall back to full sync.
  void set_delta_log_cap(std::size_t cap);

  // --- Fleet SLO layer ---------------------------------------------------
  // The SLOs (installed at construction) cover the signals that already
  // flow southbound: gateway availability from statusd's health FSM, attach
  // success rate from structured events, attach p95 from the shipped
  // histograms, and config-sync freshness from streamer polls.
  //
  // Begin the periodic SLO evaluation (derived histogram SLIs), once a
  // minute. NOT started implicitly for the same reason as statusd's sweep —
  // the tick reschedules forever; core::Network starts it.
  void start_slo_tick();
  // One evaluation (what the periodic tick runs): push each derived
  // histogram SLI (quantile vs target, as a 0/1 good sample).
  void slo_tick_now();
  // Error-budget report over [from, to): per SLO, the mean SLI, burn rate,
  // budget consumed, and whether a burn-rate alert on it is firing now.
  std::vector<obs::slo::SloStatus> slo_report(sim::TimePoint from,
                                              sim::TimePoint to) const;
  // Fleet availability rollup from statusd's ledger (render with
  // format_availability).
  std::vector<AvailabilityRow> availability_rollup(sim::TimePoint from,
                                                   sim::TimePoint to) const {
    return orc8r::availability_rollup(statusd_.availability(), from, to);
  }

  // --- Southbound RPC surface -------------------------------------------
  // Bind streamer/bootstrapper/state/metricsd handlers onto a node (one per
  // connected AGW link; handlers share this orchestrator's state).
  void bind(rpc::RpcNode& node);

  const OrchestratorStats& stats() const { return stats_; }

 private:
  // Deserialize every stored record (the slow path the blob cache and
  // delta log exist to avoid); counts decode errors.
  DesiredState build_full_state();
  // Serialized full state at the current config version, built at most
  // once per version.
  const common::Bytes& full_state_blob();
  // Bump the config version and log the mutation for delta serving.
  void record_delta(DeltaEntry entry);
  void note_store_decode_error(const std::string& key,
                               const std::string& what);
  void note_ingest_shed(IngestKind kind);
  // Append to the event store, dropping the oldest past kEventRetention.
  void record_event(obs::Event event);
  // Register one metricsd report method: decode inline (an undecodable
  // report is a metricsd error and one kDrop drop), count it in kReports,
  // run `apply(metricsd, batch)` on the gateway's ingest shard (or count
  // the shed), and answer with an empty ack. The per-kind values are
  // template arguments so the handler captures only `this` and `apply` and
  // fits std::function's inline buffer (no allocation per bind).
  template <auto kDecode, IngestKind kKind, Metricsd::DropKind kDrop,
            std::uint64_t OrchestratorStats::*kReports, typename Apply>
  void bind_report(rpc::RpcNode& node, const char* method, Apply apply);
  void slo_tick();
  // Downtime attribution join (statusd ledger hooks): snapshot the
  // fleet critical-path profile when an interval opens, gather counter
  // growth / events / runq share after it closes (plus settle), label it.
  void on_downtime_open(const std::string& gateway_id, sim::TimePoint start);
  void on_downtime_close(const std::string& gateway_id,
                         const obs::slo::DowntimeInterval& interval);
  void attribute_interval(const std::string& gateway_id,
                          obs::slo::DowntimeInterval interval);

  sim::Kernel& kernel_;
  // Config: serialized records by IMSI and by policy name, the order the
  // full state lists them in.
  std::map<common::Imsi, common::Bytes> subscribers_;
  std::map<std::string, common::Bytes> policies_;
  // Starts at 1, so no version equals the 0 a gateway reports before its
  // first sync.
  std::uint64_t version_ = 1;
  std::uint64_t epoch_;
  std::map<std::string, GatewayRecord> gateways_;
  std::map<std::string, common::Bytes> checkpoints_;
  Metricsd metricsd_;
  Statusd statusd_{kernel_, &metricsd_};
  IngestShards ingest_{kernel_};
  obs::StatusRegistry status_{kernel_};
  // Per-service Service303 handles (owned by status_; stable addresses).
  obs::Service303* svc_streamer_ = nullptr;
  obs::Service303* svc_bootstrapper_ = nullptr;
  obs::Service303* svc_state_ = nullptr;
  obs::Service303* svc_metricsd_ = nullptr;
  obs::Service303* svc_eventd_ = nullptr;
  obs::Service303* svc_statusd_ = nullptr;
  std::deque<obs::Event> events_;
  static constexpr std::size_t kEventRetention = 65536;
  obs::Tracer* tracer_ = nullptr;

  // Recent mutations, version-tagged, for delta serving: one record per
  // version bump, the oldest dropped past delta_log_cap_. A poll reaching
  // past the oldest record is a coverage gap -> full sync.
  struct DeltaRecord {
    std::uint64_t version;  // config version after the mutation
    DeltaEntry entry;
  };
  std::deque<DeltaRecord> delta_log_;
  std::size_t delta_log_cap_ = 4096;

  // Full-state blob cache, valid for exactly one config version.
  std::uint64_t cached_full_version_ = 0;
  bool cached_full_valid_ = false;
  common::Bytes cached_full_;

  std::uint64_t fleet_trace_budget_ = 0;

  // SLO layer state.
  std::vector<obs::slo::SloSpec> slos_;
  bool slo_tick_started_ = false;
  // Delay between a downtime interval closing and the attribution join
  // reading the evidence — long enough for the recovered gateway's next
  // metrics tick (with the counters that grew mid-outage) to land.
  static constexpr sim::Duration kAttributionSettle = 90 * sim::kSecond;
  // Fleet critical-path (runq_s, total_s) snapshot taken when a gateway's
  // downtime interval opened, keyed by gateway — the overload lens.
  std::map<std::string, std::pair<double, double>> open_runq_snapshots_;

  OrchestratorStats stats_;
};

}  // namespace magma::orc8r
