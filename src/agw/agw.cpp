#include "agw/agw.h"

#include "common/log.h"
#include "common/pool.h"
#include "obs/host_profiler.h"
#include "rpc/wire.h"

namespace magma::agw {

namespace {
// User-plane CPU cost per forwarded packet, in reference-GHz-seconds.
// Calibrated in DESIGN.md so the Xeon VM forwards ~600 Mbps/core.
constexpr double kUserCostPerPacket = 4.85e-5;
}  // namespace

AgwProfile bare_metal_j3160() {
  AgwProfile profile;
  profile.name = "bare-metal-j3160";
  profile.cpu.cores = 4;
  profile.cpu.speed_ghz = 1.6;
  profile.cpu.user_plane_cores = -1;  // flexible
  profile.accessd.workers = 1;        // the single-threaded MME of Figure 6
  return profile;
}

AgwProfile virtual_xeon(int vcpus, int user_plane_cores) {
  AgwProfile profile;
  profile.name = "virtual-xeon-" + std::to_string(vcpus) + "c";
  profile.cpu.cores = vcpus;
  profile.cpu.speed_ghz = 2.6;
  profile.cpu.user_plane_cores = user_plane_cores;
  // The VM build parallelizes attach processing across vCPUs, keeping one
  // vCPU's worth for the other services (§4.2: a 4 vCPU virtual AGW
  // supports 16 attaches/second — 3 workers x 2.6 GHz / 0.5 = 15.6/s).
  profile.accessd.workers = user_plane_cores < 0
                                ? std::max(1, vcpus - 1)
                                : std::max(1, vcpus - user_plane_cores);
  return profile;
}

AccessGateway::AccessGateway(sim::Kernel& kernel, common::GatewayId id,
                             AgwProfile profile, sim::Rng rng,
                             obs::Tracer* tracer)
    : kernel_(kernel),
      id_(std::move(id)),
      profile_(profile),
      rng_(rng),
      cpu_(kernel, profile.cpu),
      subscriberdb_([this]() { return rng_.next_u64(); }),
      mobilityd_(profile.ip_block),
      tracer_(tracer) {
  pipelined_.pipeline().set_local_address(profile_.address);
  sessiond_ = std::make_unique<Sessiond>(kernel_, pipelined_, nullptr);
  accessd_ = std::make_unique<Accessd>(kernel_, &cpu_, subscriberdb_,
                                       policydb_, mobilityd_, *sessiond_,
                                       profile_.accessd);
  // Health plane: every service registers with the gateway's Service303
  // registry; magmad ships the snapshot inside each checkin.
  svc_subscriberdb_ = &status_.register_service("subscriberdb");
  svc_mobilityd_ = &status_.register_service("mobilityd");
  svc_pipelined_ = &status_.register_service("pipelined");
  svc_sessiond_ = &status_.register_service("sessiond");
  svc_accessd_ = &status_.register_service("accessd");
  svc_magmad_ = &status_.register_service("magmad");
  obs::svc_phase(svc_magmad_, "headless");  // until connect_orchestrator
  subscriberdb_.set_status(svc_subscriberdb_);
  mobilityd_.set_status(svc_mobilityd_);
  pipelined_.set_status(svc_pipelined_);
  sessiond_->set_status(svc_sessiond_);
  accessd_->set_status(svc_accessd_);
  // Per-subscriber heavy hitters: attach failures and bearer drops from
  // accessd, bytes/quota rejections and session liveness from sessiond.
  accessd_->set_subscriber_sketches(&subscriber_sketches_);
  sessiond_->set_subscriber_sketches(&subscriber_sketches_);
  // Continuous profiler: attribute user-plane forwarding per direction.
  label_forward_[static_cast<int>(datapath::Direction::kUplink)] =
      cpu_.intern_label("pipelined", "forward_ul");
  label_forward_[static_cast<int>(datapath::Direction::kDownlink)] =
      cpu_.intern_label("pipelined", "forward_dl");
  lte_frontend_ = std::make_unique<LteFrontend>(kernel_, *accessd_,
                                                *sessiond_, profile_.address);
  nr_frontend_ =
      std::make_unique<NrFrontend>(*accessd_, *sessiond_, profile_.address);
  wifi_frontend_ = std::make_unique<WifiFrontend>(*accessd_);
  if (tracer_ != nullptr) {
    // Spans are opt-in per task, but wait attribution (runq/cpu charges
    // onto whatever span submitted the work) should follow every charge.
    cpu_.set_wait_tracer(tracer_);
    accessd_->set_observability(tracer_, id_.value);
    sessiond_->set_observability(tracer_, id_.value);
    lte_frontend_->set_observability(tracer_, id_.value, &events_);
    tail_sampler_ = std::make_unique<obs::TailSampler>(kernel_, *tracer_);
    tail_sampler_->set_node_filter(id_.value);
    // Aggregate every finished stage span of this gateway into a latency
    // histogram; magmad ships the buckets with each metrics tick.
    finish_hook_id_ = tracer_->add_finish_hook(
        [this](const obs::SpanRecord& span) {
          if (span.node != id_.value ||
              span.kind != obs::SpanKind::kInternal) {
            return;
          }
          latency_hist_["span_" + span.service + "_" + span.name + "_s"]
              .observe(sim::to_seconds(span.duration()));
        });
  }
  // Ship WARN/ERROR log lines as structured events. The logger is global,
  // so every gateway of a multi-AGW simulation records process-wide
  // warnings under its own id — the orchestrator dedups by message if it
  // cares; losing attribution beats losing the warning.
  log_hook_id_ = common::Logger::instance().add_event_hook(
      [this](common::LogLevel level, std::string_view component,
             std::string_view message) {
        obs::Event event;
        event.time = kernel_.now();
        event.gateway_id = id_.value;
        event.type = "log";
        event.source = std::string(component);
        event.message = std::string(message);
        event.severity = level >= common::LogLevel::kError
                             ? obs::EventSeverity::kError
                             : obs::EventSeverity::kWarn;
        event.trace = obs::current_context(tracer_);
        events_.push(std::move(event));
      });
  start_service_loops();
}

AccessGateway::~AccessGateway() {
  common::Logger::instance().remove_event_hook(log_hook_id_);
  if (tracer_ != nullptr) tracer_->remove_finish_hook(finish_hook_id_);
}

void AccessGateway::start_service_loops() {
  kernel_.schedule(Sessiond::kPollInterval, [this]() {
    sessiond_->poll_usage();
    start_service_loops();
  });
}

void AccessGateway::connect_orchestrator(rpc::RpcLink& link,
                                         MagmadConfig magmad_config) {
  orc8r_link_ = &link;
  if (tracer_ != nullptr) link.client.set_tracer(tracer_, id_.value);
  link.client.set_wait_attribution(&cpu_);
  magmad_ = std::make_unique<Magmad>(
      kernel_, id_.value, &link.client, subscriberdb_, policydb_,
      [this]() { return checkpoint(); },
      [this]() { return telemetry_snapshot(); }, magmad_config, &events_,
      [this]() { return histogram_snapshot(); },
      [this]() { return status_.snapshot(); });
  magmad_->set_trace_source([this]() {
    return tail_sampler_ != nullptr ? tail_sampler_->drain_ready()
                                    : std::vector<obs::TraceSummary>{};
  });
  magmad_->set_sketch_source([this]() {
    return subscriber_sketches_.snapshot(id_.value, kernel_.now());
  });
  // Fleet tail budget: checkin responses can reassign the sampler's
  // keep-per-op K.
  magmad_->set_tail_budget_sink([this](std::size_t keep) {
    if (tail_sampler_ != nullptr) tail_sampler_->set_keep_per_op(keep);
  });
  magmad_->set_status(svc_magmad_);
}

void AccessGateway::connect_ocs(rpc::RpcNode& client) {
  if (tracer_ != nullptr) client.set_tracer(tracer_, id_.value);
  client.set_wait_attribution(&cpu_);
  sessiond_->set_ocs(&client);
}

// ---------------------------------------------------------------------------
// User plane
// ---------------------------------------------------------------------------

void AccessGateway::ingress_from_ran(datapath::PacketBatch batch) {
  ingress(std::move(batch), datapath::Direction::kUplink);
}

void AccessGateway::ingress_from_internet(datapath::PacketBatch batch) {
  ingress(std::move(batch), datapath::Direction::kDownlink);
}

void AccessGateway::ingress(datapath::PacketBatch batch,
                            datapath::Direction dir) {
  ++up_stats_.offered_batches;
  const std::uint64_t bytes = batch.bytes();
  const std::uint64_t count = batch.count;
  up_stats_.offered_bytes += bytes;

  if (user_queue_depth_ >= profile_.user_queue_max) {
    up_stats_.dropped_overload_bytes += bytes;
    return;
  }

  const double cost = static_cast<double>(count) * kUserCostPerPacket;
  ++user_queue_depth_;
  const bool accepted = cpu_.submit(
      sim::WorkClass::kUser, label_forward_[static_cast<int>(dir)], cost,
      [this, batch = std::move(batch), dir, count]() mutable {
        --user_queue_depth_;
        datapath::PipelineResult result = pipelined_.pipeline().process_batch(
            std::move(batch), dir, kernel_.now());
        if (result.verdict == datapath::Verdict::kForwarded &&
            result.out_port == datapath::kPortLocal) {
          // Downlink for an ECM-IDLE UE: trigger paging (§3.1 — the AGW is
          // the mobility anchor; this never leaves the gateway).
          const auto imsi = mobilityd_.reverse_lookup(result.packet.ip.dst);
          if (imsi.has_value()) lte_frontend_->page(*imsi);
          return;
        }
        if (result.verdict == datapath::Verdict::kForwarded) {
          // out_count can be below the ingress count: meters drop the
          // non-conforming tail of a batch inside the pipeline.
          const std::uint64_t out_bytes =
              result.out_count *
              static_cast<std::uint64_t>(result.packet.wire_size());
          up_stats_.forwarded_bytes += out_bytes;
          up_stats_.forwarded_packets += result.out_count;
          if (egress_) {
            egress_(result.out_port, datapath::PacketBatch{
                                         std::move(result.packet),
                                         result.out_count});
          }
        }
      });
  if (!accepted) {
    --user_queue_depth_;
    up_stats_.dropped_overload_bytes += bytes;
  }
}

// ---------------------------------------------------------------------------
// Fault tolerance
// ---------------------------------------------------------------------------

common::Bytes AccessGateway::checkpoint() const {
  MAGMA_HOST_SCOPE("agw", "checkpoint");
  // Sized up front: an SQN entry is 31 bytes with a 15-digit IMSI and a
  // session record about 210 (more with a multi-tier policy).
  rpc::Writer w;
  w.reserve(32 + 32 * subscriberdb_.sqn_count() +
            256 * sessiond_->active_sessions());
  // The UE address block is part of the gateway's identity: a backup
  // instance must keep handing out (and honouring) the same addresses.
  w.u32(profile_.ip_block.base.addr);
  w.u8(profile_.ip_block.prefix_len);
  subscriberdb_.write_sqn_table(w);
  sessiond_->checkpoint(w);
  return std::move(w).take();
}

common::Status AccessGateway::restore(common::BytesView image) {
  // Decode every section before committing any, so a corrupt image leaves
  // this instance as it was. The sessions are the image's tail, and
  // Sessiond::restore decodes all of them before it replaces any.
  rpc::Reader r(image);
  IpBlock block;
  block.base.addr = r.u32();
  block.prefix_len = r.u8();
  auto sqns = SubscriberDb::read_sqn_table(r);
  if (!sqns.ok()) return sqns.error();
  if (block.prefix_len == 0 || block.prefix_len > 32) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt AGW checkpoint"};
  }
  const common::Status sessions =
      sessiond_->restore(image.subspan(image.size() - r.remaining()));
  if (!sessions.ok()) return sessions;
  subscriberdb_.merge_sqn_table(sqns.value());
  // Take over the failed instance's address space and its assignments.
  profile_.ip_block = block;
  mobilityd_ = Mobilityd(block);
  mobilityd_.set_status(svc_mobilityd_);
  for (const common::Imsi& imsi : sessiond_->active_imsis()) {
    const SessionRecord* session = sessiond_->find(imsi);
    if (session != nullptr) {
      mobilityd_.adopt(imsi, session->flows.ue_ip).ok();
    }
  }
  return common::Status::Ok();
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

std::vector<orc8r::MetricSample> AccessGateway::telemetry_snapshot() {
  const sim::TimePoint now = kernel_.now();
  std::vector<orc8r::MetricSample> samples;
  auto gauge = [&](const std::string& name, double value) {
    samples.push_back(orc8r::MetricSample{id_.value, name, value, now});
  };
  gauge("active_sessions", static_cast<double>(sessiond_->active_sessions()));
  const std::uint64_t forwarded = up_stats_.forwarded_bytes;
  gauge("forwarded_bytes_delta",
        static_cast<double>(forwarded - last_reported_forwarded_bytes_));
  last_reported_forwarded_bytes_ = forwarded;
  gauge("cpu_control_busy_s",
        sim::to_seconds(
            cpu_.stats().busy_ns[static_cast<int>(sim::WorkClass::kControl)]));
  gauge("cpu_user_busy_s",
        sim::to_seconds(
            cpu_.stats().busy_ns[static_cast<int>(sim::WorkClass::kUser)]));
  // Continuous profiler: cumulative on-CPU seconds per service and per
  // core (the fig6/fig7 per-service breakdown, shipped continuously).
  for (const auto& [service, seconds] : cpu_.service_busy_seconds()) {
    gauge("cpu_service_busy_s_" + service, seconds);
  }
  // Off-CPU counterpart: cumulative wait (run-queue + blocked-on-RPC) per
  // service, so fleet dashboards can plot on-CPU vs off-CPU per service
  // without shipping every label.
  {
    std::map<std::string, double> wait_s;
    for (const sim::TaskLabelStats& label : cpu_.labels()) {
      wait_s[label.service] +=
          sim::to_seconds(label.queue_wait_ns + label.rpc_wait_ns);
    }
    for (const auto& [service, seconds] : wait_s) {
      if (seconds > 0) gauge("cpu_service_wait_s_" + service, seconds);
    }
  }
  // Backhaul health as seen from this gateway: transmit-queue depth and
  // cumulative drops per direction. The client end sends on the reverse
  // path, so that is the uplink toward the orchestrator.
  if (orc8r_link_ != nullptr) {
    const sim::Link& ul = orc8r_link_->path.reverse;
    const sim::Link& dl = orc8r_link_->path.forward;
    gauge("link_queue_depth_ul", static_cast<double>(ul.queue_depth()));
    gauge("link_dropped_packets_ul",
          static_cast<double>(ul.stats().packets_dropped));
    gauge("link_queue_depth_dl", static_cast<double>(dl.queue_depth()));
    gauge("link_dropped_packets_dl",
          static_cast<double>(dl.stats().packets_dropped));
  }
  {
    const std::vector<sim::Duration> per_core = cpu_.core_busy_ns();
    for (std::size_t core = 0; core < per_core.size(); ++core) {
      gauge("cpu_core" + std::to_string(core) + "_busy_s",
            sim::to_seconds(per_core[core]));
    }
  }
  // Host observability: how hard the simulator itself is working on behalf
  // of this run. Events/queue depth come from the shared kernel; the alloc
  // counter is process-wide (global operator-new hook) — both are real-host
  // facts that never feed back into sim behavior.
  gauge("sim_events_dispatched", static_cast<double>(kernel_.executed_events()));
  gauge("sim_event_queue_hwm",
        static_cast<double>(kernel_.stats().queue_hwm));
  gauge("host_alloc_bytes",
        static_cast<double>(obs::HostProfiler::process_alloc_bytes()));
  // Freelist-discipline guards: a closure too fat for the kernel's inline
  // event storage, or a pool overflowing to the heap, is a host perf
  // regression — both ship as cumulative gauges with default growth alerts.
  gauge("sim_closure_heap_fallbacks",
        static_cast<double>(kernel_.stats().closure_heap_fallbacks));
  gauge("pool_heap_fallbacks",
        static_cast<double>(common::total_pool_heap_fallbacks()));
  const AccessdStats& acc = accessd_->stats();
  gauge("attaches_completed",
        static_cast<double>(acc.attach_completed[0] + acc.attach_completed[1] +
                            acc.attach_completed[2]));
  gauge("accessd_overload_rejections",
        static_cast<double>(acc.overload_rejections));
  gauge("accessd_queued_work", static_cast<double>(accessd_->queued_work()));
  if (orc8r_link_ != nullptr) {
    // Transport health of the orchestrator control channel (§3.1: control
    // traffic must survive degraded backhaul; a too-short RTO shows up here
    // as spurious retransmissions at the far end and retransmissions at
    // ours).
    const net::ReliableChannel& control = *orc8r_link_->channels.b;
    const net::ReliableStats& t = control.stats();
    gauge("transport_srtt_s", sim::to_seconds(t.srtt));
    gauge("transport_rto_s", sim::to_seconds(t.rto));
    gauge("transport_retransmissions", static_cast<double>(t.retransmissions));
    gauge("transport_fast_retransmits",
          static_cast<double>(t.fast_retransmits));
    gauge("transport_spurious_retransmits",
          static_cast<double>(t.spurious_retransmits));
    gauge("transport_send_failures", static_cast<double>(t.failures));
    gauge("transport_resets", static_cast<double>(t.resets));
    // Congestion/SACK health: a satellite gateway pushing config shows a
    // cwnd-limited flight here; growth of rto_at_cap means the channel is
    // pinned at net::kMaxRto (the backhaul is effectively down — alertable).
    gauge("transport_cwnd", static_cast<double>(t.cwnd));
    gauge("transport_ssthresh", static_cast<double>(t.ssthresh));
    gauge("transport_flight_size", static_cast<double>(t.flight_size));
    gauge("transport_sack_retransmits",
          static_cast<double>(t.sack_retransmits));
    gauge("transport_rto_at_cap", static_cast<double>(t.rto_at_cap));
    gauge("transport_reorder_backlog",
          static_cast<double>(control.reorder_backlog()));
    gauge("transport_send_backlog",
          static_cast<double>(control.send_backlog()));
    gauge("magmad_telemetry_sheds",
          static_cast<double>(magmad_->stats().telemetry_sheds));
    gauge("magmad_histogram_buckets_shipped",
          static_cast<double>(magmad_->stats().histogram_buckets_shipped));
    gauge("magmad_trace_summaries_shipped",
          static_cast<double>(magmad_->stats().trace_summaries_shipped));
  }
  return samples;
}

std::vector<orc8r::HistogramSnapshot> AccessGateway::histogram_snapshot()
    const {
  std::vector<orc8r::HistogramSnapshot> snapshots;
  snapshots.reserve(latency_hist_.size() + 2);
  auto add = [&](const std::string& name, const obs::Histogram& hist) {
    orc8r::HistogramSnapshot snap;
    snap.gateway_id = id_.value;
    snap.name = name;
    snap.bounds = hist.bounds();
    snap.counts = hist.counts();
    snap.sum = hist.sum();
    snap.time = kernel_.now();
    snapshots.push_back(std::move(snap));
  };
  for (const auto& [name, hist] : latency_hist_) add(name, hist);
  // Profiler run-queue wait distributions (how long work sat runnable
  // before a core picked it up — the queueing half of Figure 6's latency).
  if (cpu_.queue_wait(sim::WorkClass::kControl).count() > 0) {
    add("cpu_runq_wait_control_s", cpu_.queue_wait(sim::WorkClass::kControl));
  }
  if (cpu_.queue_wait(sim::WorkClass::kUser).count() > 0) {
    add("cpu_runq_wait_user_s", cpu_.queue_wait(sim::WorkClass::kUser));
  }
  return snapshots;
}

}  // namespace magma::agw
