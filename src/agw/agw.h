// AccessGateway — one Magma AGW: the paper's unit of deployment, scaling,
// and failure (§3).
//
// Composes the generic services (subscriberdb, policydb, mobilityd,
// sessiond, pipelined, accessd, magmad) with the three radio-specific
// front-ends and a modeled CPU, on top of the simulation kernel. Provides:
//
//   * the user-plane entry points (ingress from RAN / from Internet) that
//     charge CPU and run the datapath pipeline — Figures 5/7;
//   * hardware profiles matching the paper's two test AGWs (bare-metal
//     Intel J3160 and the Xeon 6126 VM with a configurable vCPU count and
//     optional static user-plane core pinning) — Figures 6/7/8;
//   * whole-gateway checkpoint/restore, the small-fault-domain story of
//     §3.3 (a backup instance resumes from the shipped image);
//   * telemetry for magmad to report.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agw/accessd.h"
#include "agw/lte_frontend.h"
#include "agw/magmad.h"
#include "agw/mobilityd.h"
#include "agw/nr_frontend.h"
#include "agw/pipelined.h"
#include "agw/policydb.h"
#include "agw/sessiond.h"
#include "agw/subscriberdb.h"
#include "agw/wifi_frontend.h"
#include "obs/events.h"
#include "obs/histogram.h"
#include "obs/sketch/subscriber_sketches.h"
#include "obs/status.h"
#include "obs/tail_sampler.h"
#include "obs/trace.h"
#include "rpc/rpc.h"
#include "sim/cpu.h"
#include "sim/kernel.h"
#include "sim/random.h"

namespace magma::agw {

struct AgwProfile {
  std::string name = "agw";
  sim::CpuConfig cpu;
  AccessdConfig accessd;
  IpBlock ip_block;
  common::Ipv4 address = common::Ipv4::from_octets(10, 0, 0, 1);
  // Pending user-plane batches beyond this are dropped (overload).
  std::size_t user_queue_max = 65536;
};

// The two AGWs of §4.1: a bare-metal Intel J3160 (4 cores, 1.6 GHz, single
// MME worker) ...
AgwProfile bare_metal_j3160();
// ... and a virtual AGW on a Xeon 6126 (2.6 GHz). `user_plane_cores` pins
// that many vCPUs to the user plane (-1 = flexible kernel scheduling, the
// paper's recommended configuration).
AgwProfile virtual_xeon(int vcpus, int user_plane_cores = -1);

struct UserPlaneStats {
  std::uint64_t offered_batches = 0;
  std::uint64_t offered_bytes = 0;
  std::uint64_t forwarded_bytes = 0;
  std::uint64_t forwarded_packets = 0;
  std::uint64_t dropped_overload_bytes = 0;  // CPU queue full
};

class AccessGateway {
 public:
  // `tracer` (optional, the network-wide tracer) instruments every service
  // on this gateway and aggregates per-stage attach latency histograms. It
  // also starts the gateway's TailSampler (keep-K-slowest traces per root
  // op per window; see obs/tail_sampler.h), whose closed-window summaries
  // magmad ships to metricsd.
  AccessGateway(sim::Kernel& kernel, common::GatewayId id, AgwProfile profile,
                sim::Rng rng, obs::Tracer* tracer = nullptr);
  ~AccessGateway();
  AccessGateway(const AccessGateway&) = delete;
  AccessGateway& operator=(const AccessGateway&) = delete;

  // --- wiring -------------------------------------------------------------
  // Give the AGW its orchestrator connection (non-owning): magmad calls
  // through its `client` node, and telemetry reads its transport stats and
  // backhaul gauges (uplink = the reverse path the client sends on). Call
  // magmad().start() to begin the periodic loops; `magmad_config`'s checkin
  // interval must match what the orchestrator's statusd expects.
  void connect_orchestrator(rpc::RpcLink& link,
                            MagmadConfig magmad_config = {});
  // Give sessiond its OCS client node (volume billing only; non-owning).
  void connect_ocs(rpc::RpcNode& client);

  // --- user plane ----------------------------------------------------------
  // Uplink traffic arriving from the RAN side (GTP-encapsulated for LTE/5G,
  // plain for WiFi) and downlink traffic arriving from the Internet (SGi).
  void ingress_from_ran(datapath::PacketBatch batch);
  void ingress_from_internet(datapath::PacketBatch batch);
  // Egress delivery: out_port is datapath::kPortRan / kPortSgi / kPortLocal.
  using EgressHandler =
      std::function<void(std::uint32_t out_port, datapath::PacketBatch)>;
  void set_egress(EgressHandler handler) { egress_ = std::move(handler); }

  // --- fault tolerance ------------------------------------------------------
  // Serialized runtime state (§3.3, §3.4): the UE address block, the SQN
  // table and the sessions; config comes back by sync. restore() brings
  // this instance up from another's checkpoint, or changes nothing when the
  // image is corrupt.
  common::Bytes checkpoint() const;
  common::Status restore(common::BytesView image);

  // --- telemetry -------------------------------------------------------------
  std::vector<orc8r::MetricSample> telemetry_snapshot();
  // Cumulative per-stage latency histograms ("span_<service>_<name>_s"),
  // ready for magmad to ship to metricsd.
  std::vector<orc8r::HistogramSnapshot> histogram_snapshot() const;
  // Structured events awaiting shipment (attach outcomes, WARN/ERROR logs).
  obs::EventBuffer& events() { return events_; }
  obs::Tracer* tracer() { return tracer_; }
  // Null when the gateway has no tracer.
  obs::TailSampler* tail_sampler() { return tail_sampler_.get(); }

  // Service303 registry: every service on this gateway registers at
  // construction; magmad ships snapshot() inside each checkin.
  obs::StatusRegistry& status() { return status_; }
  const obs::StatusRegistry& status() const { return status_; }

  // Per-subscriber heavy-hitter sketches (attach failures, bearer drops,
  // quota rejections, bytes) + distinct-active HLL. Fed by
  // accessd/sessiond/pipelined; magmad ships a cumulative snapshot with
  // each metrics tick. O(K + 2^p) however many subscribers attach.
  obs::sketch::SubscriberSketches& subscriber_sketches() {
    return subscriber_sketches_;
  }
  const obs::sketch::SubscriberSketches& subscriber_sketches() const {
    return subscriber_sketches_;
  }

  // --- component access -------------------------------------------------------
  const common::GatewayId& id() const { return id_; }
  const AgwProfile& profile() const { return profile_; }
  sim::Kernel& kernel() { return kernel_; }
  sim::CpuModel& cpu() { return cpu_; }
  SubscriberDb& subscriberdb() { return subscriberdb_; }
  PolicyDb& policydb() { return policydb_; }
  Mobilityd& mobilityd() { return mobilityd_; }
  Pipelined& pipelined() { return pipelined_; }
  Sessiond& sessiond() { return *sessiond_; }
  Accessd& accessd() { return *accessd_; }
  Magmad& magmad() { return *magmad_; }
  LteFrontend& lte() { return *lte_frontend_; }
  NrFrontend& nr() { return *nr_frontend_; }
  WifiFrontend& wifi() { return *wifi_frontend_; }
  const UserPlaneStats& user_plane_stats() const { return up_stats_; }

 private:
  void ingress(datapath::PacketBatch batch, datapath::Direction dir);
  void start_service_loops();

  sim::Kernel& kernel_;
  common::GatewayId id_;
  AgwProfile profile_;
  sim::Rng rng_;
  sim::CpuModel cpu_;

  obs::StatusRegistry status_{kernel_};
  // Per-service Service303 handles (owned by status_; stable addresses).
  obs::Service303* svc_subscriberdb_ = nullptr;
  obs::Service303* svc_mobilityd_ = nullptr;
  obs::Service303* svc_pipelined_ = nullptr;
  obs::Service303* svc_sessiond_ = nullptr;
  obs::Service303* svc_accessd_ = nullptr;
  obs::Service303* svc_magmad_ = nullptr;
  // User-plane profiler labels (pipelined/forward_ul, pipelined/forward_dl).
  sim::LabelId label_forward_[2] = {sim::kUnattributed, sim::kUnattributed};

  SubscriberDb subscriberdb_;
  PolicyDb policydb_;
  Mobilityd mobilityd_;
  Pipelined pipelined_;
  std::unique_ptr<Sessiond> sessiond_;
  std::unique_ptr<Accessd> accessd_;
  rpc::RpcLink* orc8r_link_ = nullptr;
  std::unique_ptr<Magmad> magmad_;
  std::unique_ptr<LteFrontend> lte_frontend_;
  std::unique_ptr<NrFrontend> nr_frontend_;
  std::unique_ptr<WifiFrontend> wifi_frontend_;

  EgressHandler egress_;
  std::size_t user_queue_depth_ = 0;
  UserPlaneStats up_stats_;
  std::uint64_t last_reported_forwarded_bytes_ = 0;

  obs::Tracer* tracer_ = nullptr;
  std::unique_ptr<obs::TailSampler> tail_sampler_;
  obs::EventBuffer events_{1024};
  obs::sketch::SubscriberSketches subscriber_sketches_;
  // Per-stage attach latency, keyed "span_<service>_<name>_s". std::map:
  // snapshots ship in deterministic order.
  std::map<std::string, obs::Histogram> latency_hist_;
  std::uint64_t finish_hook_id_ = 0;
  std::uint64_t log_hook_id_ = 0;
};

}  // namespace magma::agw
