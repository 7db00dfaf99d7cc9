// core::Network — the public API of the reproduction.
//
// Assembles a complete Magma deployment inside one simulation: an
// orchestrator (with optional OCS) in the "cloud", any number of AGWs
// behind configurable backhaul links, RAN nodes (eNodeB / gNB / WiFi AP)
// behind each AGW, and UE models. It owns the topology wiring the paper
// describes: S1/NG/RADIUS channels from RAN to AGW front-ends, gRPC-style
// control channels from AGWs to the orchestrator, user-plane egress
// routing, and the Internet at the SGi edge.
//
// A minimal deployment is "a single AGW and an orchestrator" (§3.2);
// scaling up is "essentially a matter of adding more AGWs" — both are one
// call here, which is exactly what bench/scaleout_agws measures.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agw/agw.h"
#include "core/policy.h"
#include "net/channel.h"
#include "obs/trace.h"
#include "ocs/ocs.h"
#include "orc8r/orchestrator.h"
#include "ran/enodeb.h"
#include "ran/gnb.h"
#include "ran/ue.h"
#include "ran/wifi_ap.h"
#include "sim/kernel.h"
#include "sim/link.h"
#include "sim/random.h"

namespace magma::core {

struct NetworkConfig {
  std::uint64_t seed = 42;
  // Default AGW↔orchestrator backhaul (per-AGW override available).
  sim::LinkConfig backhaul = sim::fiber_backhaul();
  // Reliable-transport tuning for the control channels riding the backhaul
  // (AGW↔orchestrator, AGW↔OCS). The default is the RFC 6298 adaptive-RTO
  // transport with NewReno congestion control, SACK, and TSopt timestamps
  // all on; benches flip adaptive_rto / congestion_control / sack off to
  // measure the fixed-RTO and cumulative-ACK baselines.
  net::ReliableConfig transport = {};
  bool with_ocs = false;
  // magmad periodic cadences, applied to every AGW added to this network.
  agw::MagmadConfig magmad = {};
  // Gateway health plane (orc8r statusd): missed-checkin thresholds. The
  // checkin_interval field is overridden with magmad.checkin_interval so
  // freshness is judged against the cadence gateways actually use.
  orc8r::StatusdConfig statusd = {};
};

class Network {
 public:
  explicit Network(NetworkConfig config = {});
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Kernel& kernel() { return kernel_; }
  sim::Rng& rng() { return rng_; }
  orc8r::Orchestrator& orchestrator() { return *orchestrator_; }
  ocs::Ocs* ocs() { return ocs_.get(); }
  // The network-wide tracer: one span tree per attach, spanning every node.
  obs::Tracer& tracer() { return tracer_; }

  // --- topology ------------------------------------------------------------
  agw::AccessGateway& add_agw(
      agw::AgwProfile profile,
      std::optional<sim::LinkConfig> backhaul = std::nullopt);
  // `s1_link` overrides the S1 transport's link (default: the site LAN —
  // Magma co-locates the AGW with the radio). Passing a backhaul profile
  // instead models a *traditional* core whose MME sits across the WAN,
  // the architecture §3.1 argues against; bench/baseline_traditional_core
  // measures the difference.
  ran::EnodeB& add_enodeb(agw::AccessGateway& agw,
                          ran::EnodebConfig config = {},
                          std::optional<sim::LinkConfig> s1_link = std::nullopt);
  ran::Gnb& add_gnb(agw::AccessGateway& agw, ran::GnbConfig config = {});
  ran::WifiAp& add_wifi_ap(agw::AccessGateway& agw,
                           ran::WifiApConfig config = {});

  // Orchestrator-side RPC node serving a given AGW's control link (for
  // binding additional services, e.g. a FederationGateway).
  rpc::RpcNode& orc8r_node_for(agw::AccessGateway& agw);

  // Failover (§3.3): point `failed`'s RAN nodes at `backup` — the backup
  // instance takes over the S1/GTP endpoints, so user traffic flows again
  // once it has restored the failed gateway's checkpoint.
  void adopt_ran(agw::AccessGateway& backup, agw::AccessGateway& failed);

  // Administrative backhaul control (headless-operation experiments).
  void set_backhaul_up(agw::AccessGateway& agw, bool up);
  void set_backhaul_loss(agw::AccessGateway& agw, double loss_probability);

  // Transport stats of an AGW's orchestrator control channel, per side
  // (retransmissions are counted at the sender, spurious retransmissions at
  // the receiver of the duplicated data).
  const net::ReliableStats& control_stats_orc8r(agw::AccessGateway& agw);
  const net::ReliableStats& control_stats_agw(agw::AccessGateway& agw);

  // --- provisioning ----------------------------------------------------------
  // Creates a subscriber with fresh USIM credentials, registers it at the
  // orchestrator, and returns the full record (the UE side needs the keys).
  agw::SubscriberData provision_subscriber(
      const std::string& policy_name = "unlimited",
      const std::string& wifi_password = "");
  void add_policy(const Policy& policy);
  // Trigger an immediate config sync on every AGW (then run the kernel to
  // let the RPCs complete).
  void sync_all_config();

  // --- UE creation -------------------------------------------------------------
  ran::UeLte& add_ue_lte(const agw::SubscriberData& subscriber);
  ran::UeNr& add_ue_nr(const agw::SubscriberData& subscriber);
  ran::WifiClient& add_wifi_client(const agw::SubscriberData& subscriber,
                                   const std::string& password);

  // --- traffic -----------------------------------------------------------------
  // Inject downlink traffic arriving from the Internet at an AGW's SGi.
  void inject_downlink(agw::AccessGateway& agw, common::Ipv4 ue_ip,
                       std::uint32_t packet_bytes, std::uint64_t packet_count);
  // Bytes that reached the Internet (uplink through all SGi ports).
  std::uint64_t internet_rx_bytes() const { return internet_rx_bytes_; }
  // Home-routed uplink leaving SGi GTP-encapsulated goes here instead.
  void set_sgi_gtp_sink(std::function<void(datapath::PacketBatch)> sink) {
    sgi_gtp_sink_ = std::move(sink);
  }

  // --- run helpers -----------------------------------------------------------------
  void run_for(sim::Duration duration);
  void run_until(sim::TimePoint deadline);

  std::size_t agw_count() const { return agws_.size(); }
  agw::AccessGateway& agw(std::size_t index) { return *agws_[index]->agw; }

 private:
  struct AgwNode {
    // The gateway's orchestrator and OCS connections (server = the cloud
    // side, client = the AGW side). Declared before `agw` so the gateway,
    // whose services hold the client nodes, is destroyed first.
    std::unique_ptr<rpc::RpcLink> control;
    std::unique_ptr<rpc::RpcLink> ocs;
    std::unique_ptr<agw::AccessGateway> agw;
    // RAN registry for egress routing: eNodeBs and gNBs by tunnel address.
    std::map<common::Ipv4, ran::Cell*> cells_by_address;
    std::vector<ran::WifiAp*> aps;
    // Owned channels RAN nodes ride on.
    std::vector<std::unique_ptr<net::DuplexLink>> ran_links;
    // RAN links that traverse the WAN (traditional-core modeling): a
    // backhaul outage takes these down too.
    std::vector<net::DuplexLink*> wan_ran_links;
    std::vector<net::ReliablePair> ran_channels;
    std::vector<net::ChannelPair> ran_datagram_channels;
  };

  AgwNode* node_for(agw::AccessGateway& agw);
  void wire_egress(AgwNode& node);
  // Numbers an eNodeB or gNB, gives it 10.<subnet>.x.y unless configured
  // with an address, and returns the reliable pair its S1/NG rides on.
  template <class Config>
  net::ReliablePair& add_cell_link(AgwNode& node, Config& config,
                                   std::uint8_t subnet,
                                   std::optional<sim::LinkConfig> link);
  void add_cell(AgwNode& node, ran::Cell& cell, common::Ipv4 address);

  NetworkConfig config_;
  sim::Kernel kernel_;
  sim::Rng rng_;
  // Declared before agws_: AGW destructors deregister their tracer hooks.
  obs::Tracer tracer_{kernel_};
  std::unique_ptr<orc8r::Orchestrator> orchestrator_;
  std::unique_ptr<ocs::Ocs> ocs_;

  std::vector<std::unique_ptr<AgwNode>> agws_;
  std::vector<std::unique_ptr<ran::EnodeB>> enbs_;
  std::vector<std::unique_ptr<ran::Gnb>> gnbs_;
  std::vector<std::unique_ptr<ran::WifiAp>> aps_;
  std::vector<std::unique_ptr<ran::UeLte>> lte_ues_;
  std::vector<std::unique_ptr<ran::UeNr>> nr_ues_;
  std::vector<std::unique_ptr<ran::WifiClient>> wifi_clients_;

  std::uint64_t next_imsi_ = 1;
  std::uint32_t next_ran_id_ = 1;
  std::uint64_t internet_rx_bytes_ = 0;
  std::function<void(datapath::PacketBatch)> sgi_gtp_sink_;
};

}  // namespace magma::core
