#include "core/network.h"

#include <cassert>
#include <cstring>

namespace magma::core {

namespace {

// Hands a RAN node's uplink to `agw`'s user plane.
std::function<void(datapath::PacketBatch)> ingress_to(agw::AccessGateway& agw) {
  return [gw = &agw](datapath::PacketBatch batch) {
    gw->ingress_from_ran(std::move(batch));
  };
}

}  // namespace

Network::Network(NetworkConfig config)
    : config_(config), kernel_(), rng_(config.seed) {
  orchestrator_ = std::make_unique<orc8r::Orchestrator>(kernel_);
  orchestrator_->set_tracer(&tracer_);
  // Gateway health plane: judge checkin freshness against the cadence the
  // AGWs are actually configured with, and start the periodic sweep.
  orc8r::StatusdConfig statusd = config_.statusd;
  statusd.checkin_interval = config_.magmad.checkin_interval;
  orchestrator_->statusd().configure(statusd);
  orchestrator_->statusd().start();
  // SLO evaluation (derived histogram SLIs) rides its own periodic tick.
  orchestrator_->start_slo_tick();
  if (config_.with_ocs) ocs_ = std::make_unique<ocs::Ocs>();
  add_policy(unlimited_policy());
}

Network::~Network() = default;

Network::AgwNode* Network::node_for(agw::AccessGateway& agw) {
  for (auto& node : agws_) {
    if (node->agw.get() == &agw) return node.get();
  }
  assert(false && "gateway not added to this network");
  return nullptr;
}

agw::AccessGateway& Network::add_agw(
    agw::AgwProfile profile, std::optional<sim::LinkConfig> backhaul) {
  auto node = std::make_unique<AgwNode>();
  const std::size_t index = agws_.size();

  // Distinct addressing per AGW: control address 10.<n+1>.0.1, UE block
  // 172.16.0.0/22-sized slices (1022 UEs per AGW — several cell sites'
  // worth, clear of RAN-node addresses).
  profile.address =
      common::Ipv4::from_octets(10, static_cast<std::uint8_t>(index + 1), 0, 1);
  profile.ip_block.base = common::Ipv4{
      common::Ipv4::from_octets(172, 16, 0, 0).addr +
      (static_cast<std::uint32_t>(index) << 10)};
  profile.ip_block.prefix_len = 22;

  node->agw = std::make_unique<agw::AccessGateway>(
      kernel_, common::GatewayId{"gw" + std::to_string(index)}, profile,
      rng_.fork(), &tracer_);

  // Control backhaul to the orchestrator (reliable, gRPC-style).
  const std::string gw = node->agw->id().value;
  node->control = std::make_unique<rpc::RpcLink>(
      kernel_, rng_, "orc8r-server-" + gw, gw + "-orc8r-client",
      backhaul.value_or(config_.backhaul), config_.transport);
  node->control->server.set_tracer(&tracer_, "orc8r");
  orchestrator_->bind(node->control->server);
  node->agw->connect_orchestrator(*node->control, config_.magmad);
  orchestrator_->register_gateway(gw, profile.name);

  if (ocs_) {
    node->ocs = std::make_unique<rpc::RpcLink>(
        kernel_, rng_, "ocs-server-" + gw, gw + "-ocs-client",
        backhaul.value_or(config_.backhaul), config_.transport);
    node->ocs->server.set_tracer(&tracer_, "ocs");
    ocs_->bind(node->ocs->server);
    node->agw->connect_ocs(node->ocs->client);
  }

  wire_egress(*node);
  node->agw->magmad().start();

  agws_.push_back(std::move(node));
  return *agws_.back()->agw;
}

void Network::wire_egress(AgwNode& node) {
  AgwNode* node_ptr = &node;
  node.agw->set_egress([this, node_ptr](std::uint32_t out_port,
                                        datapath::PacketBatch batch) {
    if (out_port == datapath::kPortRan) {
      if (batch.packet.gtpu.has_value() && batch.packet.outer_ip.has_value()) {
        auto& cells = node_ptr->cells_by_address;
        auto it = cells.find(batch.packet.outer_ip->dst);
        if (it != cells.end()) it->second->deliver_downlink(std::move(batch));
        return;  // else an unroutable tunnel
      }
      // Untunneled (WiFi): the owning AP recognizes the client address.
      for (ran::WifiAp* ap : node_ptr->aps) {
        ap->deliver_downlink(batch);
      }
      return;
    }
    if (out_port == datapath::kPortSgi) {
      if (batch.packet.gtpu.has_value()) {
        // Home-routed uplink toward the GTP aggregator.
        if (sgi_gtp_sink_) sgi_gtp_sink_(std::move(batch));
        return;
      }
      internet_rx_bytes_ += batch.bytes();
      return;
    }
    // kPortLocal and anything else: consumed locally.
  });
}

template <class Config>
net::ReliablePair& Network::add_cell_link(AgwNode& node, Config& config,
                                          std::uint8_t subnet,
                                          std::optional<sim::LinkConfig> link) {
  const std::uint32_t ran_id = next_ran_id_++;
  if (config.id.value == 1 && ran_id != 1) config.id.value = ran_id;
  if (config.address == Config{}.address) {
    config.address = common::Ipv4::from_octets(
        10, subnet, static_cast<std::uint8_t>(ran_id >> 8),
        static_cast<std::uint8_t>(ran_id & 0xFF));
  }

  // S1/NG rides a reliable channel over a LAN hop (the cell and AGW are
  // co-located at the site) unless the caller overrides it to model a
  // remote, traditional core.
  node.ran_links.push_back(std::make_unique<net::DuplexLink>(
      kernel_, rng_, link.value_or(sim::lan_link())));
  if (link.has_value()) {
    node.wan_ran_links.push_back(node.ran_links.back().get());
  }
  node.ran_channels.push_back(
      net::make_reliable_pair(kernel_, *node.ran_links.back()));
  return node.ran_channels.back();
}

void Network::add_cell(AgwNode& node, ran::Cell& cell, common::Ipv4 address) {
  cell.set_uplink_sink(ingress_to(*node.agw));
  node.cells_by_address[address] = &cell;
}

ran::EnodeB& Network::add_enodeb(agw::AccessGateway& agw,
                                 ran::EnodebConfig config,
                                 std::optional<sim::LinkConfig> s1_link) {
  AgwNode* node = node_for(agw);
  net::ReliablePair& pair = add_cell_link(*node, config, 100, s1_link);
  enbs_.push_back(std::make_unique<ran::EnodeB>(kernel_, config, *pair.a));
  agw.lte().add_enb_channel(*pair.b);
  add_cell(*node, *enbs_.back(), config.address);
  enbs_.back()->start();
  return *enbs_.back();
}

ran::Gnb& Network::add_gnb(agw::AccessGateway& agw, ran::GnbConfig config) {
  AgwNode* node = node_for(agw);
  net::ReliablePair& pair = add_cell_link(*node, config, 101, std::nullopt);
  gnbs_.push_back(std::make_unique<ran::Gnb>(kernel_, config, *pair.a));
  agw.nr().add_gnb_channel(*pair.b);
  add_cell(*node, *gnbs_.back(), config.address);
  gnbs_.back()->start();
  return *gnbs_.back();
}

ran::WifiAp& Network::add_wifi_ap(agw::AccessGateway& agw,
                                  ran::WifiApConfig config) {
  AgwNode* node = node_for(agw);

  // RADIUS rides UDP (datagram) over the site LAN, as in real deployments.
  node->ran_links.push_back(
      std::make_unique<net::DuplexLink>(kernel_, rng_, sim::lan_link()));
  node->ran_datagram_channels.push_back(
      net::make_datagram_pair(kernel_, *node->ran_links.back()));
  net::ChannelPair& pair = node->ran_datagram_channels.back();

  auto ap = std::make_unique<ran::WifiAp>(kernel_, config, *pair.a);
  agw.wifi().add_ap_channel(*pair.b);
  ap->set_uplink_sink(ingress_to(agw));
  node->aps.push_back(ap.get());
  aps_.push_back(std::move(ap));
  return *aps_.back();
}

rpc::RpcNode& Network::orc8r_node_for(agw::AccessGateway& agw) {
  return node_for(agw)->control->server;
}

void Network::adopt_ran(agw::AccessGateway& backup,
                        agw::AccessGateway& failed) {
  AgwNode* to = node_for(backup);
  AgwNode* from = node_for(failed);
  for (auto& [addr, cell] : from->cells_by_address) add_cell(*to, *cell, addr);
  for (ran::WifiAp* ap : from->aps) {
    to->aps.push_back(ap);
    ap->set_uplink_sink(ingress_to(backup));
  }
}

void Network::set_backhaul_up(agw::AccessGateway& agw, bool up) {
  AgwNode* node = node_for(agw);
  node->control->path.forward.set_up(up);
  node->control->path.reverse.set_up(up);
  // An outage cuts everything crossing the WAN — including the S1 of a
  // traditional (remote-core) deployment. Magma's site-local S1 is
  // untouched, which is the point of §3.1.
  for (net::DuplexLink* link : node->wan_ran_links) {
    link->forward.set_up(up);
    link->reverse.set_up(up);
  }
}

void Network::set_backhaul_loss(agw::AccessGateway& agw,
                                double loss_probability) {
  net::DuplexLink& path = node_for(agw)->control->path;
  path.forward.set_loss_probability(loss_probability);
  path.reverse.set_loss_probability(loss_probability);
}

const net::ReliableStats& Network::control_stats_orc8r(
    agw::AccessGateway& agw) {
  return node_for(agw)->control->channels.a->stats();
}

const net::ReliableStats& Network::control_stats_agw(agw::AccessGateway& agw) {
  return node_for(agw)->control->channels.b->stats();
}

agw::SubscriberData Network::provision_subscriber(
    const std::string& policy_name, const std::string& wifi_password) {
  agw::SubscriberData sub;
  sub.imsi = common::Imsi::from_digits(1010000000000ULL + next_imsi_++);
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t r = rng_.next_u64();
    std::memcpy(sub.k.data() + i * 8, &r, 8);
    const std::uint64_t r2 = rng_.next_u64();
    std::memcpy(sub.opc.data() + i * 8, &r2, 8);
  }
  sub.policy_name = policy_name;
  sub.wifi_password = wifi_password;
  orchestrator_->add_subscriber(sub);
  return sub;
}

void Network::add_policy(const Policy& policy) {
  orchestrator_->add_policy(policy);
}

void Network::sync_all_config() {
  for (auto& node : agws_) {
    node->agw->magmad().sync_config_now();
  }
  // Give the RPCs time to round-trip over the slowest plausible backhaul.
  run_for(3 * sim::kSecond);
}

ran::UeLte& Network::add_ue_lte(const agw::SubscriberData& subscriber) {
  lte_ues_.push_back(std::make_unique<ran::UeLte>(
      kernel_, ran::Usim(subscriber.imsi, subscriber.k, subscriber.opc)));
  return *lte_ues_.back();
}

ran::UeNr& Network::add_ue_nr(const agw::SubscriberData& subscriber) {
  nr_ues_.push_back(std::make_unique<ran::UeNr>(
      kernel_, ran::Usim(subscriber.imsi, subscriber.k, subscriber.opc)));
  return *nr_ues_.back();
}

ran::WifiClient& Network::add_wifi_client(
    const agw::SubscriberData& subscriber, const std::string& password) {
  wifi_clients_.push_back(
      std::make_unique<ran::WifiClient>(kernel_, subscriber.imsi, password));
  return *wifi_clients_.back();
}

void Network::inject_downlink(agw::AccessGateway& agw, common::Ipv4 ue_ip,
                              std::uint32_t packet_bytes,
                              std::uint64_t packet_count) {
  datapath::PacketBatch batch;
  batch.packet = datapath::make_udp(common::Ipv4::from_octets(8, 8, 8, 8),
                                    ue_ip, 443, 40000, packet_bytes);
  batch.count = packet_count;
  agw.ingress_from_internet(std::move(batch));
}

void Network::run_for(sim::Duration duration) {
  kernel_.run_until(kernel_.now() + duration);
}

void Network::run_until(sim::TimePoint deadline) {
  kernel_.run_until(deadline);
}

}  // namespace magma::core
