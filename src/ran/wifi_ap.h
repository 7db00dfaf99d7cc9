// WiFi access point model.
//
// Plays the role of the APs in Figure 10 (AccessParks) and the "carrier
// WiFi" deployments: associates clients, runs CHAP against the AGW's WiFi
// front-end over RADIUS, reports accounting, and bridges plain-IP client
// traffic to and from the AGW. The shared medium is the same `Radio` as the
// cellular sectors' (ran/cell.h), but best-effort and lower capacity (§2.1).
//
// Modeling note: the CHAP digest is computed here from the password given
// at associate() — in reality the client computes it; collapsing that hop
// changes no message on the AGW side.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/ids.h"
#include "crypto/hmac.h"
#include "datapath/pipeline.h"
#include "net/channel.h"
#include "proto/wifi/radius.h"
#include "ran/cell.h"
#include "sim/kernel.h"

namespace magma::ran {

class WifiClientLink {
 public:
  virtual ~WifiClientLink() = default;
  virtual void on_association_result(common::Result<common::Ipv4> ip) = 0;
  virtual void on_downlink_data(const datapath::PacketBatch& batch) = 0;
};

struct WifiApConfig {
  std::string name = "ap";
  int max_clients = 64;
  double dl_capacity_bps = 120e6;  // 802.11ac-class shared medium
  double ul_capacity_bps = 120e6;
};

struct WifiApStats : RadioStats {
  std::uint64_t associations = 0;
  std::uint64_t association_failures = 0;
};

class WifiAp {
 public:
  WifiAp(sim::Kernel& kernel, WifiApConfig config,
         net::Channel& radius_channel);

  void set_uplink_sink(std::function<void(datapath::PacketBatch)> sink) {
    uplink_sink_ = std::move(sink);
  }

  // CHAP association; the result (Framed-IP or failure) arrives on `client`.
  void associate(WifiClientLink* client, const common::Imsi& user,
                 const std::string& password);
  void disassociate(const common::Imsi& user);

  void uplink_data(const common::Imsi& user, datapath::PacketBatch batch);
  void deliver_downlink(datapath::PacketBatch batch);

  const WifiApStats& stats() const { return stats_; }

 private:
  struct ClientEntry {
    WifiClientLink* client = nullptr;
    std::string password;
    bool associated = false;
    common::Ipv4 ip;
    std::uint64_t tx_octets = 0;
    std::uint64_t rx_octets = 0;
  };

  void on_radius(common::Bytes raw);
  void send_radius(const proto::wifi::RadiusPacket& packet);
  void send_accounting(const common::Imsi& user, proto::wifi::AcctStatus status);

  WifiApConfig config_;
  net::Channel& radius_;
  std::function<void(datapath::PacketBatch)> uplink_sink_;

  std::unordered_map<common::Imsi, ClientEntry> clients_;  // by user
  std::unordered_map<common::Ipv4, common::Imsi> client_by_ip_;
  std::uint8_t next_identifier_ = 1;

  WifiApStats stats_;
  Radio radio_;  // counts into stats_, so declared after it
};

}  // namespace magma::ran
