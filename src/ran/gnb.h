// gNB model — the 5G base station of the emulated RAN (NGAP toward the
// AGW's NR front-end). The radio, the UE table and the GTP-U user plane
// are the shared `Cell` (ran/cell.h); the control difference is 5G's split
// between registration and PDU-session resource setup (Figure 1).
#pragma once

#include <cstdint>
#include <string>

#include "common/ids.h"
#include "net/channel.h"
#include "proto/nr5g/ngap.h"
#include "ran/cell.h"
#include "sim/kernel.h"

namespace magma::ran {

struct GnbConfig {
  common::RanNodeId id{1};
  std::string name = "gnb";
  common::Ipv4 address = common::Ipv4::from_octets(10, 0, 2, 1);
  int max_active_ues = 96;
  double dl_capacity_bps = 250e6;  // n78 100 MHz-class cell, conservative
  double ul_capacity_bps = 125e6;
};

class Gnb : public Cell {
 public:
  Gnb(sim::Kernel& kernel, GnbConfig config, net::Channel& ng_channel);

  void start();

  // Returns 0 on capacity rejection, else the assigned ran_ue_ngap_id.
  std::uint32_t rrc_connect(CellUeLink* ue) { return admit(ue); }
  void send_initial_nas(std::uint32_t ran_ue_id, common::Bytes nas_pdu);
  void send_uplink_nas(std::uint32_t ran_ue_id, common::Bytes nas_pdu);

  const GnbConfig& config() const { return config_; }

 private:
  void on_ng_message(common::Bytes raw);
  void send_ng(const proto::nr5g::NgapMessage& msg);

  GnbConfig config_;
  net::Channel& ng_;
};

}  // namespace magma::ran
