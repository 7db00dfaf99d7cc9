// eNodeB model — the LTE base station of the emulated RAN.
//
// Plays the Spirent-Landslide role on the radio side: terminates the
// (abstracted) RRC air interface toward UE models and speaks real S1AP
// toward the AGW's LTE front-end, with ECM-IDLE paging and X2-style
// handover. The radio, the UE table and the GTP-U user plane are the
// shared `Cell` (ran/cell.h), with the limits the paper quotes for a
// typical site: at most 96 simultaneously active users and a sector
// capacity of ~126 Mbps over a 20 MHz channel (§4.1).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/ids.h"
#include "net/channel.h"
#include "proto/lte/s1ap.h"
#include "ran/cell.h"
#include "sim/kernel.h"

namespace magma::ran {

// The cell's UE link plus what only LTE UEs hear.
class EnodeB;
class LteUeLink : public CellUeLink {
 public:
  // ECM-IDLE support: delivered to camped UEs when the network pages them.
  virtual void on_paging() {}
  // X2-style handover completed; the UE is now served by `target`.
  virtual void on_handover_complete(EnodeB& target,
                                    std::uint32_t new_enb_ue_id) {
    (void)target;
    (void)new_enb_ue_id;
  }
};

struct EnodebConfig {
  common::RanNodeId id{1};
  std::string name = "enb";
  common::Ipv4 address = common::Ipv4::from_octets(10, 0, 1, 1);
  // Radio limits (§4.1): 96 active users, ~126 Mbps/20 MHz sector.
  int max_active_ues = 96;
  double dl_capacity_bps = 126e6;
  double ul_capacity_bps = 63e6;
};

class EnodeB : public Cell {
 public:
  EnodeB(sim::Kernel& kernel, EnodebConfig config, net::Channel& s1_channel);

  // S1 Setup toward the AGW. Safe to call once at scenario start.
  void start();
  bool s1_ready() const { return s1_ready_; }

  // --- UE-facing (abstracted RRC) ----------------------------------------
  // Returns 0 on capacity rejection, else the assigned enb_ue_s1ap_id.
  // Only LTE UEs camp on an eNodeB, which X2 handover relies on.
  std::uint32_t rrc_connect(LteUeLink* ue) { return admit(ue); }
  void send_initial_nas(std::uint32_t enb_ue_id, common::Bytes nas_pdu);
  void send_uplink_nas(std::uint32_t enb_ue_id, common::Bytes nas_pdu);

  // --- idle mode -----------------------------------------------------------
  // UE-inactivity release: asks the core to move the UE to ECM-IDLE (the
  // session survives; the radio context goes away).
  void request_idle_release(std::uint32_t enb_ue_id);
  // Idle UEs camp on a cell to hear paging.
  void camp(const common::Imsi& imsi, LteUeLink* ue);
  void uncamp(const common::Imsi& imsi);

  // --- mobility ---------------------------------------------------------------
  // X2-style handover of an active UE to `target` (same AGW). Returns false
  // if the target rejects (capacity) — the UE stays on this cell.
  bool start_handover(std::uint32_t enb_ue_id, EnodeB& target);
  // Target side: adopt the UE context, allocate a fresh downlink tunnel,
  // and send PathSwitchRequest. Returns the new enb_ue_id (0 = rejected).
  std::uint32_t admit_handover(LteUeLink* ue, std::uint32_t mme_ue_id,
                               common::Teid agw_teid_ul,
                               common::Ipv4 agw_address);

  const EnodebConfig& config() const { return config_; }

 private:
  void on_s1_message(common::Bytes raw);
  void send_s1(const proto::lte::S1apMessage& msg);

  EnodebConfig config_;
  net::Channel& s1_;
  bool s1_ready_ = false;
  std::unordered_map<common::Imsi, LteUeLink*> camped_;
};

}  // namespace magma::ran
