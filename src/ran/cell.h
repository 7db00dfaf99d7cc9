// The radio model of the emulated RAN, written once for its three nodes.
//
// `Radio` is a sector's shared medium (§4.1): one token bucket per
// direction, and the bytes it carried or dropped. When offered load
// exceeds the sector's capacity the radio is the bottleneck, which is
// exactly the regime Figure 5 demonstrates. The eNodeB, the gNB and the
// WiFi AP each own one.
//
// `Cell` is what the eNodeB and the gNB share below S1AP/NGAP: RRC
// admission up to the cell's active-UE limit, the UE table, the GTP-U
// tunnels of each UE's bearer, and the user plane over the radio.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/ids.h"
#include "datapath/meter.h"
#include "datapath/pipeline.h"
#include "sim/kernel.h"

namespace magma::ran {

struct RadioStats {
  std::uint64_t dl_delivered_bytes = 0;
  std::uint64_t dl_dropped_radio_bytes = 0;
  std::uint64_t ul_forwarded_bytes = 0;
  std::uint64_t ul_dropped_radio_bytes = 0;
};

class Radio {
 public:
  // Each direction bursts up to 100 ms of its capacity. Counts into
  // `stats`, which must outlive the radio.
  Radio(sim::Kernel& kernel, double dl_capacity_bps, double ul_capacity_bps,
        RadioStats& stats);
  // A copy would count into the original owner's stats.
  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  // Whether the uplink carries `bytes` now; counted forwarded or dropped.
  bool uplink(std::uint64_t bytes);
  // Whether the downlink has room for `bytes` now; counted dropped if not.
  bool downlink(std::uint64_t bytes);
  // Bytes handed to a UE after the downlink carried them.
  void delivered(std::uint64_t bytes) { stats_.dl_delivered_bytes += bytes; }

 private:
  sim::Kernel& kernel_;
  datapath::TokenBucket dl_;
  datapath::TokenBucket ul_;
  RadioStats& stats_;
};

// Interface a cell uses to talk back to an attached UE model.
class CellUeLink {
 public:
  virtual ~CellUeLink() = default;
  virtual void on_downlink_nas(common::Bytes nas_pdu) = 0;
  virtual void on_downlink_data(const datapath::PacketBatch& batch) = 0;
  virtual void on_rrc_release() = 0;
};

struct CellStats : RadioStats {
  std::uint64_t rrc_rejects_capacity = 0;
  std::uint64_t unknown_teid_drops = 0;
  // Counted by the eNodeB only: the gNB models no handover, paging or
  // idle release.
  std::uint64_t handovers_in = 0;
  std::uint64_t handovers_out = 0;
  std::uint64_t pages_delivered = 0;
  std::uint64_t idle_releases = 0;
};

class Cell {
 public:
  // Uplink user-plane hand-off to the AGW (set by the topology glue; the
  // cell GTP-encapsulates before calling this).
  void set_uplink_sink(std::function<void(datapath::PacketBatch)> sink) {
    uplink_sink_ = std::move(sink);
  }

  // Drops the UE's context without telling it.
  void rrc_disconnect(std::uint32_t ran_ue_id);
  // Plain-IP uplink traffic from a UE; encapsulated and forwarded if the
  // UE's bearer is up.
  void uplink_data(std::uint32_t ran_ue_id, datapath::PacketBatch batch);
  // Downlink GTP-U traffic from the AGW, addressed to this cell.
  void deliver_downlink(datapath::PacketBatch batch);

  int active_ues() const { return static_cast<int>(ues_.size()); }
  const CellStats& stats() const { return stats_; }

 protected:
  struct UeEntry {
    CellUeLink* ue = nullptr;
    std::uint32_t core_ue_id = 0;  // MME/AMF UE id
    bool has_bearer = false;
    common::Teid agw_teid_ul;  // AGW-side tunnel for uplink
    common::Ipv4 agw_address;
    common::Teid my_teid_dl;  // our tunnel id for downlink
  };

  // Downlink TEIDs count up from `first_dl_teid`.
  Cell(sim::Kernel& kernel, common::Ipv4 address, int max_active_ues,
       double dl_capacity_bps, double ul_capacity_bps,
       std::uint32_t first_dl_teid);

  // RRC admission: the new RAN UE id, or 0 (counted) when the cell is full.
  std::uint32_t admit(CellUeLink* ue);
  // The UE's context, or null.
  UeEntry* find(std::uint32_t ran_ue_id);
  // Relays NAS from the core, learning the core's id for the UE.
  void downlink_nas(std::uint32_t ran_ue_id, std::uint32_t core_ue_id,
                    common::Bytes nas_pdu);
  // Opens the bearer of an admitted UE: records the AGW's uplink tunnel
  // and allocates the downlink TEID.
  UeEntry& open_bearer(std::uint32_t ran_ue_id, std::uint32_t core_ue_id,
                       common::Teid agw_teid_ul, common::Ipv4 agw_address);
  // The core released the UE: drop its context, then tell the UE.
  void release_ue(std::uint32_t ran_ue_id);

  CellStats stats_;  // declared before radio_, which counts into it

 private:
  common::Ipv4 address_;
  int max_active_ues_;
  Radio radio_;
  std::function<void(datapath::PacketBatch)> uplink_sink_;
  std::unordered_map<std::uint32_t, UeEntry> ues_;  // by RAN UE id
  std::unordered_map<common::Teid, std::uint32_t> ue_by_dl_teid_;
  std::uint32_t next_ue_id_ = 1;
  std::uint32_t next_dl_teid_;
};

}  // namespace magma::ran
