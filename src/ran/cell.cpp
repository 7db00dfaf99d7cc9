#include "ran/cell.h"

#include "datapath/gtpu.h"

namespace magma::ran {

namespace {

datapath::MeterConfig burst_100ms(double capacity_bps) {
  return datapath::MeterConfig{
      capacity_bps, static_cast<std::uint64_t>(capacity_bps / 8 / 10)};
}

}  // namespace

Radio::Radio(sim::Kernel& kernel, double dl_capacity_bps,
             double ul_capacity_bps, RadioStats& stats)
    : kernel_(kernel),
      dl_(burst_100ms(dl_capacity_bps), kernel.now()),
      ul_(burst_100ms(ul_capacity_bps), kernel.now()),
      stats_(stats) {}

bool Radio::uplink(std::uint64_t bytes) {
  if (!ul_.allow(bytes, kernel_.now())) {
    stats_.ul_dropped_radio_bytes += bytes;
    return false;
  }
  stats_.ul_forwarded_bytes += bytes;
  return true;
}

bool Radio::downlink(std::uint64_t bytes) {
  if (!dl_.allow(bytes, kernel_.now())) {
    stats_.dl_dropped_radio_bytes += bytes;
    return false;
  }
  return true;
}

Cell::Cell(sim::Kernel& kernel, common::Ipv4 address, int max_active_ues,
           double dl_capacity_bps, double ul_capacity_bps,
           std::uint32_t first_dl_teid)
    : address_(address),
      max_active_ues_(max_active_ues),
      radio_(kernel, dl_capacity_bps, ul_capacity_bps, stats_),
      next_dl_teid_(first_dl_teid) {}

std::uint32_t Cell::admit(CellUeLink* ue) {
  if (active_ues() >= max_active_ues_) {
    ++stats_.rrc_rejects_capacity;
    return 0;
  }
  const std::uint32_t ran_ue_id = next_ue_id_++;
  ues_[ran_ue_id].ue = ue;
  return ran_ue_id;
}

Cell::UeEntry* Cell::find(std::uint32_t ran_ue_id) {
  auto it = ues_.find(ran_ue_id);
  return it == ues_.end() ? nullptr : &it->second;
}

void Cell::rrc_disconnect(std::uint32_t ran_ue_id) {
  auto it = ues_.find(ran_ue_id);
  if (it == ues_.end()) return;
  if (it->second.my_teid_dl.value != 0) {
    ue_by_dl_teid_.erase(it->second.my_teid_dl);
  }
  ues_.erase(it);
}

void Cell::downlink_nas(std::uint32_t ran_ue_id, std::uint32_t core_ue_id,
                        common::Bytes nas_pdu) {
  UeEntry* entry = find(ran_ue_id);
  if (entry == nullptr || entry->ue == nullptr) return;
  entry->core_ue_id = core_ue_id;
  entry->ue->on_downlink_nas(std::move(nas_pdu));
}

Cell::UeEntry& Cell::open_bearer(std::uint32_t ran_ue_id,
                                 std::uint32_t core_ue_id,
                                 common::Teid agw_teid_ul,
                                 common::Ipv4 agw_address) {
  UeEntry& entry = ues_.at(ran_ue_id);
  entry.core_ue_id = core_ue_id;
  entry.has_bearer = true;
  entry.agw_teid_ul = agw_teid_ul;
  entry.agw_address = agw_address;
  entry.my_teid_dl = common::Teid{next_dl_teid_++};
  ue_by_dl_teid_[entry.my_teid_dl] = ran_ue_id;
  return entry;
}

void Cell::release_ue(std::uint32_t ran_ue_id) {
  UeEntry* entry = find(ran_ue_id);
  if (entry == nullptr) return;
  CellUeLink* ue = entry->ue;
  rrc_disconnect(ran_ue_id);
  if (ue != nullptr) ue->on_rrc_release();
}

void Cell::uplink_data(std::uint32_t ran_ue_id, datapath::PacketBatch batch) {
  UeEntry* entry = find(ran_ue_id);
  if (entry == nullptr || !entry->has_bearer || !uplink_sink_) return;
  if (!radio_.uplink(batch.bytes())) return;
  batch.packet = datapath::gtpu_encap(std::move(batch.packet),
                                      entry->agw_teid_ul, address_,
                                      entry->agw_address);
  uplink_sink_(std::move(batch));
}

void Cell::deliver_downlink(datapath::PacketBatch batch) {
  UeEntry* entry = nullptr;
  if (batch.packet.gtpu.has_value()) {
    auto it = ue_by_dl_teid_.find(batch.packet.gtpu->teid);
    if (it != ue_by_dl_teid_.end()) entry = find(it->second);
  }
  if (entry == nullptr || entry->ue == nullptr) {
    ++stats_.unknown_teid_drops;
    return;
  }
  // Radio scheduling: the sector's shared downlink capacity.
  if (!radio_.downlink(batch.bytes())) return;
  batch.packet = datapath::gtpu_decap(std::move(batch.packet));
  radio_.delivered(batch.bytes());
  entry->ue->on_downlink_data(batch);
}

}  // namespace magma::ran
