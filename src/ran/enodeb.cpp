#include "ran/enodeb.h"

namespace magma::ran {

namespace lte = magma::proto::lte;

EnodeB::EnodeB(sim::Kernel& kernel, EnodebConfig config,
               net::Channel& s1_channel)
    : Cell(kernel, config.address, config.max_active_ues,
           config.dl_capacity_bps, config.ul_capacity_bps, 0x1000),
      config_(config),
      s1_(s1_channel) {
  s1_.set_receiver([this](common::Bytes raw) { on_s1_message(std::move(raw)); });
}

void EnodeB::start() {
  lte::S1SetupRequest setup;
  setup.enb_id = config_.id;
  setup.enb_name = config_.name;
  send_s1(lte::S1apMessage{std::move(setup)});
}

void EnodeB::send_s1(const lte::S1apMessage& msg) {
  s1_.send(lte::encode_s1ap(msg));
}

void EnodeB::send_initial_nas(std::uint32_t enb_ue_id,
                              common::Bytes nas_pdu) {
  if (find(enb_ue_id) == nullptr) return;
  lte::InitialUeMessage msg;
  msg.enb_ue_s1ap_id = enb_ue_id;
  msg.nas_pdu = std::move(nas_pdu);
  send_s1(lte::S1apMessage{std::move(msg)});
}

void EnodeB::send_uplink_nas(std::uint32_t enb_ue_id, common::Bytes nas_pdu) {
  const UeEntry* entry = find(enb_ue_id);
  if (entry == nullptr) return;
  lte::UplinkNasTransport msg;
  msg.enb_ue_s1ap_id = enb_ue_id;
  msg.mme_ue_s1ap_id = entry->core_ue_id;
  msg.nas_pdu = std::move(nas_pdu);
  send_s1(lte::S1apMessage{std::move(msg)});
}

void EnodeB::request_idle_release(std::uint32_t enb_ue_id) {
  const UeEntry* entry = find(enb_ue_id);
  if (entry == nullptr) return;
  ++stats_.idle_releases;
  lte::UeContextReleaseRequest request;
  request.enb_ue_s1ap_id = enb_ue_id;
  request.mme_ue_s1ap_id = entry->core_ue_id;
  request.cause = "user-inactivity";
  send_s1(lte::S1apMessage{std::move(request)});
}

void EnodeB::camp(const common::Imsi& imsi, LteUeLink* ue) {
  camped_[imsi] = ue;
}

void EnodeB::uncamp(const common::Imsi& imsi) {
  camped_.erase(imsi);
}

bool EnodeB::start_handover(std::uint32_t enb_ue_id, EnodeB& target) {
  const UeEntry* found = find(enb_ue_id);
  if (found == nullptr || !found->has_bearer) return false;
  const UeEntry entry = *found;
  // rrc_connect() admits only LTE UEs, so the link is an LteUeLink.
  const std::uint32_t new_id =
      target.admit_handover(static_cast<LteUeLink*>(entry.ue),
                            entry.core_ue_id, entry.agw_teid_ul,
                            entry.agw_address);
  if (new_id == 0) return false;
  // X2 context transfer done: the source releases its side locally (the
  // path switch at the core is the target's job).
  ++stats_.handovers_out;
  rrc_disconnect(enb_ue_id);
  return true;
}

std::uint32_t EnodeB::admit_handover(LteUeLink* ue, std::uint32_t mme_ue_id,
                                     common::Teid agw_teid_ul,
                                     common::Ipv4 agw_address) {
  const std::uint32_t enb_ue_id = admit(ue);
  if (enb_ue_id == 0) return 0;
  const UeEntry& entry =
      open_bearer(enb_ue_id, mme_ue_id, agw_teid_ul, agw_address);
  ++stats_.handovers_in;

  lte::PathSwitchRequest request;
  request.enb_ue_s1ap_id = enb_ue_id;
  request.mme_ue_s1ap_id = mme_ue_id;
  request.enb_teid_dl = entry.my_teid_dl;
  request.enb_address = config_.address;
  send_s1(lte::S1apMessage{std::move(request)});

  ue->on_handover_complete(*this, enb_ue_id);
  return enb_ue_id;
}

void EnodeB::on_s1_message(common::Bytes raw) {
  auto decoded = lte::decode_s1ap(raw);
  if (!decoded.ok()) return;
  lte::S1apMessage msg = std::move(decoded).take();

  if (std::get_if<lte::S1SetupResponse>(&msg) != nullptr) {
    s1_ready_ = true;
    return;
  }

  if (auto* dl = std::get_if<lte::DownlinkNasTransport>(&msg)) {
    downlink_nas(dl->enb_ue_s1ap_id, dl->mme_ue_s1ap_id,
                 std::move(dl->nas_pdu));
    return;
  }

  if (auto* ics = std::get_if<lte::InitialContextSetupRequest>(&msg)) {
    const UeEntry* admitted = find(ics->enb_ue_s1ap_id);
    if (admitted == nullptr || admitted->ue == nullptr) return;
    const UeEntry& entry =
        open_bearer(ics->enb_ue_s1ap_id, ics->mme_ue_s1ap_id,
                    ics->agw_teid_ul, ics->agw_address);

    lte::InitialContextSetupResponse response;
    response.enb_ue_s1ap_id = ics->enb_ue_s1ap_id;
    response.mme_ue_s1ap_id = ics->mme_ue_s1ap_id;
    response.enb_teid_dl = entry.my_teid_dl;
    response.enb_address = config_.address;
    send_s1(lte::S1apMessage{std::move(response)});

    // Relay the piggybacked AttachAccept to the UE.
    entry.ue->on_downlink_nas(ics->nas_pdu);
    return;
  }

  if (auto* paging = std::get_if<lte::PagingMessage>(&msg)) {
    auto it = camped_.find(paging->imsi);
    if (it != camped_.end() && it->second != nullptr) {
      ++stats_.pages_delivered;
      it->second->on_paging();
    }
    return;
  }

  if (std::get_if<lte::PathSwitchRequestAcknowledge>(&msg) != nullptr) {
    return;  // path switch confirmed; nothing more to do radio-side
  }

  if (auto* release = std::get_if<lte::UeContextReleaseCommand>(&msg)) {
    lte::UeContextReleaseComplete complete;
    complete.enb_ue_s1ap_id = release->enb_ue_s1ap_id;
    complete.mme_ue_s1ap_id = release->mme_ue_s1ap_id;
    send_s1(lte::S1apMessage{std::move(complete)});
    release_ue(release->enb_ue_s1ap_id);
    return;
  }
}

}  // namespace magma::ran
