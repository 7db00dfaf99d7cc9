#include "ran/gnb.h"

namespace magma::ran {

namespace nr = magma::proto::nr5g;

Gnb::Gnb(sim::Kernel& kernel, GnbConfig config, net::Channel& ng_channel)
    : Cell(kernel, config.address, config.max_active_ues,
           config.dl_capacity_bps, config.ul_capacity_bps, 0x8000),
      config_(config),
      ng_(ng_channel) {
  ng_.set_receiver([this](common::Bytes raw) { on_ng_message(std::move(raw)); });
}

void Gnb::start() {
  nr::NgSetupRequest setup;
  setup.gnb_id = config_.id;
  setup.gnb_name = config_.name;
  send_ng(nr::NgapMessage{std::move(setup)});
}

void Gnb::send_ng(const nr::NgapMessage& msg) {
  ng_.send(nr::encode_ngap(msg));
}

void Gnb::send_initial_nas(std::uint32_t ran_ue_id, common::Bytes nas_pdu) {
  if (find(ran_ue_id) == nullptr) return;
  nr::InitialUeMessage5g msg;
  msg.ran_ue_ngap_id = ran_ue_id;
  msg.nas_pdu = std::move(nas_pdu);
  send_ng(nr::NgapMessage{std::move(msg)});
}

void Gnb::send_uplink_nas(std::uint32_t ran_ue_id, common::Bytes nas_pdu) {
  const UeEntry* entry = find(ran_ue_id);
  if (entry == nullptr) return;
  nr::UplinkNasTransport5g msg;
  msg.ran_ue_ngap_id = ran_ue_id;
  msg.amf_ue_ngap_id = entry->core_ue_id;
  msg.nas_pdu = std::move(nas_pdu);
  send_ng(nr::NgapMessage{std::move(msg)});
}

void Gnb::on_ng_message(common::Bytes raw) {
  auto decoded = nr::decode_ngap(raw);
  if (!decoded.ok()) return;
  nr::NgapMessage msg = std::move(decoded).take();

  if (auto* dl = std::get_if<nr::DownlinkNasTransport5g>(&msg)) {
    downlink_nas(dl->ran_ue_ngap_id, dl->amf_ue_ngap_id,
                 std::move(dl->nas_pdu));
    return;
  }

  if (auto* setup = std::get_if<nr::PduSessionResourceSetupRequest>(&msg)) {
    const UeEntry* admitted = find(setup->ran_ue_ngap_id);
    if (admitted == nullptr || admitted->ue == nullptr) return;
    const UeEntry& entry =
        open_bearer(setup->ran_ue_ngap_id, setup->amf_ue_ngap_id,
                    setup->agw_teid_ul, setup->agw_address);

    nr::PduSessionResourceSetupResponse response;
    response.ran_ue_ngap_id = setup->ran_ue_ngap_id;
    response.amf_ue_ngap_id = setup->amf_ue_ngap_id;
    response.pdu_session_id = setup->pdu_session_id;
    response.gnb_teid_dl = entry.my_teid_dl;
    response.gnb_address = config_.address;
    send_ng(nr::NgapMessage{std::move(response)});

    entry.ue->on_downlink_nas(setup->nas_pdu);
    return;
  }

  if (auto* release = std::get_if<nr::UeContextReleaseCommand5g>(&msg)) {
    nr::UeContextReleaseComplete5g complete;
    complete.ran_ue_ngap_id = release->ran_ue_ngap_id;
    complete.amf_ue_ngap_id = release->amf_ue_ngap_id;
    send_ng(nr::NgapMessage{std::move(complete)});
    release_ue(release->ran_ue_ngap_id);
    return;
  }
}

}  // namespace magma::ran
