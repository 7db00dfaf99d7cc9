#include "agw/nr_frontend.h"

#include "common/log.h"

namespace magma::agw {

namespace nr = magma::proto::nr5g;

namespace {

// The name NG Setup Response gives this AMF.
constexpr char kAmfName[] = "magma-amf";

nr::FgmmCause cause_from_error(const common::Error& error) {
  switch (error.code) {
    case common::ErrorCode::kPermissionDenied:
    case common::ErrorCode::kUnauthenticated:
    case common::ErrorCode::kNotFound:
      return nr::FgmmCause::kIllegalUe;
    case common::ErrorCode::kResourceExhausted:
      return nr::FgmmCause::kCongestion;
    default:
      return nr::FgmmCause::kNetworkFailure;
  }
}

}  // namespace

NrFrontend::NrFrontend(Accessd& accessd, Sessiond& sessiond,
                       common::Ipv4 agw_address)
    : accessd_(accessd), sessiond_(sessiond), agw_address_(agw_address) {}

void NrFrontend::add_gnb_channel(net::Channel& channel) {
  channel.set_receiver([this, &channel](common::Bytes bytes) {
    on_message(channel, std::move(bytes));
  });
}

void NrFrontend::send(net::Channel& conn, const nr::NgapMessage& msg) {
  conn.send(nr::encode_ngap(msg));
}

void NrFrontend::send_nas(UeCtx& ue, const nr::Nas5gMessage& nas) {
  nr::DownlinkNasTransport5g transport;
  transport.ran_ue_ngap_id = ue.ran_ue_id;
  transport.amf_ue_ngap_id = ue.amf_ue_id;
  transport.nas_pdu = nr::encode_nas5g(nas);
  send(*ue.conn, nr::NgapMessage{std::move(transport)});
}

void NrFrontend::reject_registration(UeCtx& ue, nr::FgmmCause cause) {
  ++stats_.registrations_rejected;
  send_nas(ue, nr::Nas5gMessage{nr::RegistrationReject{cause}});
  release_ue(ue, "registration-reject");
}

void NrFrontend::release_ue(UeCtx& ue, const std::string& cause) {
  nr::UeContextReleaseCommand5g release;
  release.ran_ue_ngap_id = ue.ran_ue_id;
  release.amf_ue_ngap_id = ue.amf_ue_id;
  release.cause = cause;
  send(*ue.conn, nr::NgapMessage{std::move(release)});
  supi_to_amf_id_.erase(ue.supi);
  ues_.erase(ue.amf_ue_id);  // invalidates `ue`
}

NrFrontend::UeCtx* NrFrontend::find_by_amf_id(std::uint32_t amf_ue_id) {
  auto it = ues_.find(amf_ue_id);
  return it == ues_.end() ? nullptr : &it->second;
}

void NrFrontend::on_message(net::Channel& conn, common::Bytes raw) {
  auto msg = nr::decode_ngap(raw);
  if (!msg.ok()) {
    ++stats_.decode_errors;
    return;
  }
  handle(conn, std::move(msg).take());
}

void NrFrontend::handle(net::Channel& conn, nr::NgapMessage msg) {
  if (std::holds_alternative<nr::NgSetupRequest>(msg)) {
    ++stats_.ng_setups;
    send(conn, nr::NgapMessage{nr::NgSetupResponse{kAmfName}});
    return;
  }

  if (auto* initial = std::get_if<nr::InitialUeMessage5g>(&msg)) {
    auto nas = nr::decode_nas5g(initial->nas_pdu);
    if (!nas.ok()) {
      ++stats_.decode_errors;
      return;
    }
    const auto* reg = std::get_if<nr::RegistrationRequest>(&nas.value());
    if (reg == nullptr) {
      ++stats_.decode_errors;
      return;
    }
    ++stats_.registrations_started;

    if (auto it = supi_to_amf_id_.find(reg->supi);
        it != supi_to_amf_id_.end()) {
      ues_.erase(it->second);
      supi_to_amf_id_.erase(it);
    }

    const std::uint32_t amf_ue_id = next_amf_ue_id_++;
    UeCtx& ue = ues_[amf_ue_id];
    ue.supi = reg->supi;
    ue.conn = &conn;
    ue.ran_ue_id = initial->ran_ue_ngap_id;
    ue.amf_ue_id = amf_ue_id;
    supi_to_amf_id_[ue.supi] = amf_ue_id;

    accessd_.begin_attach(
        ue.supi, RanType::kNr5g,
        [this, amf_ue_id](common::Result<AuthChallenge> challenge) {
          UeCtx* ue = find_by_amf_id(amf_ue_id);
          if (ue == nullptr) return;
          if (!challenge.ok()) {
            reject_registration(*ue, cause_from_error(challenge.error()));
            return;
          }
          nr::AuthenticationRequest5g auth;
          auth.rand = challenge.value().rand;
          auth.autn = challenge.value().autn;
          send_nas(*ue, nr::Nas5gMessage{auth});
        });
    return;
  }

  if (auto* uplink = std::get_if<nr::UplinkNasTransport5g>(&msg)) {
    UeCtx* ue = find_by_amf_id(uplink->amf_ue_ngap_id);
    if (ue == nullptr) return;
    auto nas = nr::decode_nas5g(uplink->nas_pdu);
    if (!nas.ok()) {
      ++stats_.decode_errors;
      return;
    }
    handle_nas(*ue, nas.value());
    return;
  }

  if (auto* response = std::get_if<nr::PduSessionResourceSetupResponse>(&msg)) {
    UeCtx* ue = find_by_amf_id(response->amf_ue_ngap_id);
    if (ue == nullptr) return;
    sessiond_.update_bearer(ue->supi, response->gnb_teid_dl,
                            response->gnb_address)
        .ok();
    return;
  }
}

void NrFrontend::handle_nas(UeCtx& ue, const nr::Nas5gMessage& nas) {
  const std::uint32_t amf_ue_id = ue.amf_ue_id;

  if (const auto* auth = std::get_if<nr::AuthenticationResponse5g>(&nas)) {
    accessd_.verify_auth(
        ue.supi,
        common::BytesView(auth->res_star.data(), auth->res_star.size()),
        [this, amf_ue_id](common::Result<SecurityKeys> keys) {
          UeCtx* ue = find_by_amf_id(amf_ue_id);
          if (ue == nullptr) return;
          if (!keys.ok()) {
            reject_registration(*ue, cause_from_error(keys.error()));
            return;
          }
          ue->kasme = keys.value().kasme;
          ue->k_nas_int =
              crypto::derive_k_nas_int(ue->kasme, crypto::NasAlgorithm::kEia2);
          nr::SecurityModeCommand5g smc;
          smc.mac =
              nr::nas_mac(ue->k_nas_int, ue->dl_count, nr::Nas5gMessage{smc});
          ++ue->dl_count;
          send_nas(*ue, nr::Nas5gMessage{smc});
        });
    return;
  }

  if (const auto* smc = std::get_if<nr::SecurityModeComplete5g>(&nas)) {
    const std::uint32_t expected =
        nr::nas_mac(ue.k_nas_int, ue.ul_count, nr::Nas5gMessage{*smc});
    if (expected != smc->mac) {
      ++stats_.bad_mac;
      reject_registration(ue, nr::FgmmCause::kIllegalUe);
      return;
    }
    ++ue.ul_count;

    // 5G: registration completes *without* a user-plane session.
    nr::RegistrationAccept accept;
    accept.fg_tmsi = next_fg_tmsi_++;
    accept.mac =
        nr::nas_mac(ue.k_nas_int, ue.dl_count, nr::Nas5gMessage{accept});
    ++ue.dl_count;
    ue.registered = true;
    ++stats_.registrations_accepted;
    send_nas(ue, nr::Nas5gMessage{accept});
    return;
  }

  if (std::get_if<nr::RegistrationComplete>(&nas) != nullptr) {
    return;  // registration done; the UE will request a PDU session next
  }

  if (const auto* pdu = std::get_if<nr::PduSessionEstablishmentRequest>(&nas)) {
    const std::uint8_t session_id = pdu->pdu_session_id;
    Accessd::EstablishRequest req;
    req.imsi = ue.supi;
    req.enb_teid_dl = common::Teid{0};  // arrives in the resource response
    req.enb_address = common::Ipv4{0};
    accessd_.establish(
        req,
        [this, amf_ue_id, session_id](common::Result<SessionInfo> info) {
          UeCtx* ue = find_by_amf_id(amf_ue_id);
          if (ue == nullptr) return;
          if (!info.ok()) {
            ++stats_.pdu_sessions_rejected;
            nr::PduSessionEstablishmentReject reject;
            reject.pdu_session_id = session_id;
            reject.cause = cause_from_error(info.error());
            send_nas(*ue, nr::Nas5gMessage{reject});
            return;
          }
          nr::PduSessionEstablishmentAccept accept;
          accept.pdu_session_id = session_id;
          accept.ue_address = info.value().ue_ip;
          accept.fiveqi = info.value().qci;
          accept.ambr_dl_bps = info.value().ambr_dl_bps;
          accept.ambr_ul_bps = info.value().ambr_ul_bps;

          nr::PduSessionResourceSetupRequest setup;
          setup.ran_ue_ngap_id = ue->ran_ue_id;
          setup.amf_ue_ngap_id = ue->amf_ue_id;
          setup.pdu_session_id = session_id;
          setup.agw_teid_ul = info.value().agw_teid_ul;
          setup.agw_address = agw_address_;
          setup.nas_pdu = nr::encode_nas5g(nr::Nas5gMessage{accept});
          ++stats_.pdu_sessions_established;
          send(*ue->conn, nr::NgapMessage{std::move(setup)});
        });
    return;
  }

  if (const auto* dereg = std::get_if<nr::DeregistrationRequest5g>(&nas)) {
    const bool switch_off = dereg->switch_off;
    accessd_.detach(ue.supi, [this, amf_ue_id,
                              switch_off](common::Status status) {
      (void)status;
      UeCtx* ue = find_by_amf_id(amf_ue_id);
      if (ue == nullptr) return;
      ++stats_.deregistrations;
      if (!switch_off) {
        send_nas(*ue, nr::Nas5gMessage{nr::DeregistrationAccept5g{}});
      }
      release_ue(*ue, "deregistration");
    });
    return;
  }
}

}  // namespace magma::agw
