#include "agw/lte_frontend.h"

#include "common/log.h"

namespace magma::agw {

namespace lte = magma::proto::lte;

namespace {

// The name S1 Setup Response gives this MME.
constexpr char kMmeName[] = "magma-mme";

lte::EmmCause cause_from_error(const common::Error& error) {
  switch (error.code) {
    case common::ErrorCode::kNotFound:
      return lte::EmmCause::kImsiUnknownInHss;
    case common::ErrorCode::kPermissionDenied:
    case common::ErrorCode::kUnauthenticated:
      return lte::EmmCause::kIllegalUe;
    case common::ErrorCode::kResourceExhausted:
      return lte::EmmCause::kCongestion;
    default:
      return lte::EmmCause::kNetworkFailure;
  }
}

}  // namespace

LteFrontend::LteFrontend(sim::Kernel& kernel, Accessd& accessd,
                         Sessiond& sessiond, common::Ipv4 agw_address)
    : kernel_(kernel),
      accessd_(accessd),
      sessiond_(sessiond),
      agw_address_(agw_address) {}

void LteFrontend::set_observability(obs::Tracer* tracer, std::string node,
                                    obs::EventBuffer* events) {
  tracer_ = tracer;
  node_ = std::move(node);
  events_ = events;
}

void LteFrontend::finish_attach_trace(UeCtx& ue, const char* outcome,
                                      const char* type,
                                      const std::string& detail) {
  if (!ue.trace.valid()) return;
  obs::tag_span(tracer_, ue.trace, "outcome", outcome);
  if (!detail.empty()) obs::tag_span(tracer_, ue.trace, "detail", detail);
  obs::end_span(tracer_, ue.trace);
  if (events_ != nullptr) {
    obs::Event event;
    event.time = kernel_.now();
    event.gateway_id = node_;
    event.type = type;
    event.source = "lte_frontend";
    event.message = ue.imsi.value + (detail.empty() ? "" : ": " + detail);
    event.severity = std::string_view(outcome) == "success"
                         ? obs::EventSeverity::kInfo
                         : obs::EventSeverity::kWarn;
    event.trace = ue.trace;
    events_->push(std::move(event));
  }
  ue.trace = obs::TraceContext{};
}

void LteFrontend::add_enb_channel(net::Channel& channel) {
  channel.set_receiver([this, &channel](common::Bytes bytes) {
    on_message(channel, std::move(bytes));
  });
  conns_.push_back(&channel);
}

void LteFrontend::send(net::Channel& conn, const lte::S1apMessage& msg) {
  conn.send(lte::encode_s1ap(msg));
}

common::Bytes LteFrontend::protect_downlink(UeCtx& ue, common::Bytes pdu) {
  if (!ue.security_active) return pdu;
  return crypto::nas_cipher(ue.k_nas_enc, ue.dl_cipher_count++, true, pdu);
}

void LteFrontend::send_nas(UeCtx& ue, const lte::NasMessage& nas) {
  lte::DownlinkNasTransport transport;
  transport.enb_ue_s1ap_id = ue.enb_ue_id;
  transport.mme_ue_s1ap_id = ue.mme_ue_id;
  transport.nas_pdu = protect_downlink(ue, lte::encode_nas(nas));
  send(*ue.conn, lte::S1apMessage{std::move(transport)});
}

void LteFrontend::reject(UeCtx& ue, lte::EmmCause cause) {
  ++stats_.attach_rejects;
  finish_attach_trace(ue, "reject", "attach_reject",
                      "emm-cause-" + std::to_string(static_cast<int>(cause)));
  send_nas(ue, lte::NasMessage{lte::AttachReject{cause}});
  release_ue(ue, "attach-reject");
}

void LteFrontend::release_ue(UeCtx& ue, const std::string& cause) {
  finish_attach_trace(ue, "abort", "attach_abort", cause);
  if (ue.conn != nullptr) {
    lte::UeContextReleaseCommand release;
    release.enb_ue_s1ap_id = ue.enb_ue_id;
    release.mme_ue_s1ap_id = ue.mme_ue_id;
    release.cause = cause;
    send(*ue.conn, lte::S1apMessage{std::move(release)});
  }
  imsi_to_mme_id_.erase(ue.imsi);
  tmsi_to_mme_id_.erase(ue.m_tmsi);
  ues_.erase(ue.mme_ue_id);  // invalidates `ue`
}

LteFrontend::UeCtx* LteFrontend::find_by_mme_id(std::uint32_t mme_ue_id) {
  auto it = ues_.find(mme_ue_id);
  return it == ues_.end() ? nullptr : &it->second;
}

void LteFrontend::on_message(net::Channel& conn, common::Bytes raw) {
  auto msg = lte::decode_s1ap(raw);
  if (!msg.ok()) {
    ++stats_.decode_errors;
    return;
  }
  handle(conn, std::move(msg).take());
}

void LteFrontend::handle(net::Channel& conn, lte::S1apMessage msg) {
  if (std::holds_alternative<lte::S1SetupRequest>(msg)) {
    ++stats_.s1_setups;
    send(conn, lte::S1apMessage{lte::S1SetupResponse{kMmeName, 255}});
    return;
  }

  if (auto* initial = std::get_if<lte::InitialUeMessage>(&msg)) {
    ++stats_.initial_ue_messages;
    auto nas = lte::decode_nas(initial->nas_pdu);
    if (!nas.ok()) {
      ++stats_.decode_errors;
      return;
    }
    if (const auto* sr = std::get_if<lte::ServiceRequest>(&nas.value())) {
      handle_service_request(conn, initial->enb_ue_s1ap_id, *sr);
      return;
    }
    const auto* attach = std::get_if<lte::AttachRequest>(&nas.value());
    if (attach == nullptr) {
      ++stats_.decode_errors;
      return;
    }

    // A retransmitted InitialUeMessage for an IMSI already mid-attach
    // restarts the procedure (the old context is discarded by accessd).
    // The old attempt's trace closes as an abort, and its M-TMSI goes.
    if (auto it = imsi_to_mme_id_.find(attach->imsi);
        it != imsi_to_mme_id_.end()) {
      UeCtx& old = ues_.at(it->second);
      finish_attach_trace(old, "abort", "attach_abort", "restarted");
      tmsi_to_mme_id_.erase(old.m_tmsi);
      ues_.erase(it->second);
      imsi_to_mme_id_.erase(it);
    }

    const std::uint32_t mme_ue_id = next_mme_ue_id_++;
    UeCtx& ue = ues_[mme_ue_id];
    ue.imsi = attach->imsi;
    ue.conn = &conn;
    ue.enb_ue_id = initial->enb_ue_s1ap_id;
    ue.mme_ue_id = mme_ue_id;
    imsi_to_mme_id_[ue.imsi] = mme_ue_id;

    // Root of the attach trace: one span covering InitialUeMessage through
    // AttachComplete. Every downstream stage (accessd, mobilityd, sessiond,
    // pipelined, and RPC hops to the orchestrator) parents under it.
    ue.trace = obs::begin_span(tracer_, "attach", "lte_frontend", node_);
    obs::tag_span(tracer_, ue.trace, "imsi", ue.imsi.value);
    const obs::Tracer::Scope scope(tracer_, ue.trace);

    accessd_.begin_attach(
        ue.imsi, RanType::kLte,
        [this, mme_ue_id](common::Result<AuthChallenge> challenge) {
          UeCtx* ue = find_by_mme_id(mme_ue_id);
          if (ue == nullptr) return;  // released meanwhile
          if (!challenge.ok()) {
            reject(*ue, cause_from_error(challenge.error()));
            return;
          }
          lte::AuthenticationRequest auth;
          auth.rand = challenge.value().rand;
          auth.autn = challenge.value().autn;
          ++stats_.auth_requests_sent;
          send_nas(*ue, lte::NasMessage{auth});
          ue->awaiting_ue_since = kernel_.now();
        });
    return;
  }

  if (auto* uplink = std::get_if<lte::UplinkNasTransport>(&msg)) {
    UeCtx* ue = find_by_mme_id(uplink->mme_ue_s1ap_id);
    if (ue == nullptr) return;
    common::Bytes pdu = std::move(uplink->nas_pdu);
    if (ue->security_active) {
      pdu = crypto::nas_cipher(ue->k_nas_enc, ue->ul_cipher_count++, false,
                               pdu);
    }
    auto nas = lte::decode_nas(pdu);
    if (!nas.ok()) {
      ++stats_.decode_errors;
      return;
    }
    handle_nas(*ue, nas.value());
    return;
  }

  if (auto* response = std::get_if<lte::InitialContextSetupResponse>(&msg)) {
    UeCtx* ue = find_by_mme_id(response->mme_ue_s1ap_id);
    if (ue == nullptr) return;
    // The ModifyBearer step: the eNodeB's downlink GTP endpoint is now
    // known; point the data plane at it.
    sessiond_.update_bearer(ue->imsi, response->enb_teid_dl,
                            response->enb_address)
        .ok();
    return;
  }

  if (auto* complete = std::get_if<lte::UeContextReleaseComplete>(&msg)) {
    (void)complete;  // context already erased (or kept, for idle)
    return;
  }

  if (auto* request = std::get_if<lte::UeContextReleaseRequest>(&msg)) {
    // UE inactivity: move to ECM-IDLE. The EMM context and the session
    // survive; the radio association and downlink tunnel go away.
    UeCtx* ue = find_by_mme_id(request->mme_ue_s1ap_id);
    if (ue == nullptr) return;
    ++stats_.idle_transitions;
    lte::UeContextReleaseCommand command;
    command.enb_ue_s1ap_id = ue->enb_ue_id;
    command.mme_ue_s1ap_id = ue->mme_ue_id;
    command.cause = "idle";
    send(conn, lte::S1apMessage{std::move(command)});
    ue->conn = nullptr;
    ue->enb_ue_id = 0;
    ue->idle = true;
    sessiond_.set_idle(ue->imsi, true).ok();
    return;
  }

  if (auto* path_switch = std::get_if<lte::PathSwitchRequest>(&msg)) {
    // Intra-AGW handover: the target eNodeB owns the UE now; repoint the
    // downlink tunnel (§3.2: mobility across radios served by one AGW).
    UeCtx* ue = find_by_mme_id(path_switch->mme_ue_s1ap_id);
    if (ue == nullptr) return;
    ue->conn = &conn;
    ue->enb_ue_id = path_switch->enb_ue_s1ap_id;
    sessiond_.update_bearer(ue->imsi, path_switch->enb_teid_dl,
                            path_switch->enb_address)
        .ok();
    ++stats_.path_switches;
    lte::PathSwitchRequestAcknowledge ack;
    ack.enb_ue_s1ap_id = ue->enb_ue_id;
    ack.mme_ue_s1ap_id = ue->mme_ue_id;
    send(conn, lte::S1apMessage{std::move(ack)});
    return;
  }
  // Remaining message types are MME→eNodeB only; ignore.
}

void LteFrontend::page(const common::Imsi& imsi) {
  auto mme_it = imsi_to_mme_id_.find(imsi);
  if (mme_it == imsi_to_mme_id_.end()) return;
  UeCtx* ue = find_by_mme_id(mme_it->second);
  if (ue == nullptr || !ue->idle) return;
  // Rate limit: at most one page per IMSI per second (paging storms from a
  // stream of downlink packets would swamp the paging channel).
  auto last = last_page_.find(imsi);
  if (last != last_page_.end() &&
      kernel_.now() - last->second < sim::kSecond) {
    return;
  }
  last_page_[imsi] = kernel_.now();
  ++stats_.pages_sent;
  for (net::Channel* conn : conns_) {
    send(*conn, lte::S1apMessage{lte::PagingMessage{imsi}});
  }
}

void LteFrontend::handle_service_request(net::Channel& conn,
                                         std::uint32_t enb_ue_id,
                                         const lte::ServiceRequest& sr) {
  auto tmsi_it = tmsi_to_mme_id_.find(sr.m_tmsi);
  if (tmsi_it == tmsi_to_mme_id_.end()) {
    ++stats_.decode_errors;
    return;
  }
  UeCtx* ue = find_by_mme_id(tmsi_it->second);
  if (ue == nullptr || !ue->idle) return;

  const std::uint32_t expected =
      lte::nas_mac(ue->k_nas_int, ue->ul_count, lte::NasMessage{sr});
  if (expected != sr.mac) {
    // An unauthentic ServiceRequest must not hijack the context.
    ++stats_.bad_mac;
    lte::DownlinkNasTransport reject;
    reject.enb_ue_s1ap_id = enb_ue_id;
    reject.mme_ue_s1ap_id = ue->mme_ue_id;
    reject.nas_pdu = lte::encode_nas(
        lte::NasMessage{lte::ServiceReject{lte::EmmCause::kIllegalUe}});
    send(conn, lte::S1apMessage{std::move(reject)});
    return;
  }
  ++ue->ul_count;
  ++stats_.service_requests;

  // Re-associate and rebuild the radio-side bearer.
  ue->conn = &conn;
  ue->enb_ue_id = enb_ue_id;
  ue->idle = false;

  const SessionRecord* session = sessiond_.find(ue->imsi);
  if (session == nullptr) {
    // Session vanished while idle (e.g. operator action): tell the UE to
    // re-attach from scratch.
    lte::DownlinkNasTransport reject;
    reject.enb_ue_s1ap_id = enb_ue_id;
    reject.mme_ue_s1ap_id = ue->mme_ue_id;
    // Protected: the genuine UE's NAS security is active and it will
    // decipher whatever arrives.
    reject.nas_pdu = protect_downlink(
        *ue, lte::encode_nas(lte::NasMessage{
                 lte::ServiceReject{lte::EmmCause::kNetworkFailure}}));
    send(conn, lte::S1apMessage{std::move(reject)});
    release_ue(*ue, "no-session");
    return;
  }

  lte::ServiceAccept accept;
  accept.mac =
      lte::nas_mac(ue->k_nas_int, ue->dl_count, lte::NasMessage{accept});
  ++ue->dl_count;
  ++stats_.service_accepts;

  lte::InitialContextSetupRequest ics;
  ics.enb_ue_s1ap_id = ue->enb_ue_id;
  ics.mme_ue_s1ap_id = ue->mme_ue_id;
  ics.agw_teid_ul = session->flows.agw_teid_ul;
  ics.agw_address = agw_address_;
  ics.kenb = crypto::derive_k_enb(ue->kasme, ue->ul_count);
  ics.nas_pdu =
      protect_downlink(*ue, lte::encode_nas(lte::NasMessage{accept}));
  send(conn, lte::S1apMessage{std::move(ics)});
}

void LteFrontend::handle_nas(UeCtx& ue, const lte::NasMessage& nas) {
  const std::uint32_t mme_ue_id = ue.mme_ue_id;
  // Re-enter the attach trace for whatever stage this uplink NAS message
  // advances (invalid outside an attach — harmless).
  const obs::Tracer::Scope scope(tracer_, ue.trace);

  // The time since the last downlink that awaited a UE answer is radio-leg
  // round trip: charge it to the attach root as link transit so the root's
  // wait vector tiles with the stage spans (DESIGN.md §7).
  if (ue.awaiting_ue_since >= 0) {
    obs::add_span_wait(tracer_, ue.trace, obs::WaitState::kLinkTransit,
                       kernel_.now() - ue.awaiting_ue_since);
    ue.awaiting_ue_since = -1;
  }

  if (const auto* auth = std::get_if<lte::AuthenticationResponse>(&nas)) {
    accessd_.verify_auth(
        ue.imsi, common::BytesView(auth->res.data(), auth->res.size()),
        [this, mme_ue_id](common::Result<SecurityKeys> keys) {
          UeCtx* ue = find_by_mme_id(mme_ue_id);
          if (ue == nullptr) return;
          if (!keys.ok()) {
            reject(*ue, cause_from_error(keys.error()));
            return;
          }
          ue->kasme = keys.value().kasme;
          ue->k_nas_int =
              crypto::derive_k_nas_int(ue->kasme, crypto::NasAlgorithm::kEia2);
          ue->k_nas_enc =
              crypto::derive_k_nas_enc(ue->kasme, crypto::NasAlgorithm::kEea2);
          lte::SecurityModeCommand smc;
          smc.mac =
              lte::nas_mac(ue->k_nas_int, ue->dl_count, lte::NasMessage{smc});
          ++ue->dl_count;
          ++stats_.smc_sent;
          send_nas(*ue, lte::NasMessage{smc});
          ue->awaiting_ue_since = kernel_.now();
        });
    return;
  }

  if (const auto* failure = std::get_if<lte::AuthenticationFailure>(&nas)) {
    if (failure->cause != lte::EmmCause::kSynchFailure) {
      release_ue(ue, "auth-failure");
      return;
    }
    ++stats_.auth_resyncs;
    accessd_.resync_auth(
        ue.imsi, failure->auts,
        [this, mme_ue_id](common::Result<AuthChallenge> challenge) {
          UeCtx* ue = find_by_mme_id(mme_ue_id);
          if (ue == nullptr) return;
          if (!challenge.ok()) {
            reject(*ue, cause_from_error(challenge.error()));
            return;
          }
          lte::AuthenticationRequest auth;
          auth.rand = challenge.value().rand;
          auth.autn = challenge.value().autn;
          ++stats_.auth_requests_sent;
          send_nas(*ue, lte::NasMessage{auth});
          ue->awaiting_ue_since = kernel_.now();
        });
    return;
  }

  if (const auto* smc = std::get_if<lte::SecurityModeComplete>(&nas)) {
    const std::uint32_t expected =
        lte::nas_mac(ue.k_nas_int, ue.ul_count, lte::NasMessage{*smc});
    if (expected != smc->mac) {
      ++stats_.bad_mac;
      reject(ue, lte::EmmCause::kSecurityModeRejected);
      return;
    }
    ++ue.ul_count;
    ue.security_active = true;

    Accessd::EstablishRequest req;
    req.imsi = ue.imsi;
    // The eNodeB's downlink TEID arrives later, in
    // InitialContextSetupResponse.
    req.enb_teid_dl = common::Teid{0};
    req.enb_address = common::Ipv4{0};
    accessd_.establish(
        req, [this, mme_ue_id](common::Result<SessionInfo> info) {
          UeCtx* ue = find_by_mme_id(mme_ue_id);
          if (ue == nullptr) return;
          if (!info.ok()) {
            reject(*ue, cause_from_error(info.error()));
            return;
          }
          ue->m_tmsi = next_m_tmsi_++;
          tmsi_to_mme_id_[ue->m_tmsi] = ue->mme_ue_id;

          lte::AttachAccept accept;
          accept.m_tmsi = ue->m_tmsi;
          accept.bearer.ebi = 5;
          accept.bearer.apn = "internet";
          accept.bearer.pdn_address = info.value().ue_ip;
          accept.bearer.qci = info.value().qci;
          accept.bearer.ambr_dl_bps = info.value().ambr_dl_bps;
          accept.bearer.ambr_ul_bps = info.value().ambr_ul_bps;
          accept.mac = lte::nas_mac(ue->k_nas_int, ue->dl_count,
                                    lte::NasMessage{accept});
          ++ue->dl_count;

          lte::InitialContextSetupRequest ics;
          ics.enb_ue_s1ap_id = ue->enb_ue_id;
          ics.mme_ue_s1ap_id = ue->mme_ue_id;
          ics.agw_teid_ul = info.value().agw_teid_ul;
          ics.agw_address = agw_address_;
          ics.kenb = crypto::derive_k_enb(ue->kasme, ue->ul_count);
          ics.nas_pdu =
              protect_downlink(*ue, lte::encode_nas(lte::NasMessage{accept}));
          ++stats_.attach_accepts;
          send(*ue->conn, lte::S1apMessage{std::move(ics)});
          ue->awaiting_ue_since = kernel_.now();
        });
    return;
  }

  if (const auto* complete = std::get_if<lte::AttachComplete>(&nas)) {
    const std::uint32_t expected =
        lte::nas_mac(ue.k_nas_int, ue.ul_count, lte::NasMessage{*complete});
    if (expected != complete->mac) {
      ++stats_.bad_mac;
      return;
    }
    ++ue.ul_count;
    ++stats_.attach_completes;
    finish_attach_trace(ue, "success", "attach_success", "");
    return;
  }

  if (const auto* detach = std::get_if<lte::DetachRequest>(&nas)) {
    const bool switch_off = detach->switch_off;
    accessd_.detach(ue.imsi, [this, mme_ue_id,
                              switch_off](common::Status status) {
      (void)status;  // best effort: the UE is leaving either way
      UeCtx* ue = find_by_mme_id(mme_ue_id);
      if (ue == nullptr) return;
      ++stats_.detaches;
      if (!switch_off) {
        send_nas(*ue, lte::NasMessage{lte::DetachAccept{}});
      }
      release_ue(*ue, "detach");
    });
    return;
  }
}

}  // namespace magma::agw
