#include "ran/ue.h"

#include <cstring>

#include "agw/subscriberdb.h"  // sqn_to_bytes / sqn_from_bytes helpers

namespace magma::ran {

namespace lte = magma::proto::lte;
namespace nr = magma::proto::nr5g;

// ---------------------------------------------------------------------------
// USIM
// ---------------------------------------------------------------------------

Usim::Usim(common::Imsi imsi, crypto::Key128 k, crypto::Key128 opc)
    : imsi_(std::move(imsi)), milenage_(crypto::Milenage::from_opc(k, opc)) {}

UsimOutcome Usim::authenticate(const std::array<std::uint8_t, 16>& rand,
                               const std::array<std::uint8_t, 16>& autn) {
  // AUTN = (SQN xor AK) || AMF || MAC-A.
  std::array<std::uint8_t, 6> sqn_xor_ak;
  std::memcpy(sqn_xor_ak.data(), autn.data(), 6);
  std::array<std::uint8_t, 2> amf;
  std::memcpy(amf.data(), autn.data() + 6, 2);

  // Recover SQN: AK depends only on RAND.
  const crypto::MilenageOutput probe =
      milenage_.compute(rand, agw::sqn_to_bytes(0), amf);
  std::array<std::uint8_t, 6> sqn_bytes;
  for (int i = 0; i < 6; ++i) {
    sqn_bytes[static_cast<std::size_t>(i)] =
        sqn_xor_ak[static_cast<std::size_t>(i)] ^
        probe.ak[static_cast<std::size_t>(i)];
  }
  const std::uint64_t sqn = agw::sqn_from_bytes(sqn_bytes);

  // Verify MAC-A with the recovered SQN.
  const crypto::MilenageOutput out = milenage_.compute(rand, sqn_bytes, amf);
  if (!common::constant_time_equal(
          common::BytesView(autn.data() + 8, 8),
          common::BytesView(out.mac_a.data(), 8))) {
    return UsimMacFailure{};
  }

  // SQN freshness (simplified window: strictly increasing).
  if (sqn <= sqn_ms_) {
    // Build AUTS = (SQNms xor AK*) || MAC-S with AMF* = 0.
    const auto sqn_ms_bytes = agw::sqn_to_bytes(sqn_ms_);
    const crypto::MilenageOutput resync =
        milenage_.compute(rand, sqn_ms_bytes, {0x00, 0x00});
    UsimSyncFailure failure;
    for (int i = 0; i < 6; ++i) {
      failure.auts[static_cast<std::size_t>(i)] =
          sqn_ms_bytes[static_cast<std::size_t>(i)] ^
          resync.ak_s[static_cast<std::size_t>(i)];
    }
    std::memcpy(failure.auts.data() + 6, resync.mac_s.data(), 8);
    return failure;
  }
  sqn_ms_ = sqn;

  UsimAuthSuccess success;
  std::memcpy(success.res.data(), out.res.data(), 8);
  success.kasme = crypto::derive_kasme(out.ck, out.ik, sn_, sqn_xor_ak);
  return success;
}

// ---------------------------------------------------------------------------
// Shared by all three UE models
// ---------------------------------------------------------------------------

void Ue::begin_attach(AttachCallback done) {
  // A new attempt replaces a pending one, whose guard must not fire on it.
  kernel_.cancel(guard_timer_);
  attach_cb_ = std::move(done);
  attach_started_ = kernel_.now();
}

void Ue::report(bool success, std::string failure_reason) {
  kernel_.cancel(guard_timer_);
  if (!attach_cb_) return;
  AttachOutcome outcome;
  outcome.success = success;
  outcome.latency = kernel_.now() - attach_started_;
  outcome.failure_reason = std::move(failure_reason);
  auto cb = std::move(attach_cb_);
  attach_cb_ = nullptr;
  cb(outcome);
}

datapath::PacketBatch Ue::uplink_batch(common::Ipv4 dst, std::uint16_t dport,
                                       std::uint32_t packet_bytes,
                                       std::uint64_t packet_count) {
  datapath::PacketBatch batch;
  batch.packet = datapath::make_udp(*ip_, dst, 40000, dport, packet_bytes);
  batch.count = packet_count;
  traffic_.tx_bytes += batch.bytes();
  return batch;
}

void Ue::count_downlink(const datapath::PacketBatch& batch) {
  traffic_.rx_bytes += batch.bytes();
  traffic_.rx_packets += batch.count;
}

// ---------------------------------------------------------------------------
// LTE UE
// ---------------------------------------------------------------------------

// T3410: an attach the network has not completed by then fails.
constexpr sim::Duration kLteAttachGuard =
    lte::EmmTimers::kT3410_ms * sim::kMillisecond;

UeLte::UeLte(sim::Kernel& kernel, Usim usim)
    : Ue(kernel), usim_(std::move(usim)) {}

void UeLte::send_nas(const lte::NasMessage& msg) {
  if (enb_ == nullptr || enb_ue_id_ == 0) return;
  common::Bytes pdu = lte::encode_nas(msg);
  if (security_active_) {
    pdu = crypto::nas_cipher(k_nas_enc_, ul_cipher_count_++, false, pdu);
  }
  enb_->send_uplink_nas(enb_ue_id_, std::move(pdu));
}

void UeLte::fail(const std::string& reason) {
  fsm_.handle(lte::EmmEvent::kImplicitDetach);
  if (enb_ != nullptr && enb_ue_id_ != 0) enb_->rrc_disconnect(enb_ue_id_);
  enb_ue_id_ = 0;
  report(false, reason);
}

void UeLte::attach(EnodeB& enb, AttachCallback done) {
  // attach() models a power-cycled UE: any previous radio connection and
  // security context are discarded and the procedure starts fresh.
  if (enb_ != nullptr && enb_ue_id_ != 0) enb_->rrc_disconnect(enb_ue_id_);
  fsm_ = proto::lte::EmmFsm{};
  enb_ = &enb;
  begin_attach(std::move(done));
  dl_count_ = 0;
  ul_count_ = 0;
  dl_cipher_count_ = 0;
  ul_cipher_count_ = 0;
  security_active_ = false;
  idle_ = false;
  expecting_idle_release_ = false;
  ip_.reset();

  enb_ue_id_ = enb.rrc_connect(this);
  if (enb_ue_id_ == 0) {
    fail("rrc-capacity");
    return;
  }
  if (!fsm_.handle(lte::EmmEvent::kAttachRequested)) {
    fail("bad-state");
    return;
  }
  guard_timer_ =
      kernel_.schedule(kLteAttachGuard, [this]() { fail("t3410-expired"); });

  lte::AttachRequest request;
  request.imsi = usim_.imsi();
  enb_->send_initial_nas(enb_ue_id_, lte::encode_nas(lte::NasMessage{request}));
}

void UeLte::on_downlink_nas(common::Bytes nas_pdu) {
  if (security_active_) {
    nas_pdu =
        crypto::nas_cipher(k_nas_enc_, dl_cipher_count_++, true, nas_pdu);
  }
  auto decoded = lte::decode_nas(nas_pdu);
  if (!decoded.ok()) return;
  const lte::NasMessage& msg = decoded.value();

  if (const auto* auth = std::get_if<lte::AuthenticationRequest>(&msg)) {
    const UsimOutcome outcome = usim_.authenticate(auth->rand, auth->autn);
    if (const auto* success = std::get_if<UsimAuthSuccess>(&outcome)) {
      kasme_ = success->kasme;
      lte::AuthenticationResponse response;
      response.res = success->res;
      send_nas(lte::NasMessage{response});
      return;
    }
    if (const auto* resync = std::get_if<UsimSyncFailure>(&outcome)) {
      lte::AuthenticationFailure failure;
      failure.cause = lte::EmmCause::kSynchFailure;
      failure.auts = resync->auts;
      send_nas(lte::NasMessage{failure});
      return;
    }
    // MAC failure: the network is not who it claims to be. Abort.
    fail("autn-mac-failure");
    return;
  }

  if (const auto* smc = std::get_if<lte::SecurityModeCommand>(&msg)) {
    fsm_.handle(lte::EmmEvent::kAuthSucceeded);
    k_nas_int_ = crypto::derive_k_nas_int(kasme_, crypto::NasAlgorithm::kEia2);
    const std::uint32_t expected =
        lte::nas_mac(k_nas_int_, dl_count_, lte::NasMessage{*smc});
    if (expected != smc->mac) {
      fail("smc-mac-failure");
      return;
    }
    ++dl_count_;
    fsm_.handle(lte::EmmEvent::kSecurityEstablished);

    lte::SecurityModeComplete complete;
    complete.mac =
        lte::nas_mac(k_nas_int_, ul_count_, lte::NasMessage{complete});
    ++ul_count_;
    send_nas(lte::NasMessage{complete});
    // Ciphering engages for everything after the SecurityModeComplete.
    k_nas_enc_ = crypto::derive_k_nas_enc(kasme_, crypto::NasAlgorithm::kEea2);
    security_active_ = true;
    return;
  }

  if (const auto* accept = std::get_if<lte::AttachAccept>(&msg)) {
    const std::uint32_t expected =
        lte::nas_mac(k_nas_int_, dl_count_, lte::NasMessage{*accept});
    if (expected != accept->mac) {
      fail("accept-mac-failure");
      return;
    }
    ++dl_count_;
    m_tmsi_ = accept->m_tmsi;
    ip_ = accept->bearer.pdn_address;
    fsm_.handle(lte::EmmEvent::kContextEstablished);

    lte::AttachComplete complete;
    complete.mac =
        lte::nas_mac(k_nas_int_, ul_count_, lte::NasMessage{complete});
    ++ul_count_;
    send_nas(lte::NasMessage{complete});
    report(true);
    return;
  }

  if (const auto* reject = std::get_if<lte::AttachReject>(&msg)) {
    fail("attach-reject-cause-" +
         std::to_string(static_cast<int>(reject->cause)));
    return;
  }

  if (std::get_if<lte::DetachAccept>(&msg) != nullptr) {
    fsm_.handle(lte::EmmEvent::kDetachComplete);
    return;
  }

  if (const auto* accept = std::get_if<lte::ServiceAccept>(&msg)) {
    const std::uint32_t expected =
        lte::nas_mac(k_nas_int_, dl_count_, lte::NasMessage{*accept});
    if (expected != accept->mac) return;  // forged; stay idle
    ++dl_count_;
    idle_ = false;
    if (enb_ != nullptr) enb_->uncamp(usim_.imsi());
    return;
  }

  if (std::get_if<lte::ServiceReject>(&msg) != nullptr) {
    // Context lost at the network: fall back to a full re-attach next time.
    idle_ = false;
    ip_.reset();
    fsm_ = lte::EmmFsm{};
    if (enb_ != nullptr) {
      enb_->uncamp(usim_.imsi());
      if (enb_ue_id_ != 0) enb_->rrc_disconnect(enb_ue_id_);
      enb_ue_id_ = 0;
    }
    return;
  }
}

void UeLte::detach(bool switch_off) {
  if (!registered()) return;
  fsm_.handle(lte::EmmEvent::kDetachRequested);
  lte::DetachRequest request;
  request.switch_off = switch_off;
  send_nas(lte::NasMessage{request});
  if (switch_off) {
    fsm_.handle(lte::EmmEvent::kImplicitDetach);
  }
}

void UeLte::send_uplink(common::Ipv4 dst, std::uint16_t dport,
                        std::uint32_t packet_bytes,
                        std::uint64_t packet_count) {
  if (!ip_.has_value() || enb_ == nullptr || enb_ue_id_ == 0) return;
  enb_->uplink_data(enb_ue_id_,
                    uplink_batch(dst, dport, packet_bytes, packet_count));
}

void UeLte::on_rrc_release() {
  enb_ue_id_ = 0;
  if (expecting_idle_release_) {
    // Voluntary ECM-IDLE: EMM registration and the session view survive.
    expecting_idle_release_ = false;
    idle_ = true;
    return;
  }
  if (fsm_.state() != lte::EmmState::kDeregistered) {
    fsm_.handle(lte::EmmEvent::kImplicitDetach);
  }
  ip_.reset();
}

void UeLte::enter_idle() {
  if (!registered() || idle_ || enb_ == nullptr || enb_ue_id_ == 0) return;
  expecting_idle_release_ = true;
  enb_->camp(usim_.imsi(), this);
  enb_->request_idle_release(enb_ue_id_);
}

void UeLte::service_request() {
  if (!idle_ || enb_ == nullptr) return;
  enb_ue_id_ = enb_->rrc_connect(this);
  if (enb_ue_id_ == 0) return;  // cell full; stay idle, retry on next page
  lte::ServiceRequest request;
  request.m_tmsi = m_tmsi_;
  request.mac = lte::nas_mac(k_nas_int_, ul_count_, lte::NasMessage{request});
  ++ul_count_;
  enb_->send_initial_nas(enb_ue_id_, lte::encode_nas(lte::NasMessage{request}));
}

void UeLte::on_paging() {
  if (!idle_) return;
  ++pages_received_;
  service_request();
}

bool UeLte::handover_to(EnodeB& target) {
  if (!registered() || idle_ || enb_ == nullptr || enb_ue_id_ == 0) {
    return false;
  }
  if (&target == enb_) return true;
  return enb_->start_handover(enb_ue_id_, target);
}

void UeLte::on_handover_complete(EnodeB& target,
                                 std::uint32_t new_enb_ue_id) {
  enb_ = &target;
  enb_ue_id_ = new_enb_ue_id;
}

// ---------------------------------------------------------------------------
// 5G UE
// ---------------------------------------------------------------------------

// T3510's role for the whole bring-up, registration through PDU session.
constexpr sim::Duration kNrAttachGuard = 15 * sim::kSecond;

UeNr::UeNr(sim::Kernel& kernel, Usim usim)
    : Ue(kernel), usim_(std::move(usim)) {}

void UeNr::send_nas(const nr::Nas5gMessage& msg) {
  if (gnb_ == nullptr || ran_ue_id_ == 0) return;
  gnb_->send_uplink_nas(ran_ue_id_, nr::encode_nas5g(msg));
}

void UeNr::fail(const std::string& reason) {
  if (gnb_ != nullptr && ran_ue_id_ != 0) gnb_->rrc_disconnect(ran_ue_id_);
  ran_ue_id_ = 0;
  registered_ = false;
  report(false, reason);
}

void UeNr::attach(Gnb& gnb, AttachCallback done) {
  if (gnb_ != nullptr && ran_ue_id_ != 0) gnb_->rrc_disconnect(ran_ue_id_);
  registered_ = false;
  gnb_ = &gnb;
  begin_attach(std::move(done));
  dl_count_ = 0;
  ul_count_ = 0;
  ip_.reset();

  ran_ue_id_ = gnb.rrc_connect(this);
  if (ran_ue_id_ == 0) {
    fail("rrc-capacity");
    return;
  }
  guard_timer_ =
      kernel_.schedule(kNrAttachGuard, [this]() { fail("t3510-expired"); });

  nr::RegistrationRequest request;
  request.supi = usim_.imsi();
  gnb_->send_initial_nas(ran_ue_id_,
                         nr::encode_nas5g(nr::Nas5gMessage{request}));
}

void UeNr::on_downlink_nas(common::Bytes nas_pdu) {
  auto decoded = nr::decode_nas5g(nas_pdu);
  if (!decoded.ok()) return;
  const nr::Nas5gMessage& msg = decoded.value();

  if (const auto* auth = std::get_if<nr::AuthenticationRequest5g>(&msg)) {
    const UsimOutcome outcome = usim_.authenticate(auth->rand, auth->autn);
    if (const auto* success = std::get_if<UsimAuthSuccess>(&outcome)) {
      kasme_ = success->kasme;
      nr::AuthenticationResponse5g response;
      // RES* carries RES in its first half in our simplified hierarchy.
      std::memcpy(response.res_star.data(), success->res.data(), 8);
      send_nas(nr::Nas5gMessage{response});
      return;
    }
    fail("5g-auth-failure");
    return;
  }

  if (const auto* smc = std::get_if<nr::SecurityModeCommand5g>(&msg)) {
    k_nas_int_ = crypto::derive_k_nas_int(kasme_, crypto::NasAlgorithm::kEia2);
    const std::uint32_t expected =
        nr::nas_mac(k_nas_int_, dl_count_, nr::Nas5gMessage{*smc});
    if (expected != smc->mac) {
      fail("smc-mac-failure");
      return;
    }
    ++dl_count_;
    nr::SecurityModeComplete5g complete;
    complete.mac =
        nr::nas_mac(k_nas_int_, ul_count_, nr::Nas5gMessage{complete});
    ++ul_count_;
    send_nas(nr::Nas5gMessage{complete});
    return;
  }

  if (const auto* accept = std::get_if<nr::RegistrationAccept>(&msg)) {
    const std::uint32_t expected =
        nr::nas_mac(k_nas_int_, dl_count_, nr::Nas5gMessage{*accept});
    if (expected != accept->mac) {
      fail("accept-mac-failure");
      return;
    }
    ++dl_count_;
    registered_ = true;

    nr::RegistrationComplete complete;
    complete.mac =
        nr::nas_mac(k_nas_int_, ul_count_, nr::Nas5gMessage{complete});
    ++ul_count_;
    send_nas(nr::Nas5gMessage{complete});

    // Registration done; now request the user-plane PDU session (the 5G
    // two-step of Figure 1).
    nr::PduSessionEstablishmentRequest pdu;
    send_nas(nr::Nas5gMessage{pdu});
    return;
  }

  if (const auto* reject = std::get_if<nr::RegistrationReject>(&msg)) {
    fail("registration-reject-cause-" +
         std::to_string(static_cast<int>(reject->cause)));
    return;
  }

  if (const auto* accept =
          std::get_if<nr::PduSessionEstablishmentAccept>(&msg)) {
    ip_ = accept->ue_address;
    report(true);
    return;
  }

  if (std::get_if<nr::PduSessionEstablishmentReject>(&msg) != nullptr) {
    fail("pdu-session-reject");
    return;
  }

  if (std::get_if<nr::DeregistrationAccept5g>(&msg) != nullptr) {
    registered_ = false;
    ip_.reset();
    return;
  }
}

void UeNr::detach(bool switch_off) {
  if (!registered_) return;
  nr::DeregistrationRequest5g request;
  request.switch_off = switch_off;
  send_nas(nr::Nas5gMessage{request});
  if (switch_off) {
    registered_ = false;
    ip_.reset();
  }
}

void UeNr::send_uplink(common::Ipv4 dst, std::uint16_t dport,
                       std::uint32_t packet_bytes,
                       std::uint64_t packet_count) {
  if (!ip_.has_value() || gnb_ == nullptr || ran_ue_id_ == 0) return;
  gnb_->uplink_data(ran_ue_id_,
                    uplink_batch(dst, dport, packet_bytes, packet_count));
}

void UeNr::on_rrc_release() {
  ran_ue_id_ = 0;
  registered_ = false;
  ip_.reset();
}

// ---------------------------------------------------------------------------
// WiFi client
// ---------------------------------------------------------------------------

WifiClient::WifiClient(sim::Kernel& kernel, common::Imsi user,
                       std::string password)
    : Ue(kernel), user_(std::move(user)), password_(std::move(password)) {}

void WifiClient::connect(WifiAp& ap, AttachCallback done) {
  ap_ = &ap;
  begin_attach(std::move(done));
  ap.associate(this, user_, password_);
}

void WifiClient::disconnect() {
  if (ap_ != nullptr) ap_->disassociate(user_);
  ip_.reset();
}

void WifiClient::on_association_result(common::Result<common::Ipv4> ip) {
  if (!ip.ok()) {
    report(false, ip.error().to_string());
    return;
  }
  ip_ = ip.value();
  report(true);
}

void WifiClient::send_uplink(common::Ipv4 dst, std::uint16_t dport,
                             std::uint32_t packet_bytes,
                             std::uint64_t packet_count) {
  if (!ip_.has_value() || ap_ == nullptr) return;
  ap_->uplink_data(user_, uplink_batch(dst, dport, packet_bytes, packet_count));
}

}  // namespace magma::ran
