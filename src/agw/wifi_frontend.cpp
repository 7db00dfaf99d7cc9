#include "agw/wifi_frontend.h"

#include "common/log.h"

namespace magma::agw {

namespace wifi = magma::proto::wifi;

WifiFrontend::WifiFrontend(Accessd& accessd) : accessd_(accessd) {}

void WifiFrontend::add_ap_channel(net::Channel& channel) {
  channel.set_receiver([this, &channel](common::Bytes bytes) {
    on_message(channel, std::move(bytes));
  });
}

void WifiFrontend::send(net::Channel& conn, const wifi::RadiusPacket& packet) {
  conn.send(wifi::encode_radius(packet));
}

void WifiFrontend::send_reject(net::Channel& conn, std::uint8_t identifier,
                               const std::string& user) {
  ++stats_.rejects;
  wifi::RadiusPacket reject;
  reject.code = wifi::RadiusCode::kAccessReject;
  reject.identifier = identifier;
  reject.attributes.user_name = user;
  send(conn, reject);
}

void WifiFrontend::on_message(net::Channel& conn, common::Bytes raw) {
  auto packet = wifi::decode_radius(raw);
  if (!packet.ok()) {
    ++stats_.decode_errors;
    return;
  }
  handle(conn, packet.value());
}

void WifiFrontend::handle(net::Channel& conn,
                          const wifi::RadiusPacket& packet) {
  net::Channel* conn_ptr = &conn;

  if (packet.code == wifi::RadiusCode::kAccessRequest) {
    ++stats_.access_requests;
    if (!packet.attributes.user_name.has_value()) {
      ++stats_.decode_errors;
      return;
    }
    const common::Imsi imsi{*packet.attributes.user_name};
    const std::uint8_t id = packet.identifier;

    if (!packet.attributes.chap_password.has_value()) {
      // Phase 1: no credentials yet — issue a CHAP challenge.
      accessd_.begin_attach(
          imsi, RanType::kWifi,
          [this, conn_ptr, id,
           imsi](common::Result<AuthChallenge> challenge) {
            if (!challenge.ok()) {
              send_reject(*conn_ptr, id, imsi.value);
              return;
            }
            wifi::RadiusPacket reply;
            reply.code = wifi::RadiusCode::kAccessChallenge;
            reply.identifier = id;
            reply.attributes.user_name = imsi.value;
            reply.attributes.chap_challenge = common::Bytes(
                challenge.value().rand.begin(), challenge.value().rand.end());
            ++stats_.challenges_sent;
            send(*conn_ptr, reply);
          });
      return;
    }

    // Phase 2: challenge response.
    const common::Bytes& digest = *packet.attributes.chap_password;
    accessd_.verify_auth(
        imsi, digest,
        [this, conn_ptr, id, imsi](common::Result<SecurityKeys> keys) {
          if (!keys.ok()) {
            send_reject(*conn_ptr, id, imsi.value);
            return;
          }
          // WiFi has no separate security-mode leg; establish immediately.
          Accessd::EstablishRequest req;
          req.imsi = imsi;
          accessd_.establish(
              req, [this, conn_ptr, id,
                    imsi](common::Result<SessionInfo> info) {
                if (!info.ok()) {
                  send_reject(*conn_ptr, id, imsi.value);
                  return;
                }
                wifi::RadiusPacket accept;
                accept.code = wifi::RadiusCode::kAccessAccept;
                accept.identifier = id;
                accept.attributes.user_name = imsi.value;
                accept.attributes.framed_ip = info.value().ue_ip;
                ++stats_.accepts;
                send(*conn_ptr, accept);
              });
        });
    return;
  }

  if (packet.code == wifi::RadiusCode::kAccountingRequest) {
    if (!packet.attributes.user_name.has_value() ||
        !packet.attributes.acct_status.has_value()) {
      ++stats_.decode_errors;
      return;
    }
    const common::Imsi imsi{*packet.attributes.user_name};
    const std::uint8_t id = packet.identifier;

    wifi::RadiusPacket response;
    response.code = wifi::RadiusCode::kAccountingResponse;
    response.identifier = id;
    response.attributes.user_name = imsi.value;
    response.attributes.acct_session_id = packet.attributes.acct_session_id;

    switch (*packet.attributes.acct_status) {
      case wifi::AcctStatus::kStart:
        ++stats_.acct_starts;
        send(conn, response);
        break;
      case wifi::AcctStatus::kInterimUpdate:
        ++stats_.acct_interims;
        send(conn, response);
        break;
      case wifi::AcctStatus::kStop:
        accessd_.detach(imsi, [this, conn_ptr,
                               response](common::Status status) {
          (void)status;
          ++stats_.acct_stops;
          send(*conn_ptr, response);
        });
        break;
    }
    return;
  }
}

}  // namespace magma::agw
