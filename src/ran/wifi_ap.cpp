#include "ran/wifi_ap.h"

#include <cstring>

namespace magma::ran {

namespace wifi = magma::proto::wifi;

WifiAp::WifiAp(sim::Kernel& kernel, WifiApConfig config,
               net::Channel& radius_channel)
    : config_(config),
      radius_(radius_channel),
      radio_(kernel, config.dl_capacity_bps, config.ul_capacity_bps, stats_) {
  radius_.set_receiver([this](common::Bytes raw) { on_radius(std::move(raw)); });
}

void WifiAp::send_radius(const wifi::RadiusPacket& packet) {
  radius_.send(wifi::encode_radius(packet));
}

void WifiAp::associate(WifiClientLink* client, const common::Imsi& user,
                       const std::string& password) {
  if (static_cast<int>(clients_.size()) >= config_.max_clients) {
    ++stats_.association_failures;
    client->on_association_result(common::Error{
        common::ErrorCode::kResourceExhausted, "AP at client capacity"});
    return;
  }
  ClientEntry& entry = clients_[user];
  entry.client = client;
  entry.password = password;
  entry.associated = false;

  wifi::RadiusPacket request;
  request.code = wifi::RadiusCode::kAccessRequest;
  request.identifier = next_identifier_++;
  request.attributes.user_name = user.value;
  request.attributes.calling_station_id = "02:00:00:00:00:01";
  send_radius(request);
}

void WifiAp::disassociate(const common::Imsi& user) {
  auto it = clients_.find(user);
  if (it == clients_.end()) return;
  if (it->second.associated) {
    send_accounting(user, wifi::AcctStatus::kStop);
    client_by_ip_.erase(it->second.ip);
  }
  clients_.erase(it);
}

void WifiAp::send_accounting(const common::Imsi& user,
                             wifi::AcctStatus status) {
  auto it = clients_.find(user);
  if (it == clients_.end()) return;
  wifi::RadiusPacket acct;
  acct.code = wifi::RadiusCode::kAccountingRequest;
  acct.identifier = next_identifier_++;
  acct.attributes.user_name = user.value;
  acct.attributes.acct_status = status;
  acct.attributes.acct_session_id = config_.name + "/" + user.value;
  acct.attributes.acct_input_octets =
      static_cast<std::uint32_t>(it->second.tx_octets);
  acct.attributes.acct_output_octets =
      static_cast<std::uint32_t>(it->second.rx_octets);
  send_radius(acct);
}

void WifiAp::uplink_data(const common::Imsi& user,
                         datapath::PacketBatch batch) {
  auto it = clients_.find(user);
  if (it == clients_.end() || !it->second.associated || !uplink_sink_) return;
  if (!radio_.uplink(batch.bytes())) return;
  it->second.tx_octets += batch.bytes();
  uplink_sink_(std::move(batch));
}

void WifiAp::deliver_downlink(datapath::PacketBatch batch) {
  auto ip_it = client_by_ip_.find(batch.packet.ip.dst);
  if (ip_it == client_by_ip_.end()) return;
  auto it = clients_.find(ip_it->second);
  if (it == clients_.end() || it->second.client == nullptr) return;
  if (!radio_.downlink(batch.bytes())) return;
  it->second.rx_octets += batch.bytes();
  radio_.delivered(batch.bytes());
  it->second.client->on_downlink_data(batch);
}

void WifiAp::on_radius(common::Bytes raw) {
  auto decoded = wifi::decode_radius(raw);
  if (!decoded.ok()) return;
  const wifi::RadiusPacket& packet = decoded.value();
  if (!packet.attributes.user_name.has_value()) return;
  const common::Imsi user{*packet.attributes.user_name};
  auto it = clients_.find(user);
  if (it == clients_.end()) return;
  ClientEntry& entry = it->second;

  switch (packet.code) {
    case wifi::RadiusCode::kAccessChallenge: {
      if (!packet.attributes.chap_challenge.has_value()) return;
      // Compute the CHAP digest from the client's credential and answer.
      const crypto::Digest256 digest = crypto::hmac_sha256(
          common::to_bytes(entry.password), *packet.attributes.chap_challenge);
      wifi::RadiusPacket response;
      response.code = wifi::RadiusCode::kAccessRequest;
      response.identifier = next_identifier_++;
      response.attributes.user_name = user.value;
      response.attributes.chap_password =
          common::Bytes(digest.begin(), digest.begin() + 8);
      send_radius(response);
      return;
    }
    case wifi::RadiusCode::kAccessAccept: {
      if (!packet.attributes.framed_ip.has_value()) return;
      entry.associated = true;
      entry.ip = *packet.attributes.framed_ip;
      client_by_ip_[entry.ip] = user;
      ++stats_.associations;
      send_accounting(user, wifi::AcctStatus::kStart);
      if (entry.client != nullptr) {
        entry.client->on_association_result(entry.ip);
      }
      return;
    }
    case wifi::RadiusCode::kAccessReject: {
      ++stats_.association_failures;
      WifiClientLink* client = entry.client;
      clients_.erase(it);
      if (client != nullptr) {
        client->on_association_result(common::Error{
            common::ErrorCode::kUnauthenticated, "Access-Reject"});
      }
      return;
    }
    case wifi::RadiusCode::kAccountingResponse:
      return;
    default:
      return;
  }
}

}  // namespace magma::ran
