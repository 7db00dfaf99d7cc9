#include "proto/wifi/radius.h"

namespace magma::proto::wifi {

namespace {

// RFC 2865 attribute type codes.
constexpr std::uint8_t kAttrUserName = 1;
constexpr std::uint8_t kAttrChapPassword = 3;
constexpr std::uint8_t kAttrFramedIp = 8;
constexpr std::uint8_t kAttrCallingStationId = 31;
constexpr std::uint8_t kAttrAcctStatus = 40;
constexpr std::uint8_t kAttrAcctInputOctets = 42;
constexpr std::uint8_t kAttrAcctOutputOctets = 43;
constexpr std::uint8_t kAttrAcctSessionId = 44;
constexpr std::uint8_t kAttrChapChallenge = 60;

void put_tlv(common::Bytes& out, std::uint8_t type, common::BytesView value) {
  out.push_back(type);
  out.push_back(static_cast<std::uint8_t>(2 + value.size()));
  out.insert(out.end(), value.begin(), value.end());
}

void put_tlv_u32(common::Bytes& out, std::uint8_t type, std::uint32_t v) {
  const std::uint8_t be[4] = {
      static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
      static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
  put_tlv(out, type, common::BytesView(be, 4));
}

void put_tlv_str(common::Bytes& out, std::uint8_t type, const std::string& s) {
  put_tlv(out, type,
          common::BytesView(reinterpret_cast<const std::uint8_t*>(s.data()),
                            s.size()));
}

std::uint32_t read_u32(common::BytesView v) {
  if (v.size() != 4) return 0;
  return (std::uint32_t(v[0]) << 24) | (std::uint32_t(v[1]) << 16) |
         (std::uint32_t(v[2]) << 8) | std::uint32_t(v[3]);
}

}  // namespace

common::Bytes encode_radius(const RadiusPacket& pkt) {
  common::Bytes out;
  out.push_back(static_cast<std::uint8_t>(pkt.code));
  out.push_back(pkt.identifier);
  // Length placeholder (filled below).
  out.push_back(0);
  out.push_back(0);

  const RadiusAttributes& a = pkt.attributes;
  if (a.user_name) put_tlv_str(out, kAttrUserName, *a.user_name);
  if (a.chap_password) put_tlv(out, kAttrChapPassword, *a.chap_password);
  if (a.framed_ip) put_tlv_u32(out, kAttrFramedIp, a.framed_ip->addr);
  if (a.calling_station_id) {
    put_tlv_str(out, kAttrCallingStationId, *a.calling_station_id);
  }
  if (a.acct_status) {
    put_tlv_u32(out, kAttrAcctStatus,
                static_cast<std::uint32_t>(*a.acct_status));
  }
  if (a.acct_input_octets) {
    put_tlv_u32(out, kAttrAcctInputOctets, *a.acct_input_octets);
  }
  if (a.acct_output_octets) {
    put_tlv_u32(out, kAttrAcctOutputOctets, *a.acct_output_octets);
  }
  if (a.acct_session_id) put_tlv_str(out, kAttrAcctSessionId, *a.acct_session_id);
  if (a.chap_challenge) put_tlv(out, kAttrChapChallenge, *a.chap_challenge);

  out[2] = static_cast<std::uint8_t>(out.size() >> 8);
  out[3] = static_cast<std::uint8_t>(out.size());
  return out;
}

common::Result<RadiusPacket> decode_radius(common::BytesView data) {
  auto fail = []() -> common::Result<RadiusPacket> {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "malformed RADIUS packet"};
  };
  if (data.size() < 4) return fail();

  RadiusPacket pkt;
  pkt.code = static_cast<RadiusCode>(data[0]);
  pkt.identifier = data[1];
  const std::size_t length = (std::size_t(data[2]) << 8) | data[3];
  if (length != data.size()) return fail();

  std::size_t pos = 4;
  while (pos < data.size()) {
    if (pos + 2 > data.size()) return fail();
    const std::uint8_t type = data[pos];
    const std::uint8_t len = data[pos + 1];
    if (len < 2 || pos + len > data.size()) return fail();
    const common::BytesView value = data.subspan(pos + 2, len - 2);
    RadiusAttributes& a = pkt.attributes;
    switch (type) {
      case kAttrUserName:
        a.user_name = std::string(value.begin(), value.end());
        break;
      case kAttrChapPassword:
        a.chap_password = common::Bytes(value.begin(), value.end());
        break;
      case kAttrFramedIp:
        if (value.size() != 4) return fail();
        a.framed_ip = common::Ipv4{read_u32(value)};
        break;
      case kAttrCallingStationId:
        a.calling_station_id = std::string(value.begin(), value.end());
        break;
      case kAttrAcctStatus:
        if (value.size() != 4) return fail();
        a.acct_status = static_cast<AcctStatus>(read_u32(value));
        break;
      case kAttrAcctInputOctets:
        if (value.size() != 4) return fail();
        a.acct_input_octets = read_u32(value);
        break;
      case kAttrAcctOutputOctets:
        if (value.size() != 4) return fail();
        a.acct_output_octets = read_u32(value);
        break;
      case kAttrAcctSessionId:
        a.acct_session_id = std::string(value.begin(), value.end());
        break;
      case kAttrChapChallenge:
        a.chap_challenge = common::Bytes(value.begin(), value.end());
        break;
      default:
        break;  // unknown attributes are skipped, per RFC
    }
    pos += len;
  }
  return pkt;
}

}  // namespace magma::proto::wifi
