#include "proto/lte/nas.h"

#include "rpc/fields.h"

namespace magma::proto::lte {

// Wire layouts. The tag is 1 + the message's index in NasMessage.
MAGMA_WIRE_FIELDS(AttachRequest, m.imsi, m.capability.supports_eea2,
                  m.capability.supports_eia2);
MAGMA_WIRE_FIELDS(AuthenticationRequest, m.rand, m.autn);
MAGMA_WIRE_FIELDS(AuthenticationResponse, m.res);
MAGMA_WIRE_FIELDS(AuthenticationFailure, m.cause, m.auts);
MAGMA_WIRE_FIELDS(SecurityModeCommand, m.ciphering_alg, m.integrity_alg,
                  m.mac);
MAGMA_WIRE_FIELDS(SecurityModeComplete, m.mac);
MAGMA_WIRE_FIELDS(DefaultBearer, m.ebi, m.apn, m.pdn_address, m.qci,
                  m.ambr_dl_bps, m.ambr_ul_bps);
MAGMA_WIRE_FIELDS(AttachAccept, m.m_tmsi, m.bearer, m.mac);
MAGMA_WIRE_FIELDS(AttachComplete, m.mac);
MAGMA_WIRE_FIELDS(AttachReject, m.cause);
MAGMA_WIRE_FIELDS(DetachRequest, m.switch_off);
MAGMA_WIRE_FIELDS(DetachAccept);
MAGMA_WIRE_FIELDS(ServiceRequest, m.m_tmsi, m.mac);
MAGMA_WIRE_FIELDS(ServiceReject, m.cause);
MAGMA_WIRE_FIELDS(ServiceAccept, m.mac);

namespace {
using Codec = rpc::MessageCodec<NasMessage>;
}  // namespace

common::Bytes encode_nas(const NasMessage& msg) { return Codec::encode(msg); }

common::Result<NasMessage> decode_nas(common::BytesView data) {
  if (data.empty()) {
    return common::Error{common::ErrorCode::kInvalidArgument, "empty NAS pdu"};
  }
  return Codec::decode(data, "malformed NAS pdu");
}

std::uint32_t nas_mac(const crypto::Key256& k_nas_int, std::uint32_t count,
                      NasMessage msg) {
  std::visit(
      [](auto& m) {
        if constexpr (requires { m.mac; }) m.mac = 0;
      },
      msg);
  return crypto::nas_mac(k_nas_int, count, encode_nas(msg));
}

}  // namespace magma::proto::lte
