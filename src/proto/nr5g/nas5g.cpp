#include "proto/nr5g/nas5g.h"

#include "rpc/fields.h"

namespace magma::proto::nr5g {

// Wire layouts. The tag is 1 + the message's index in Nas5gMessage.
MAGMA_WIRE_FIELDS(RegistrationRequest, m.supi);
MAGMA_WIRE_FIELDS(AuthenticationRequest5g, m.rand, m.autn);
MAGMA_WIRE_FIELDS(AuthenticationResponse5g, m.res_star);
MAGMA_WIRE_FIELDS(SecurityModeCommand5g, m.ciphering_alg, m.integrity_alg,
                  m.mac);
MAGMA_WIRE_FIELDS(SecurityModeComplete5g, m.mac);
MAGMA_WIRE_FIELDS(RegistrationAccept, m.fg_tmsi, m.mac);
MAGMA_WIRE_FIELDS(RegistrationComplete, m.mac);
MAGMA_WIRE_FIELDS(RegistrationReject, m.cause);
MAGMA_WIRE_FIELDS(PduSessionEstablishmentRequest, m.pdu_session_id, m.dnn);
MAGMA_WIRE_FIELDS(PduSessionEstablishmentAccept, m.pdu_session_id,
                  m.ue_address, m.fiveqi, m.ambr_dl_bps, m.ambr_ul_bps);
MAGMA_WIRE_FIELDS(PduSessionEstablishmentReject, m.pdu_session_id, m.cause);
MAGMA_WIRE_FIELDS(DeregistrationRequest5g, m.switch_off);
MAGMA_WIRE_FIELDS(DeregistrationAccept5g);

namespace {
using Codec = rpc::MessageCodec<Nas5gMessage>;
}  // namespace

common::Bytes encode_nas5g(const Nas5gMessage& msg) {
  return Codec::encode(msg);
}

common::Result<Nas5gMessage> decode_nas5g(common::BytesView data) {
  return Codec::decode(data, "malformed 5G NAS pdu");
}

std::uint32_t nas_mac(const crypto::Key256& k_nas_int, std::uint32_t count,
                      Nas5gMessage msg) {
  std::visit(
      [](auto& m) {
        if constexpr (requires { m.mac; }) m.mac = 0;
      },
      msg);
  return crypto::nas_mac(k_nas_int, count, encode_nas5g(msg));
}

}  // namespace magma::proto::nr5g
