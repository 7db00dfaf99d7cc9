#include "proto/lte/gtpc.h"

#include "rpc/fields.h"

namespace magma::proto::lte {

// Wire layouts. The tag is 32 + the message's index in GtpcMessage: the real
// GTP-C message type numbers.
MAGMA_WIRE_FIELDS(CreateSessionRequest, m.imsi, m.apn, m.sender_teid_c,
                  m.sender_address, m.sequence);
MAGMA_WIRE_FIELDS(CreateSessionResponse, m.cause, m.pgw_teid_c, m.pgw_teid_u,
                  m.pgw_address, m.pdn_address, m.sequence);
MAGMA_WIRE_FIELDS(ModifyBearerRequest, m.teid, m.enb_teid_u, m.enb_address,
                  m.sequence);
MAGMA_WIRE_FIELDS(ModifyBearerResponse, m.cause, m.sequence);
MAGMA_WIRE_FIELDS(DeleteSessionRequest, m.teid, m.sequence);
MAGMA_WIRE_FIELDS(DeleteSessionResponse, m.cause, m.sequence);

namespace {
using Codec = rpc::MessageCodec<GtpcMessage, 32>;
}  // namespace

common::Bytes encode_gtpc(const GtpcMessage& msg) {
  return Codec::encode(msg);
}

common::Result<GtpcMessage> decode_gtpc(common::BytesView data) {
  return Codec::decode(data, "malformed GTP-C pdu");
}

std::uint32_t gtpc_sequence(const GtpcMessage& msg) {
  return std::visit([](const auto& m) { return m.sequence; }, msg);
}

}  // namespace magma::proto::lte
