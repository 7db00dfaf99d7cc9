#include "proto/lte/s1ap.h"

#include "rpc/fields.h"

namespace magma::proto::lte {

// Wire layouts. The tag is 1 + the message's index in S1apMessage.
MAGMA_WIRE_FIELDS(S1SetupRequest, m.enb_id, m.enb_name, m.plmn, m.tac);
MAGMA_WIRE_FIELDS(S1SetupResponse, m.mme_name, m.relative_capacity);
MAGMA_WIRE_FIELDS(S1SetupFailure, m.cause);
MAGMA_WIRE_FIELDS(InitialUeMessage, m.enb_ue_s1ap_id, m.tac, m.nas_pdu);
MAGMA_WIRE_FIELDS(UplinkNasTransport, m.enb_ue_s1ap_id, m.mme_ue_s1ap_id,
                  m.nas_pdu);
MAGMA_WIRE_FIELDS(DownlinkNasTransport, m.enb_ue_s1ap_id, m.mme_ue_s1ap_id,
                  m.nas_pdu);
MAGMA_WIRE_FIELDS(InitialContextSetupRequest, m.enb_ue_s1ap_id,
                  m.mme_ue_s1ap_id, m.agw_teid_ul, m.agw_address, m.kenb,
                  m.nas_pdu);
MAGMA_WIRE_FIELDS(InitialContextSetupResponse, m.enb_ue_s1ap_id,
                  m.mme_ue_s1ap_id, m.enb_teid_dl, m.enb_address);
MAGMA_WIRE_FIELDS(InitialContextSetupFailure, m.enb_ue_s1ap_id,
                  m.mme_ue_s1ap_id, m.cause);
MAGMA_WIRE_FIELDS(UeContextReleaseCommand, m.enb_ue_s1ap_id, m.mme_ue_s1ap_id,
                  m.cause);
MAGMA_WIRE_FIELDS(UeContextReleaseComplete, m.enb_ue_s1ap_id,
                  m.mme_ue_s1ap_id);
MAGMA_WIRE_FIELDS(UeContextReleaseRequest, m.enb_ue_s1ap_id, m.mme_ue_s1ap_id,
                  m.cause);
MAGMA_WIRE_FIELDS(PathSwitchRequest, m.enb_ue_s1ap_id, m.mme_ue_s1ap_id,
                  m.enb_teid_dl, m.enb_address);
MAGMA_WIRE_FIELDS(PathSwitchRequestAcknowledge, m.enb_ue_s1ap_id,
                  m.mme_ue_s1ap_id);
MAGMA_WIRE_FIELDS(PagingMessage, m.imsi);

namespace {
using Codec = rpc::MessageCodec<S1apMessage>;
}  // namespace

common::Bytes encode_s1ap(const S1apMessage& msg) {
  return Codec::encode(msg);
}

common::Result<S1apMessage> decode_s1ap(common::BytesView data) {
  return Codec::decode(data, "malformed S1AP pdu");
}

}  // namespace magma::proto::lte
