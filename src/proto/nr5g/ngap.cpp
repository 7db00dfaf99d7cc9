#include "proto/nr5g/ngap.h"

#include "rpc/fields.h"

namespace magma::proto::nr5g {

// Wire layouts. The tag is 1 + the message's index in NgapMessage.
MAGMA_WIRE_FIELDS(NgSetupRequest, m.gnb_id, m.gnb_name, m.plmn);
MAGMA_WIRE_FIELDS(NgSetupResponse, m.amf_name);
MAGMA_WIRE_FIELDS(InitialUeMessage5g, m.ran_ue_ngap_id, m.nas_pdu);
MAGMA_WIRE_FIELDS(UplinkNasTransport5g, m.ran_ue_ngap_id, m.amf_ue_ngap_id,
                  m.nas_pdu);
MAGMA_WIRE_FIELDS(DownlinkNasTransport5g, m.ran_ue_ngap_id, m.amf_ue_ngap_id,
                  m.nas_pdu);
MAGMA_WIRE_FIELDS(PduSessionResourceSetupRequest, m.ran_ue_ngap_id,
                  m.amf_ue_ngap_id, m.pdu_session_id, m.agw_teid_ul,
                  m.agw_address, m.nas_pdu);
MAGMA_WIRE_FIELDS(PduSessionResourceSetupResponse, m.ran_ue_ngap_id,
                  m.amf_ue_ngap_id, m.pdu_session_id, m.gnb_teid_dl,
                  m.gnb_address);
MAGMA_WIRE_FIELDS(UeContextReleaseCommand5g, m.ran_ue_ngap_id,
                  m.amf_ue_ngap_id, m.cause);
MAGMA_WIRE_FIELDS(UeContextReleaseComplete5g, m.ran_ue_ngap_id,
                  m.amf_ue_ngap_id);

namespace {
using Codec = rpc::MessageCodec<NgapMessage>;
}  // namespace

common::Bytes encode_ngap(const NgapMessage& msg) {
  return Codec::encode(msg);
}

common::Result<NgapMessage> decode_ngap(common::BytesView data) {
  return Codec::decode(data, "malformed NGAP pdu");
}

}  // namespace magma::proto::nr5g
