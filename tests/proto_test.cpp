// Protocol codecs (NAS, S1AP, NGAP, 5G NAS, RADIUS, GTP-C), the EMM FSM and
// the southbound control-plane messages.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "obs/events.h"
#include "obs/status.h"
#include "obs/tail_sampler.h"
#include "ocs/ocs.h"
#include "orc8r/metricsd.h"
#include "orc8r/streamer.h"
#include "proto/lte/emm_fsm.h"
#include "proto/lte/gtpc.h"
#include "proto/lte/nas.h"
#include "proto/lte/s1ap.h"
#include "proto/nr5g/nas5g.h"
#include "proto/nr5g/ngap.h"
#include "proto/wifi/radius.h"

namespace magma::proto {
namespace {

// Every codec pins the bytes of each of its message types, every field set
// to a non-default value. The tables must cover the whole variant, so a new
// message type has to bring its pin; failures name the variant index.
template <typename Message>
struct Pin {
  Message msg;
  std::string hex;
};

template <typename Message, typename Encode, typename Decode>
void expect_pinned(const std::vector<Pin<Message>>& pins, Encode encode,
                   Decode decode) {
  ASSERT_EQ(pins.size(), std::variant_size_v<Message>);
  for (std::size_t i = 0; i < pins.size(); ++i) {
    SCOPED_TRACE("variant index " + std::to_string(i));
    const Pin<Message>& pin = pins[i];
    ASSERT_EQ(pin.msg.index(), i);
    const common::Bytes wire = encode(pin.msg);
    EXPECT_EQ(common::to_hex(wire), pin.hex);
    auto decoded = decode(wire);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), pin.msg);
  }
}

// --- LTE NAS --------------------------------------------------------------

TEST(NasCodec, AllMessagesRoundTrip) {
  lte::AttachRequest attach;
  attach.imsi = common::Imsi::from_digits(1010000000001ULL);
  attach.capability = {false, false};

  lte::AuthenticationRequest auth;
  auth.rand.fill(0xAA);
  auth.autn.fill(0xBB);

  lte::AuthenticationResponse auth_resp;
  auth_resp.res.fill(0xCC);

  lte::AuthenticationFailure auth_fail{lte::EmmCause::kIllegalUe, {}};
  auth_fail.auts.fill(0xDD);

  lte::AttachAccept accept;
  accept.m_tmsi = 42;
  accept.bearer = {6, "ims", common::Ipv4::from_octets(172, 16, 0, 9), 5,
                   5'000'000, 1'000'000};
  accept.mac = 7;

  expect_pinned<lte::NasMessage>(
      {
          {attach, "0113000000494d53493030313031303030303030303030310000"},
          {auth,
           "0210000000aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa10000000bbbbbbbbbbbbbb"
           "bbbbbbbbbbbbbbbbbb"},
          {auth_resp, "0308000000cccccccccccccccc"},
          {auth_fail, "04030e000000dddddddddddddddddddddddddddd"},
          {lte::SecurityModeCommand{1, 3, 0x12345678}, "05010378563412"},
          {lte::SecurityModeComplete{99}, "0663000000"},
          {accept,
           "072a0000000603000000696d73090010ac05404b4c000000000040420f000000"
           "000007000000"},
          {lte::AttachComplete{3}, "0803000000"},
          {lte::AttachReject{lte::EmmCause::kCongestion}, "0916"},
          {lte::DetachRequest{true}, "0a01"},
          {lte::DetachAccept{}, "0b"},
          {lte::ServiceRequest{42, 8}, "0c2a00000008000000"},
          {lte::ServiceReject{lte::EmmCause::kIllegalUe}, "0d03"},
          {lte::ServiceAccept{0xCAFE}, "0efeca0000"},
      },
      lte::encode_nas, lte::decode_nas);
}

TEST(NasCodec, RejectsEmptyAndGarbage) {
  EXPECT_FALSE(lte::decode_nas({}).ok());
  EXPECT_FALSE(lte::decode_nas(common::to_bytes("\xFFgarbage")).ok());
}

TEST(NasCodec, RejectsInvalidImsi) {
  lte::AttachRequest attach;
  attach.imsi.value = "NOT_AN_IMSI";
  EXPECT_FALSE(lte::decode_nas(lte::encode_nas(lte::NasMessage{attach})).ok());
}

TEST(NasCodec, RejectsTruncated) {
  lte::AuthenticationRequest auth;
  auth.rand.fill(1);
  const common::Bytes wire = lte::encode_nas(lte::NasMessage{auth});
  for (std::size_t keep = 1; keep < wire.size(); keep += 7) {
    EXPECT_FALSE(
        lte::decode_nas(common::BytesView(wire.data(), keep)).ok());
  }
}

// --- S1AP ------------------------------------------------------------------

TEST(S1apCodec, AllMessagesRoundTrip) {
  lte::InitialContextSetupRequest ics;
  ics.enb_ue_s1ap_id = 1;
  ics.mme_ue_s1ap_id = 2;
  ics.agw_teid_ul = common::Teid{0x777};
  ics.agw_address = common::Ipv4::from_octets(10, 1, 0, 1);
  ics.kenb.fill(0x5A);
  ics.nas_pdu = common::to_bytes("piggyback");

  const common::Ipv4 enb = common::Ipv4::from_octets(10, 100, 0, 1);
  expect_pinned<lte::S1apMessage>(
      {
          {lte::S1SetupRequest{common::RanNodeId{7}, "enb7", "00102", 3},
           "010700000004000000656e62370500000030303130320300"},
          {lte::S1SetupResponse{"mme", 128}, "02030000006d6d6580"},
          {lte::S1SetupFailure{"overload"}, "03080000006f7665726c6f6164"},
          {lte::InitialUeMessage{10, 3, common::to_bytes("nas")},
           "040a0000000300030000006e6173"},
          {lte::UplinkNasTransport{10, 20, common::to_bytes("ul")},
           "050a0000001400000002000000756c"},
          {lte::DownlinkNasTransport{10, 20, common::to_bytes("dl")},
           "060a0000001400000002000000646c"},
          {ics,
           "070100000002000000770700000100010a200000005a5a5a5a5a5a5a5a5a5a5a"
           "5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a0900000070696767796261"
           "636b"},
          {lte::InitialContextSetupResponse{10, 20, common::Teid{0x888}, enb},
           "080a00000014000000880800000100640a"},
          {lte::InitialContextSetupFailure{10, 20, "no-resources"},
           "090a000000140000000c0000006e6f2d7265736f7572636573"},
          {lte::UeContextReleaseCommand{10, 20, "detach"},
           "0a0a0000001400000006000000646574616368"},
          {lte::UeContextReleaseComplete{10, 20}, "0b0a00000014000000"},
          {lte::UeContextReleaseRequest{11, 21, "radio-loss"},
           "0c0b000000150000000a000000726164696f2d6c6f7373"},
          {lte::PathSwitchRequest{12, 22, common::Teid{0x999}, enb},
           "0d0c00000016000000990900000100640a"},
          {lte::PathSwitchRequestAcknowledge{12, 22}, "0e0c00000016000000"},
          {lte::PagingMessage{common::Imsi::from_digits(1010000000004ULL)},
           "0f13000000494d5349303031303130303030303030303034"},
      },
      lte::encode_s1ap, lte::decode_s1ap);
}

// --- 5G -----------------------------------------------------------------------

TEST(Nas5gCodec, AllMessagesRoundTrip) {
  nr5g::RegistrationRequest reg;
  reg.supi = common::Imsi::from_digits(1010000000002ULL);

  nr5g::AuthenticationRequest5g auth;
  auth.rand.fill(0x11);
  auth.autn.fill(0x22);

  nr5g::AuthenticationResponse5g auth_resp;
  auth_resp.res_star.fill(0x33);

  const nr5g::PduSessionEstablishmentAccept accept{
      2, common::Ipv4::from_octets(172, 16, 1, 10), 7, 10'000'000, 2'000'000};

  expect_pinned<nr5g::Nas5gMessage>(
      {
          {reg, "0113000000494d5349303031303130303030303030303032"},
          {auth,
           "0210000000111111111111111111111111111111111000000022222222222222"
           "222222222222222222"},
          {auth_resp, "031000000033333333333333333333333333333333"},
          {nr5g::SecurityModeCommand5g{1, 3, 77}, "0401034d000000"},
          {nr5g::SecurityModeComplete5g{88}, "0558000000"},
          {nr5g::RegistrationAccept{0x5001, 5}, "060150000005000000"},
          {nr5g::RegistrationComplete{6}, "0706000000"},
          {nr5g::RegistrationReject{nr5g::FgmmCause::kCongestion}, "0816"},
          {nr5g::PduSessionEstablishmentRequest{2, "ims"},
           "090203000000696d73"},
          {accept, "0a020a0110ac07809698000000000080841e0000000000"},
          {nr5g::PduSessionEstablishmentReject{2, nr5g::FgmmCause::kIllegalUe},
           "0b0203"},
          {nr5g::DeregistrationRequest5g{true}, "0c01"},
          {nr5g::DeregistrationAccept5g{}, "0d"},
      },
      nr5g::encode_nas5g, nr5g::decode_nas5g);
}

TEST(NgapCodec, AllMessagesRoundTrip) {
  nr5g::PduSessionResourceSetupRequest setup;
  setup.ran_ue_ngap_id = 4;
  setup.amf_ue_ngap_id = 5;
  setup.pdu_session_id = 2;
  setup.agw_teid_ul = common::Teid{0xABC};
  setup.agw_address = common::Ipv4::from_octets(10, 2, 0, 1);
  setup.nas_pdu = common::to_bytes("accept");

  expect_pinned<nr5g::NgapMessage>(
      {
          {nr5g::NgSetupRequest{common::RanNodeId{9}, "gnb9", "00102"},
           "010900000004000000676e6239050000003030313032"},
          {nr5g::NgSetupResponse{"amf"}, "0203000000616d66"},
          {nr5g::InitialUeMessage5g{4, common::to_bytes("reg")},
           "030400000003000000726567"},
          {nr5g::UplinkNasTransport5g{4, 5, common::to_bytes("ul")},
           "04040000000500000002000000756c"},
          {nr5g::DownlinkNasTransport5g{4, 5, common::to_bytes("dl")},
           "05040000000500000002000000646c"},
          {setup, "06040000000500000002bc0a00000100020a06000000616363657074"},
          {nr5g::PduSessionResourceSetupResponse{
               4, 5, 2, common::Teid{0xDEF},
               common::Ipv4::from_octets(10, 101, 0, 1)},
           "07040000000500000002ef0d00000100650a"},
          {nr5g::UeContextReleaseCommand5g{4, 5, "dereg"},
           "080400000005000000050000006465726567"},
          {nr5g::UeContextReleaseComplete5g{4, 5}, "090400000005000000"},
      },
      nr5g::encode_ngap, nr5g::decode_ngap);
}

// --- RADIUS -----------------------------------------------------------------------

TEST(RadiusCodec, FullAttributeRoundTrip) {
  wifi::RadiusPacket pkt;
  pkt.code = wifi::RadiusCode::kAccountingRequest;
  pkt.identifier = 77;
  pkt.attributes.user_name = "IMSI001010000000001";
  pkt.attributes.chap_password = common::from_hex("0011223344556677");
  pkt.attributes.framed_ip = common::Ipv4::from_octets(172, 16, 0, 50);
  pkt.attributes.calling_station_id = "02:aa:bb:cc:dd:ee";
  pkt.attributes.acct_status = wifi::AcctStatus::kInterimUpdate;
  pkt.attributes.acct_input_octets = 123456;
  pkt.attributes.acct_output_octets = 654321;
  pkt.attributes.acct_session_id = "ap1/sess42";
  pkt.attributes.chap_challenge = common::from_hex("ffee");

  auto decoded = wifi::decode_radius(wifi::encode_radius(pkt));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), pkt);
}

TEST(RadiusCodec, MinimalPacketRoundTrip) {
  wifi::RadiusPacket pkt;
  pkt.code = wifi::RadiusCode::kAccessReject;
  pkt.identifier = 1;
  auto decoded = wifi::decode_radius(wifi::encode_radius(pkt));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), pkt);
}

TEST(RadiusCodec, RejectsBadLength) {
  wifi::RadiusPacket pkt;
  pkt.attributes.user_name = "user";
  common::Bytes wire = wifi::encode_radius(pkt);
  wire[3] = static_cast<std::uint8_t>(wire[3] + 1);  // wrong total length
  EXPECT_FALSE(wifi::decode_radius(wire).ok());
  EXPECT_FALSE(wifi::decode_radius(common::to_bytes("xy")).ok());
}

TEST(RadiusCodec, SkipsUnknownAttributes) {
  wifi::RadiusPacket pkt;
  pkt.attributes.user_name = "user";
  common::Bytes wire = wifi::encode_radius(pkt);
  // Append an unknown attribute (type 200, len 4, two value bytes) and fix
  // the length field.
  wire.push_back(200);
  wire.push_back(4);
  wire.push_back(0xDE);
  wire.push_back(0xAD);
  wire[2] = static_cast<std::uint8_t>(wire.size() >> 8);
  wire[3] = static_cast<std::uint8_t>(wire.size());
  auto decoded = wifi::decode_radius(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().attributes.user_name, "user");
}

// --- GTP-C -------------------------------------------------------------------------

TEST(GtpcCodec, AllMessagesRoundTrip) {
  const lte::CreateSessionRequest create{
      common::Imsi::from_digits(1010000000003ULL), "ims", common::Teid{0x42},
      common::Ipv4::from_octets(10, 200, 0, 1), 9};
  const lte::CreateSessionResponse response{
      64,
      common::Teid{0x44},
      common::Teid{0x43},
      common::Ipv4::from_octets(10, 201, 0, 1),
      common::Ipv4::from_octets(100, 64, 0, 1),
      9};

  const std::vector<Pin<lte::GtpcMessage>> pins = {
      {create,
       "2013000000494d534930303130313030303030303030303303000000696d7342"
       "0000000100c80a09000000"},
      {response, "214044000000430000000100c90a0100406409000000"},
      {lte::ModifyBearerRequest{common::Teid{1}, common::Teid{2},
                                common::Ipv4::from_octets(10, 100, 0, 1), 10},
       "2201000000020000000100640a0a000000"},
      {lte::ModifyBearerResponse{64, 10}, "23400a000000"},
      {lte::DeleteSessionRequest{common::Teid{1}, 11}, "24010000000b000000"},
      {lte::DeleteSessionResponse{64, 11}, "25400b000000"},
  };
  expect_pinned(pins, lte::encode_gtpc, lte::decode_gtpc);
  for (const Pin<lte::GtpcMessage>& pin : pins) {
    auto decoded = lte::decode_gtpc(lte::encode_gtpc(pin.msg));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(lte::gtpc_sequence(decoded.value()), lte::gtpc_sequence(pin.msg));
  }
}

// --- Southbound control plane -----------------------------------------------------

// The AGW <-> orc8r and sessiond <-> OCS messages, pinned the same way: one
// instance each with every field non-default, so a decoder that drops or
// reorders a field fails the re-encode.
template <typename T, typename Encode, typename Decode>
void expect_pinned_record(const T& value, std::string_view hex, Encode encode,
                          Decode decode) {
  const common::Bytes wire = encode(value);
  EXPECT_EQ(common::to_hex(wire), hex);
  auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(encode(decoded.value()), wire);
}

TEST(WireRecords, MetricReport) {
  const std::vector<orc8r::MetricSample> report{
      {"gw0", "active_sessions", 2.5, 7}};
  expect_pinned_record(
      report,
      "0100000000000000030000006777300f0000006163746976655f73657373696f"
      "6e7300000000000004400700000000000000",
      orc8r::encode_metric_report, orc8r::decode_metric_report);
}

TEST(WireRecords, EventReport) {
  const std::vector<obs::Event> report{{5, "gw0", "attach_reject", "accessd",
                                        "no quota", obs::EventSeverity::kWarn,
                                        {0x11, 0x22}}};
  expect_pinned_record(
      report,
      "01000000000000000500000000000000030000006777300d0000006174746163"
      "685f72656a6563740700000061636365737364080000006e6f2071756f746101"
      "11000000000000002200000000000000",
      obs::encode_event_report, obs::decode_event_report);
}

TEST(WireRecords, GatewayStatus) {
  const std::vector<obs::ServiceStatus> status{
      {"sessiond", "draining", 9, 1, 2, 3, "timeout", 4}};
  expect_pinned_record(
      status,
      "01000000000000000800000073657373696f6e6408000000647261696e696e67"
      "0900000000000000010000000000000002000000000000000300000000000000"
      "0700000074696d656f75740400000000000000",
      obs::encode_gateway_status, obs::decode_gateway_status);
}

TEST(WireRecords, TraceSummaries) {
  const std::vector<obs::TraceSummary> report{
      {"attach", "mme", "gw0", 0x33, 10, 20, {1, 2, 3, 4, 5, 6}}};
  expect_pinned_record(
      report,
      "010000000000000006000000617474616368030000006d6d6503000000677730"
      "33000000000000000a0000000000000014000000000000000601000000000000"
      "0002000000000000000300000000000000040000000000000005000000000000"
      "000600000000000000",
      obs::encode_trace_summaries, obs::decode_trace_summaries);
}

TEST(WireRecords, GetUpdatesRequest) {
  expect_pinned_record(
      orc8r::GetUpdatesRequest{"gw0", 12, 2},
      "030000006777300c000000000000000200000000000000",
      [](const orc8r::GetUpdatesRequest& r) { return r.serialize(); },
      orc8r::GetUpdatesRequest::deserialize);
}

TEST(WireRecords, DeltaUpdate) {
  orc8r::DesiredUpdate update;
  update.version = 12;
  update.epoch = 2;
  update.mode = orc8r::SyncMode::kDelta;
  update.entries = {
      {orc8r::DeltaEntry::Kind::kPolicy, false, "gold", {0xab, 0xcd}},
      {orc8r::DeltaEntry::Kind::kSubscriber, true, "001010000000001", {}}};
  expect_pinned_record(
      update,
      "0c00000000000000020000000000000002020000000000000001000400000067"
      "6f6c6402000000abcd00010f0000003030313031303030303030303030310000"
      "0000",
      [](const orc8r::DesiredUpdate& u) { return u.serialize(); },
      orc8r::DesiredUpdate::deserialize);
}

// The payloads that are one field list and nothing else.
template <typename T>
void expect_pinned_payload(const T& value, std::string_view hex) {
  expect_pinned_record(
      value, hex, [](const T& v) { return rpc::encode_record(v); },
      [](common::BytesView data) {
        return rpc::decode_record<T>(data, "corrupt payload");
      });
}

TEST(WireRecords, CheckinRequest) {
  expect_pinned_payload(orc8r::CheckinRequest{"gw0", "agw", {0xab, 0xcd}},
                        "030000006777300300000061677702000000abcd");
}

TEST(WireRecords, CheckinResponse) {
  expect_pinned_payload(orc8r::CheckinResponse{true, 4},
                        "010400000000000000");
}

TEST(WireRecords, CheckpointReport) {
  expect_pinned_payload(orc8r::CheckpointReport{"gw0", {1, 2, 3}},
                        "0300000067773003000000010203");
}

TEST(WireRecords, QuotaRequest) {
  expect_pinned_payload(
      ocs::QuotaRequest{common::Imsi::from_digits(1010000000001ULL), 1000000},
      "13000000494d534930303130313030303030303030303140420f0000000000");
}

TEST(WireRecords, QuotaGrant) {
  expect_pinned_payload(ocs::QuotaGrant{500000}, "20a1070000000000");
}

TEST(WireRecords, ReconcileRequest) {
  expect_pinned_payload(
      ocs::ReconcileRequest{common::Imsi::from_digits(1010000000001ULL),
                            1000000, 750000},
      "13000000494d534930303130313030303030303030303140420f0000000000b071"
      "0b0000000000");
}

// --- EMM FSM ----------------------------------------------------------------------

TEST(EmmFsm, HappyPathAttach) {
  lte::EmmFsm fsm;
  EXPECT_EQ(fsm.state(), lte::EmmState::kDeregistered);
  EXPECT_TRUE(fsm.handle(lte::EmmEvent::kAttachRequested));
  EXPECT_TRUE(fsm.handle(lte::EmmEvent::kAuthSucceeded));
  EXPECT_TRUE(fsm.handle(lte::EmmEvent::kSecurityEstablished));
  EXPECT_TRUE(fsm.handle(lte::EmmEvent::kContextEstablished));
  EXPECT_EQ(fsm.state(), lte::EmmState::kRegistered);
  EXPECT_TRUE(fsm.handle(lte::EmmEvent::kDetachRequested));
  EXPECT_TRUE(fsm.handle(lte::EmmEvent::kDetachComplete));
  EXPECT_EQ(fsm.state(), lte::EmmState::kDeregistered);
  EXPECT_EQ(fsm.invalid_transitions(), 0u);
}

TEST(EmmFsm, InvalidTransitionsRejectedAndCounted) {
  lte::EmmFsm fsm;
  EXPECT_FALSE(fsm.handle(lte::EmmEvent::kAuthSucceeded));
  EXPECT_FALSE(fsm.handle(lte::EmmEvent::kContextEstablished));
  EXPECT_EQ(fsm.state(), lte::EmmState::kDeregistered);
  EXPECT_EQ(fsm.invalid_transitions(), 2u);
}

TEST(EmmFsm, ImplicitDetachFromAnyState) {
  for (lte::EmmState from :
       {lte::EmmState::kDeregistered, lte::EmmState::kAuthPending,
        lte::EmmState::kSecurityPending, lte::EmmState::kContextPending,
        lte::EmmState::kRegistered, lte::EmmState::kDeregisterPending}) {
    lte::EmmState to;
    EXPECT_TRUE(lte::EmmFsm::valid(from, lte::EmmEvent::kImplicitDetach, &to));
    EXPECT_EQ(to, lte::EmmState::kDeregistered);
  }
}

// Exhaustive transition-table sweep: every (state, event) pair either moves
// to the documented target or is rejected; no pair misbehaves.
class EmmFsmSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EmmFsmSweep, TotalAndClosed) {
  const auto from = static_cast<lte::EmmState>(std::get<0>(GetParam()));
  const auto event = static_cast<lte::EmmEvent>(std::get<1>(GetParam()));
  lte::EmmState to = from;
  const bool valid = lte::EmmFsm::valid(from, event, &to);
  if (valid) {
    // Target must be one of the six defined states.
    EXPECT_LE(static_cast<int>(to), 5);
  } else {
    EXPECT_EQ(to, from);  // untouched on rejection
  }
}

INSTANTIATE_TEST_SUITE_P(AllPairs, EmmFsmSweep,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Range(0, 10)));

}  // namespace
}  // namespace magma::proto
