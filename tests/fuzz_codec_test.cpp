// Robustness fuzzing and the wire-codec contract: a malformed or malicious
// PDU from the RAN side, or a corrupted report on the backhaul, must never
// crash a gateway or the orchestrator (fail-soft is a stated property of the
// wire layer; this enforces it for every codec and store image, the AGW
// checkpoint included).
//
// One harness checks every wire codec against one contract:
//  * generated samples round-trip — the decode succeeds and re-encodes to
//    the same bytes;
//  * every strict prefix of a valid encoding is rejected;
//  * internal codecs reject one trailing byte (the 3GPP and RADIUS codecs
//    follow their own framing and are exempt);
//  * bit flips either fail to decode or decode to a value that passes the
//    codec's own invariant.
#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "agw/agw.h"
#include "agw/lte_frontend.h"
#include "agw/pipelined.h"
#include "agw/subscriberdb.h"
#include "core/policy.h"
#include "datapath/packet.h"
#include "net/channel.h"
#include "obs/events.h"
#include "obs/sketch/subscriber_sketches.h"
#include "obs/status.h"
#include "obs/tail_sampler.h"
#include "ocs/ocs.h"
#include "orc8r/metricsd.h"
#include "orc8r/streamer.h"
#include "proto/lte/gtpc.h"
#include "proto/lte/nas.h"
#include "proto/lte/s1ap.h"
#include "proto/nr5g/nas5g.h"
#include "proto/nr5g/ngap.h"
#include "proto/wifi/radius.h"
#include "rpc/wire.h"
#include "sim/random.h"
#include "store/wal_store.h"

namespace magma {
namespace {

namespace lte = proto::lte;
namespace nr5g = proto::nr5g;
namespace wifi = proto::wifi;

common::Bytes random_bytes(sim::Rng& rng, std::size_t max_len) {
  common::Bytes out(rng.uniform_int(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

std::string random_string(sim::Rng& rng, std::size_t max_len) {
  return std::string(rng.uniform_int(max_len + 1), 'x');
}

std::uint32_t u32(sim::Rng& rng) {
  return static_cast<std::uint32_t>(rng.next_u64());
}

template <std::size_t N>
std::array<std::uint8_t, N> random_array(sim::Rng& rng) {
  std::array<std::uint8_t, N> out{};
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

common::Imsi random_imsi(sim::Rng& rng) {
  return common::Imsi::from_digits(1010000000000ULL + rng.uniform_int(1000000));
}

template <typename T>
T pick(sim::Rng& rng, const std::vector<T>& options) {
  return options[rng.uniform_int(options.size())];
}

// --- sample generators and invariants, one set per codec ---------------------

net::SegmentHeader segment_header(sim::Rng& rng) {
  net::SegmentHeader h;
  for (std::uint64_t* field : {&h.epoch, &h.seq, &h.ack, &h.ack_epoch}) {
    *field = rng.next_u64() >> rng.uniform_int(64);  // any width
  }
  h.is_ack = rng.bernoulli(0.5);
  h.is_rst = rng.bernoulli(0.1);
  if (rng.bernoulli(0.7)) {
    h.has_ts = true;
    h.tsval = static_cast<sim::TimePoint>(rng.uniform_int(1u << 30));
    h.tsecr = static_cast<sim::TimePoint>(rng.uniform_int(1u << 30));
  }
  // Ascending, disjoint, non-empty blocks as the encoder contract asks.
  std::uint64_t cursor = rng.uniform_int(1000);
  const int blocks = static_cast<int>(rng.uniform_int(5));
  for (int b = 0; b < blocks; ++b) {
    net::SackBlock block;
    block.start = cursor + rng.uniform_int(50);
    block.end = block.start + 1 + rng.uniform_int(20);
    cursor = block.end + rng.uniform_int(10);
    h.sack.push_back(block);
  }
  return h;
}

// What the receiver relies on: SACK blocks ascending, disjoint, non-empty.
bool sack_blocks_ascending(const net::SegmentHeader& h) {
  std::uint64_t prev_end = 0;
  for (const net::SackBlock& block : h.sack) {
    if (block.start >= block.end || block.start < prev_end) return false;
    prev_end = block.end;
  }
  return true;
}

std::vector<obs::ServiceStatus> gateway_status(sim::Rng& rng) {
  std::vector<obs::ServiceStatus> services(rng.uniform_int(4));
  for (obs::ServiceStatus& s : services) {
    s = {random_string(rng, 12), random_string(rng, 8),
         static_cast<sim::Duration>(rng.next_u64() >> 1), rng.next_u64(),
         rng.next_u64(), rng.next_u64(), random_string(rng, 40),
         static_cast<sim::TimePoint>(rng.next_u64() >> 1)};
  }
  return services;
}

std::vector<obs::TraceSummary> trace_summaries(sim::Rng& rng) {
  std::vector<obs::TraceSummary> summaries(rng.uniform_int(4));
  for (obs::TraceSummary& s : summaries) {
    s = {random_string(rng, 16), random_string(rng, 12),
         random_string(rng, 10), rng.next_u64(),
         static_cast<sim::TimePoint>(rng.next_u64() >> 1),
         static_cast<sim::Duration>(rng.next_u64() >> 1)};
    for (auto& d : s.breakdown) {
      d = static_cast<sim::Duration>(rng.next_u64() >> 1);
    }
  }
  return summaries;
}

obs::sketch::SketchReport sketch_report(sim::Rng& rng) {
  obs::sketch::SketchConfig config;
  config.topk_capacity = 4 + rng.uniform_int(12);
  obs::sketch::SubscriberSketches sketches(config);
  const std::uint64_t keys = rng.uniform_int(40);
  for (std::uint64_t i = 0; i < keys; ++i) {
    const common::Imsi imsi =
        common::Imsi::from_digits(1010000000000ULL + rng.uniform_int(25));
    const auto metric = static_cast<obs::sketch::SubscriberMetric>(
        rng.uniform_int(obs::sketch::kSubscriberMetricCount));
    sketches.record(metric, imsi.value, 1 + rng.uniform_int(9),
                    rng.next_u64());
    sketches.record_active(imsi.value, static_cast<sim::TimePoint>(i));
  }
  return sketches.snapshot("gw-fuzz", 1000);
}

// Sound sketches only: K in range, and no error bound above its count.
bool sketch_bounds_hold(const obs::sketch::SketchReport& report) {
  if (report.topk_capacity < 1 || report.topk_capacity > 4096) return false;
  for (const obs::sketch::SpaceSaving& s : report.topk) {
    for (const obs::sketch::HeavyHitter& h : s.top()) {
      if (h.error > h.count) return false;
    }
  }
  return true;
}

orc8r::DesiredUpdate desired_update(sim::Rng& rng) {
  orc8r::DesiredUpdate u;
  u.version = rng.next_u64() >> 1;
  u.epoch = rng.next_u64() >> 1;
  u.mode = static_cast<orc8r::SyncMode>(rng.uniform_int(3));
  if (u.mode == orc8r::SyncMode::kDelta) {
    u.entries.resize(rng.uniform_int(4));
    for (orc8r::DeltaEntry& e : u.entries) {
      e.kind = static_cast<orc8r::DeltaEntry::Kind>(rng.uniform_int(2));
      e.remove = rng.bernoulli(0.3);
      e.key = random_string(rng, 16);
      if (!e.remove) e.blob = random_bytes(rng, 32);
    }
  } else if (u.mode == orc8r::SyncMode::kFull) {
    u.full = random_bytes(rng, 64);
  }
  return u;
}

// In-range mode and kinds, and no remove entry smuggling a blob.
bool delta_entries_sane(const orc8r::DesiredUpdate& u) {
  if (static_cast<std::uint8_t>(u.mode) > 2) return false;
  for (const orc8r::DeltaEntry& e : u.entries) {
    if (static_cast<std::uint8_t>(e.kind) > 1) return false;
    if (e.remove && !e.blob.empty()) return false;
  }
  return true;
}

agw::SubscriberData subscriber_data(sim::Rng& rng) {
  return {random_imsi(rng),      random_array<16>(rng),
          random_array<16>(rng), rng.next_u64() >> 16,
          random_string(rng, 12), random_string(rng, 12),
          rng.bernoulli(0.8)};
}

core::Policy policy(sim::Rng& rng) {
  core::Policy p;
  p.name = random_string(rng, 12);
  p.tiers.resize(1 + rng.uniform_int(4));
  for (core::PolicyTier& t : p.tiers) {
    t = {rng.next_u64() >> 20, rng.next_u64() >> 20, rng.next_u64() >> 20};
  }
  p.charging = static_cast<core::ChargingMode>(rng.uniform_int(3));
  p.quota_bytes = rng.next_u64() >> 20;
  p.interval_ns = static_cast<std::int64_t>(rng.next_u64() >> 1);
  p.qci = static_cast<std::uint8_t>(1 + rng.uniform_int(9));
  return p;
}

// Field order: cookie, UE address, tunneled, AGW/eNodeB tunnel ids and
// address, rates, blocked/idle/home-routed flags, home-routing tunnel.
agw::SessionFlows session_flows(sim::Rng& rng) {
  return {rng.next_u64(),     {u32(rng)},         rng.bernoulli(0.5),
          {u32(rng)},         {u32(rng)},         {u32(rng)},
          rng.next_u64(),     rng.next_u64(),     rng.bernoulli(0.2),
          rng.bernoulli(0.2), rng.bernoulli(0.2), {u32(rng)},
          {u32(rng)},         {u32(rng)}};
}

// Field order: id, IMSI, flows and policy (each length-prefixed), start
// times, usage and quota counters, the quota-denied flag.
agw::SessionRecord session_record(sim::Rng& rng) {
  agw::SessionRecord s;
  s.id.value = rng.next_u64();
  s.imsi = random_imsi(rng);
  s.flows = session_flows(rng);
  s.policy = policy(rng);
  s.started = static_cast<sim::TimePoint>(rng.next_u64() >> 1);
  s.interval_start = static_cast<sim::TimePoint>(rng.next_u64() >> 1);
  s.interval_base_bytes = rng.next_u64();
  s.used_bytes = rng.next_u64();
  s.quota_granted = rng.next_u64();
  s.quota_reported = rng.next_u64();
  s.quota_denied = rng.bernoulli(0.5);
  return s;
}

orc8r::DesiredState full_state(sim::Rng& rng) {
  orc8r::DesiredState state;
  state.version = rng.next_u64() >> 1;
  state.subscribers.resize(rng.uniform_int(3));
  for (auto& s : state.subscribers) s = subscriber_data(rng);
  state.policies.resize(rng.uniform_int(3));
  for (auto& p : state.policies) p = policy(rng);
  return state;
}

orc8r::GetUpdatesRequest get_updates_request(sim::Rng& rng) {
  return {random_string(rng, 10), rng.next_u64(), rng.next_u64()};
}

orc8r::CheckinRequest checkin_request(sim::Rng& rng) {
  return {random_string(rng, 10), random_string(rng, 8),
          random_bytes(rng, 64)};
}

orc8r::CheckinResponse checkin_response(sim::Rng& rng) {
  return {rng.bernoulli(0.5), rng.next_u64()};
}

orc8r::CheckpointReport checkpoint_report(sim::Rng& rng) {
  return {random_string(rng, 10), random_bytes(rng, 128)};
}

ocs::QuotaRequest quota_request(sim::Rng& rng) {
  return {random_imsi(rng), rng.next_u64()};
}

ocs::QuotaGrant quota_grant(sim::Rng& rng) { return {rng.next_u64()}; }

ocs::ReconcileRequest reconcile_request(sim::Rng& rng) {
  return {random_imsi(rng), rng.next_u64(), rng.next_u64()};
}

std::vector<orc8r::MetricSample> metric_report(sim::Rng& rng) {
  std::vector<orc8r::MetricSample> samples(rng.uniform_int(5));
  for (orc8r::MetricSample& s : samples) {
    s = {random_string(rng, 10), random_string(rng, 24),
         rng.uniform(-1e9, 1e9),
         static_cast<sim::TimePoint>(rng.next_u64() >> 1)};
  }
  return samples;
}

std::vector<orc8r::HistogramSnapshot> histogram_report(sim::Rng& rng) {
  std::vector<orc8r::HistogramSnapshot> snapshots(rng.uniform_int(4));
  for (orc8r::HistogramSnapshot& s : snapshots) {
    s.gateway_id = random_string(rng, 10);
    s.name = random_string(rng, 24);
    s.delta = rng.bernoulli(0.5);
    const auto buckets = static_cast<std::uint32_t>(rng.uniform_int(8));
    double bound = 1e-4;
    for (std::uint32_t i = 0; i < buckets; ++i) {
      if (s.delta) {
        s.changed.emplace_back(i, rng.next_u64());
      } else {
        bound *= rng.uniform(1.0, 10.0);  // ascending, as decode demands
        s.bounds.push_back(bound);
        s.counts.push_back(rng.uniform_int(1000));
      }
    }
    if (!s.delta) s.counts.push_back(rng.uniform_int(1000));  // overflow
    s.sum = rng.uniform(0, 1e6);
    s.time = static_cast<sim::TimePoint>(rng.next_u64() >> 1);
  }
  return snapshots;
}

std::vector<obs::Event> event_report(sim::Rng& rng) {
  std::vector<obs::Event> events(rng.uniform_int(4));
  for (obs::Event& e : events) {
    e = {static_cast<sim::TimePoint>(rng.next_u64() >> 1),
         random_string(rng, 10), random_string(rng, 16),
         random_string(rng, 12), random_string(rng, 40),
         static_cast<obs::EventSeverity>(rng.uniform_int(3)),
         obs::TraceContext{rng.next_u64(), rng.next_u64()}};
  }
  return events;
}

// A 3GPP message of a random type (every alternative of the codec's
// variant), with random identities, ids and payloads where it has them.
template <typename Message, std::size_t... I>
Message alternative(std::size_t index, std::index_sequence<I...>) {
  Message msg;
  ((index == I ? (void)msg.template emplace<I>() : (void)0), ...);
  return msg;
}

template <typename Message>
Message any_message(sim::Rng& rng) {
  constexpr std::size_t kTypes = std::variant_size_v<Message>;
  Message msg = alternative<Message>(rng.uniform_int(kTypes),
                                     std::make_index_sequence<kTypes>{});
  auto randomize = [&rng](auto& m) {
    if constexpr (requires { m.imsi; }) m.imsi = random_imsi(rng);
    if constexpr (requires { m.supi; }) m.supi = random_imsi(rng);
    if constexpr (requires { m.nas_pdu; }) m.nas_pdu = random_bytes(rng, 32);
    if constexpr (requires { m.mac; }) m.mac = u32(rng);
    if constexpr (requires { m.sequence; }) m.sequence = u32(rng);
    if constexpr (requires { m.enb_ue_s1ap_id; }) m.enb_ue_s1ap_id = u32(rng);
    if constexpr (requires { m.ran_ue_ngap_id; }) m.ran_ue_ngap_id = u32(rng);
  };
  std::visit(randomize, msg);
  return msg;
}

wifi::RadiusPacket radius_packet(sim::Rng& rng) {
  wifi::RadiusPacket pkt;
  pkt.code = pick<wifi::RadiusCode>(
      rng, {wifi::RadiusCode::kAccessRequest, wifi::RadiusCode::kAccessAccept,
            wifi::RadiusCode::kAccessReject,
            wifi::RadiusCode::kAccountingRequest,
            wifi::RadiusCode::kAccountingResponse,
            wifi::RadiusCode::kAccessChallenge});
  pkt.identifier = static_cast<std::uint8_t>(rng.next_u64());
  wifi::RadiusAttributes& a = pkt.attributes;
  if (rng.bernoulli(0.5)) a.user_name = "IMSI" + random_imsi(rng).value;
  if (rng.bernoulli(0.5)) a.chap_password = random_bytes(rng, 16);
  if (rng.bernoulli(0.5)) a.framed_ip = common::Ipv4{u32(rng)};
  if (rng.bernoulli(0.5)) a.calling_station_id = random_string(rng, 17);
  if (rng.bernoulli(0.5)) a.acct_status = wifi::AcctStatus::kInterimUpdate;
  if (rng.bernoulli(0.5)) a.acct_input_octets = u32(rng);
  if (rng.bernoulli(0.5)) a.acct_output_octets = u32(rng);
  if (rng.bernoulli(0.5)) a.acct_session_id = random_string(rng, 16);
  if (rng.bernoulli(0.5)) a.chap_challenge = random_bytes(rng, 16);
  return pkt;
}

// --- the codec table ---------------------------------------------------------

enum class Decoded { kRejected, kAccepted, kInvariantBroken };

// One row per wire codec, type-erased so one harness checks them all.
struct Codec {
  std::string name;
  // Draws one valid value, checks that it round-trips, returns its encoding.
  std::function<common::Bytes(sim::Rng&)> sample;
  std::function<Decoded(common::BytesView)> decode;
  bool internal = true;  // internal codecs also reject a trailing byte
  int samples = 300;
  // Samples that also get the every-prefix sweep, which is quadratic in the
  // encoding's size.
  int prefix_samples = 300;
};

template <typename T>
Codec codec(std::string name, T (*generate)(sim::Rng&),
            common::Bytes (*encode)(const T&),
            common::Result<T> (*decode)(common::BytesView),
            bool (*invariant)(const T&) = nullptr) {
  auto sample = [=](sim::Rng& rng) {
    const common::Bytes wire = encode(generate(rng));
    auto decoded = decode(wire);
    EXPECT_TRUE(decoded.ok()) << "valid sample rejected";
    if (decoded.ok()) {
      EXPECT_EQ(encode(decoded.value()), wire) << "round trip changed bytes";
    }
    return wire;
  };
  auto check = [=](common::BytesView data) {
    auto decoded = decode(data);
    if (!decoded.ok()) return Decoded::kRejected;
    return invariant == nullptr || invariant(decoded.value())
               ? Decoded::kAccepted
               : Decoded::kInvariantBroken;
  };
  return Codec{std::move(name), sample, check};
}

// Codecs that are a type's own serialize()/deserialize() pair.
template <typename T>
Codec member_codec(std::string name, T (*generate)(sim::Rng&),
                   bool (*invariant)(const T&) = nullptr) {
  return codec<T>(
      std::move(name), generate,
      [](const T& value) { return value.serialize(); },
      [](common::BytesView data) { return T::deserialize(data); }, invariant);
}

// Payloads that are one field list (rpc/fields.h) and nothing else.
template <typename T>
Codec record_codec(std::string name, T (*generate)(sim::Rng&)) {
  return codec<T>(
      std::move(name), generate,
      [](const T& value) { return rpc::encode_record(value); },
      [](common::BytesView data) {
        return rpc::decode_record<T>(data, "corrupt payload");
      });
}

// 3GPP and RADIUS framing leaves trailing bytes to the transport.
Codec external(Codec c) {
  c.internal = false;
  return c;
}

// Sampling budget for codecs whose encodings are unusually small or large.
Codec sampled(Codec c, int samples, int prefix_samples) {
  c.samples = samples;
  c.prefix_samples = prefix_samples;
  return c;
}

const std::vector<Codec>& codecs() {
  static const std::vector<Codec> table = [] {
    return std::vector<Codec>{
        sampled(codec("segment_header", segment_header,
                      net::encode_segment_header, net::decode_segment_header,
                      sack_blocks_ascending),
                2000, 2000),
        codec("gateway_status", gateway_status, obs::encode_gateway_status,
              obs::decode_gateway_status),
        codec("trace_summaries", trace_summaries, obs::encode_trace_summaries,
              obs::decode_trace_summaries),
        // ~11 KB of HLL registers each: sweep the prefixes of a few only.
        sampled(codec("sketch_report", sketch_report,
                      obs::sketch::encode_sketch_report,
                      obs::sketch::decode_sketch_report, sketch_bounds_hold),
                200, 3),
        member_codec("desired_update", desired_update, delta_entries_sane),
        member_codec("full_state", full_state),
        member_codec("get_updates_request", get_updates_request),
        member_codec("subscriber_data", subscriber_data),
        member_codec("policy", policy),
        member_codec("session_flows", session_flows),
        member_codec("session_record", session_record),
        codec("metric_report", metric_report, orc8r::encode_metric_report,
              orc8r::decode_metric_report),
        codec("histogram_report", histogram_report,
              orc8r::encode_histogram_report, orc8r::decode_histogram_report),
        codec("event_report", event_report, obs::encode_event_report,
              obs::decode_event_report),
        record_codec("checkin_request", checkin_request),
        record_codec("checkin_response", checkin_response),
        record_codec("checkpoint_report", checkpoint_report),
        record_codec("quota_request", quota_request),
        record_codec("quota_grant", quota_grant),
        record_codec("reconcile_request", reconcile_request),
        external(codec("nas", any_message<lte::NasMessage>, lte::encode_nas,
                       lte::decode_nas)),
        external(codec("s1ap", any_message<lte::S1apMessage>,
                       lte::encode_s1ap, lte::decode_s1ap)),
        external(codec("gtpc", any_message<lte::GtpcMessage>,
                       lte::encode_gtpc, lte::decode_gtpc)),
        external(codec("nas5g", any_message<nr5g::Nas5gMessage>,
                       nr5g::encode_nas5g, nr5g::decode_nas5g)),
        external(codec("ngap", any_message<nr5g::NgapMessage>,
                       nr5g::encode_ngap, nr5g::decode_ngap)),
        external(codec("radius", radius_packet, wifi::encode_radius,
                       wifi::decode_radius)),
    };
  }();
  return table;
}

// --- the harness -------------------------------------------------------------

void expect_contract(const Codec& codec) {
  SCOPED_TRACE(codec.name);
  sim::Rng rng(std::hash<std::string>{}(codec.name));
  // One broken sample says enough; stop before the sweep floods the log.
  for (int i = 0; i < codec.samples && !::testing::Test::HasFailure(); ++i) {
    const common::Bytes wire = codec.sample(rng);
    for (std::size_t keep = 0; i < codec.prefix_samples && keep < wire.size();
         ++keep) {
      EXPECT_EQ(codec.decode(common::BytesView(wire.data(), keep)),
                Decoded::kRejected)
          << "prefix " << keep << " of " << wire.size() << " decoded";
    }
    if (codec.internal) {
      common::Bytes padded = wire;
      padded.push_back(static_cast<std::uint8_t>(rng.next_u64()));
      EXPECT_EQ(codec.decode(padded), Decoded::kRejected)
          << "trailing byte accepted";
    }
    if (wire.empty()) continue;
    common::Bytes mutated = wire;
    const int flips = 1 + static_cast<int>(rng.uniform_int(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.uniform_int(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    }
    EXPECT_NE(codec.decode(mutated), Decoded::kInvariantBroken)
        << "bit flips decoded into a value breaking the codec's invariant";
  }
}

void expect_contracts(std::initializer_list<std::string_view> names) {
  for (const std::string_view name : names) {
    bool found = false;
    for (const Codec& codec : codecs()) {
      if (codec.name != name) continue;
      expect_contract(codec);
      found = true;
    }
    EXPECT_TRUE(found) << "no codec named " << name;
  }
}

TEST(FuzzSegmentHeader, RoundTripAndGarbageSafety) {
  expect_contracts({"segment_header"});
  // Option billing matches the TCP option sizes the header comment promises.
  sim::Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const net::SegmentHeader h = segment_header(rng);
    EXPECT_EQ(net::segment_option_bytes(h),
              (h.has_ts ? 10u : 0u) +
                  (h.sack.empty() ? 0u : 2u + 8u * h.sack.size()));
  }
}

TEST(FuzzGatewayStatus, RoundTripMutationAndTruncation) {
  expect_contracts({"gateway_status"});
}

TEST(FuzzTraceSummary, RoundTripMutationAndTruncation) {
  expect_contracts({"trace_summaries"});
}

TEST(FuzzSketchReport, RoundTripMutationAndTruncation) {
  expect_contracts({"sketch_report"});
}

TEST(FuzzDeltaStream, UpdateRoundTripMutationAndTruncation) {
  expect_contracts({"desired_update", "get_updates_request"});
}

TEST(FuzzMutation, TruncatedDesiredStateAlwaysRejected) {
  expect_contracts({"full_state"});
}

TEST(FuzzMutation, BitFlipsOnValidMessages) {
  expect_contracts({"nas", "s1ap", "gtpc", "nas5g", "ngap", "radius"});
}

TEST(CodecContract, RecordsAndReports) {
  expect_contracts({"subscriber_data", "policy", "session_flows",
                    "session_record", "metric_report", "histogram_report",
                    "event_report"});
}

TEST(CodecContract, CheckinCheckpointAndOcsPayloads) {
  expect_contracts({"checkin_request", "checkin_response", "checkpoint_report",
                    "quota_request", "quota_grant", "reconcile_request"});
}

// Random bytes at every decoder, store images and raw packets included.
class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, RandomBytesNeverCrashAnyDecoder) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const common::Bytes data = random_bytes(rng, 256);
    for (const Codec& codec : codecs()) (void)codec.decode(data);
    (void)store::WalStore::deserialize(data);
    (void)datapath::Packet::parse(data);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Range<std::uint64_t>(1, 6));

// --- hostile lengths ---------------------------------------------------------

TEST(FuzzTraceSummary, HostileLengthsRejectedWithoutAllocating) {
  // A count field claiming 2^61 summaries in a 16-byte buffer: the capped
  // reserve must not trust it, and the decode must fail cleanly.
  {
    common::Bytes hostile(16, 0xff);
    EXPECT_FALSE(obs::decode_trace_summaries(hostile).ok());
  }
  // A valid single summary whose wait-state count claims more i64s than the
  // buffer holds: the fixed-array rule rejects any count but
  // kWaitStateCount before it reads a state.
  {
    obs::TraceSummary s;
    s.root_op = "attach";
    common::Bytes wire = obs::encode_trace_summaries({s});
    // The state-count byte precedes the 6 × 8 breakdown bytes at the tail.
    wire[wire.size() - 1 - 8 * obs::kWaitStateCount] = 0xff;
    EXPECT_FALSE(obs::decode_trace_summaries(wire).ok());
  }
  // Huge string length prefix inside an otherwise plausible report.
  {
    obs::TraceSummary s;
    s.root_op = "attach";
    s.root_service = "lte_frontend";
    common::Bytes wire = obs::encode_trace_summaries({s});
    // The first string length lives right after the 8-byte count.
    for (std::size_t i = 8; i < 16 && i < wire.size(); ++i) wire[i] = 0xff;
    EXPECT_FALSE(obs::decode_trace_summaries(wire).ok());
  }
}

// A summary from a reader with another wait-state width is rejected, not
// truncated or zero-filled: its breakdown would no longer sum to its
// duration.
TEST(FuzzTraceSummary, StateCountOtherThanWaitStatesRejected) {
  obs::TraceSummary s;
  s.root_op = "attach";
  const common::Bytes wire = obs::encode_trace_summaries({s});
  ASSERT_TRUE(obs::decode_trace_summaries(wire).ok());
  const std::size_t count_at = wire.size() - 1 - 8 * obs::kWaitStateCount;
  // One state fewer, and one more.
  common::Bytes fewer(wire.begin(), wire.end() - 8);
  fewer[count_at] = obs::kWaitStateCount - 1;
  EXPECT_FALSE(obs::decode_trace_summaries(fewer).ok());
  common::Bytes more = wire;
  more.insert(more.end(), 8, 0);
  more[count_at] = obs::kWaitStateCount + 1;
  EXPECT_FALSE(obs::decode_trace_summaries(more).ok());
}

TEST(FuzzSketchReport, HostileFieldsRejectedWithoutAllocating) {
  // Hostile K: capacity 0 (a divide-by-nothing sketch) and capacity 2^32-1
  // (a reserve bomb) must both be rejected at the header.
  for (const std::uint32_t capacity : {0u, 0xffffffffu, 4097u}) {
    rpc::Writer w;
    w.str("gw0");
    w.i64(0);
    w.u32(capacity);
    w.u8(0);
    EXPECT_FALSE(
        obs::sketch::decode_sketch_report(std::move(w).take()).ok());
  }
  // A metric-set width claiming 255 sketches.
  {
    rpc::Writer w;
    w.str("gw0");
    w.i64(0);
    w.u32(8);
    w.u8(0xff);
    EXPECT_FALSE(
        obs::sketch::decode_sketch_report(std::move(w).take()).ok());
  }
  // An entry count claiming 2^32-1 heavy hitters in an empty buffer: the
  // bounded reserve must not trust it.
  {
    rpc::Writer w;
    w.str("gw0");
    w.i64(0);
    w.u32(8);
    w.u8(1);
    w.u64(0);           // total weight
    w.u32(0xffffffff);  // hostile entry count, no entry bytes follow
    EXPECT_FALSE(
        obs::sketch::decode_sketch_report(std::move(w).take()).ok());
  }
  // An entry whose error bound exceeds its count estimate: accepting it
  // would let one gateway poison the fleet-wide lower bounds.
  {
    rpc::Writer w;
    w.str("gw0");
    w.i64(0);
    w.u32(8);
    w.u8(1);
    w.u64(10);  // total weight
    w.u32(1);
    w.str("IMSI001010000000001");
    w.u64(3);   // count...
    w.u64(7);   // ...below the claimed error
    w.u64(0);
    EXPECT_FALSE(
        obs::sketch::decode_sketch_report(std::move(w).take()).ok());
  }
  // An HLL claiming precision 40 (a 2^40-register reserve bomb), and one
  // whose register payload disagrees with its declared precision.
  {
    rpc::Writer w;
    w.str("gw0");
    w.i64(0);
    w.u32(8);
    w.u8(0);
    w.u8(40);  // hostile precision
    w.bytes(common::BytesView{});
    EXPECT_FALSE(
        obs::sketch::decode_sketch_report(std::move(w).take()).ok());
  }
  {
    rpc::Writer w;
    w.str("gw0");
    w.i64(0);
    w.u32(8);
    w.u8(0);
    w.u8(12);  // claims 4096 registers...
    const common::Bytes regs(16, 0);  // ...ships 16
    w.bytes(common::BytesView(regs.data(), regs.size()));
    EXPECT_FALSE(
        obs::sketch::decode_sketch_report(std::move(w).take()).ok());
  }
}

TEST(FuzzDeltaStream, HostileLengthsRejectedWithoutAllocating) {
  // A kDelta header whose entry count claims 2^64-1 entries in an empty
  // payload: the capped reserve must not trust it, and the loop must stop
  // at the first failed read.
  {
    rpc::Writer w;
    w.u64(1);                   // version
    w.u64(1);                   // epoch
    w.u8(2);                    // kDelta
    common::Bytes wire = std::move(w).take();
    for (int i = 0; i < 8; ++i) wire.push_back(0xff);  // count = 2^64-1
    EXPECT_FALSE(orc8r::DesiredUpdate::deserialize(wire).ok());
  }
  // An out-of-range mode byte.
  {
    rpc::Writer w;
    w.u64(1);
    w.u64(1);
    w.u8(3);
    EXPECT_FALSE(
        orc8r::DesiredUpdate::deserialize(std::move(w).take()).ok());
  }
  // A remove entry smuggling a blob (an encoder never emits this; a decoder
  // accepting it would let one wire bit resurrect a deleted subscriber).
  {
    rpc::Writer w;
    w.u64(1);
    w.u64(1);
    w.u8(2);            // kDelta
    w.u64(1);           // one entry
    w.u8(0);            // kSubscriber
    w.boolean(true);    // remove...
    w.str("001010000000001");
    w.bytes(common::to_bytes("zombie"));  // ...with a payload
    EXPECT_FALSE(
        orc8r::DesiredUpdate::deserialize(std::move(w).take()).ok());
  }
  // Truncated GetUpdatesRequest prefixes never parse.
  {
    orc8r::GetUpdatesRequest req;
    req.gateway_id = "gw0";
    req.have_version = 12;
    req.have_epoch = 2;
    const common::Bytes wire = req.serialize();
    for (std::size_t keep = 0; keep < wire.size(); ++keep) {
      EXPECT_FALSE(orc8r::GetUpdatesRequest::deserialize(
                       common::BytesView(wire.data(), keep))
                       .ok());
    }
  }
}

// --- AGW checkpoint images ----------------------------------------------------

// A backup AGW restores whatever orc8r hands it. Every strict prefix of a
// real image is rejected; bit-flipped images and random bytes either fail
// or restore cleanly (the gateway checkpoints again afterwards); none of
// them crash.
TEST(FuzzCheckpoint, AgwImageRestoresCleanlyOrNotAtAll) {
  sim::Kernel kernel;
  agw::AccessGateway source(kernel, common::GatewayId{"gw-src"},
                            agw::virtual_xeon(2), sim::Rng(1));
  sim::Rng rng(2);
  for (std::uint64_t n = 0; n < 4; ++n) {
    agw::SubscriberData sub = subscriber_data(rng);
    sub.imsi = common::Imsi::from_digits(1010000000000ULL + n);
    sub.sqn = 0;
    sub.active = true;
    source.subscriberdb().upsert(sub);
    for (std::uint64_t v = 0; v <= n; ++v) {
      ASSERT_TRUE(source.subscriberdb().generate_auth_vector(sub.imsi).ok());
    }
    agw::Sessiond::CreateRequest req;
    req.imsi = sub.imsi;
    req.ue_ip = common::Ipv4{source.profile().ip_block.base.addr +
                             static_cast<std::uint32_t>(n + 1)};
    req.tunneled = n % 2 == 0;
    req.policy = policy(rng);
    ASSERT_TRUE(source.sessiond().create_session(req).ok());
  }
  const common::Bytes image = source.checkpoint();

  agw::AccessGateway target(kernel, common::GatewayId{"gw-dst"},
                            agw::virtual_xeon(2), sim::Rng(3));
  for (std::size_t keep = 0; keep < image.size(); ++keep) {
    EXPECT_FALSE(target.restore(common::BytesView(image.data(), keep)).ok())
        << "prefix " << keep << " of " << image.size() << " restored";
  }
  int restored = 0;
  for (int i = 0; i < 2000; ++i) {
    common::Bytes mutated = image;
    const int flips = 1 + static_cast<int>(rng.uniform_int(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.uniform_int(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    }
    if (target.restore(mutated).ok()) {
      ++restored;
      EXPECT_FALSE(target.checkpoint().empty());
    }
    (void)target.restore(random_bytes(rng, 256));
  }
  EXPECT_GT(restored, 0);  // flips inside counters and usage still decode
  ASSERT_TRUE(target.restore(image).ok());
  EXPECT_EQ(target.sessiond().active_sessions(), 4u);
}

// A hostile RAN peer sprays garbage at a live front-end; the AGW must keep
// serving (the §3.1 "terminate protocols at the edge" boundary is also a
// robustness boundary).
TEST(FuzzFrontend, GarbageOnS1DoesNotKillTheAgw) {
  sim::Kernel kernel;
  sim::Rng rng(7);
  net::DuplexLink link(kernel, rng, sim::lan_link());
  net::ReliablePair channels = net::make_reliable_pair(kernel, link);

  sim::Rng db_rng(8);
  agw::SubscriberDb subscribers([&db_rng]() { return db_rng.next_u64(); });
  agw::PolicyDb policies;
  agw::Mobilityd mobilityd{agw::IpBlock{}};
  agw::Pipelined pipelined;
  agw::Sessiond sessiond(kernel, pipelined, nullptr);
  agw::Accessd accessd(kernel, nullptr, subscribers, policies, mobilityd,
                       sessiond);
  agw::LteFrontend frontend(kernel, accessd, sessiond,
                            common::Ipv4::from_octets(10, 1, 0, 1));
  frontend.add_enb_channel(*channels.b);

  sim::Rng fuzz(123);
  for (int i = 0; i < 1000; ++i) {
    channels.a->send(random_bytes(fuzz, 128));
  }
  kernel.run();
  EXPECT_GE(frontend.stats().decode_errors, 0u);  // alive to report stats
  EXPECT_EQ(sessiond.active_sessions(), 0u);      // and nothing leaked in
}

}  // namespace
}  // namespace magma
