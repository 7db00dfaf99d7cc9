// traffic_soak — the user-plane path at a small cost per event.
//
// The Figure 9 site: 5 bare-metal J3160 AGWs with 60 fixed-wireless modems
// each, attached during set-up. Open loop: every modem carries a CBR
// downlink of 1 Mbps injected at the AGW's SGi in 100 ms batches (the
// core::DownlinkFlow carry arithmetic) and a 256 kbps uplink through
// UeLte::send_uplink. Every 10th downlink batch of a modem (10% of downlink,
// 5% of all batches) uses a fresh 5-tuple and so leaves the microflow cache
// for the slow walk. A third of the modems are on a tiered policy (2 Mbps
// until 6 MB per 120 s, then 500 kbps), so meters drop and tier transitions
// reprogram flows twice per interval.
//
// About 60 sessions per AGW and a tracer ring far from full: this is the
// control for tracer, crypto and usage-scan changes, and where the kernel
// queue and the datapath fast path show.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/workload.h"

namespace hostbench {
namespace {

using namespace magma;

struct Sizes {
  int sites;
  int modems_per_site;
};

constexpr Sizes kFull{5, 60};
constexpr Sizes kSmoke{1, 6};

constexpr sim::Duration kBatchInterval = 100 * sim::kMillisecond;
constexpr double kDownlinkBps = 1e6;
constexpr double kUplinkBps = 256e3;
constexpr int kFreshEvery = 10;  // every 10th downlink batch: fresh 5-tuple
// Payloads chosen so every packet reaching an AGW is 1428 B on the wire:
// 1400 B downlink plain, 1364 B uplink plus 36 B of eNodeB GTP-U. That
// makes AGW-side byte and packet accounting exactly convertible.
constexpr std::uint32_t kDownlinkPayload = 1400;
constexpr std::uint32_t kUplinkPayload = 1364;
constexpr std::uint32_t kIngressWire = 1428;
constexpr std::uint32_t kDownlinkRadioWire = 1464;  // GTP-U encapsulated
constexpr std::uint32_t kUplinkRadioWire = 1392;
constexpr double kUdpIpOverhead = 28;

// One modem's open-loop traffic: downlink and uplink CBR on one ticker.
class ModemTraffic {
 public:
  ModemTraffic(sim::Kernel& kernel, agw::AccessGateway& agw, ran::UeLte& ue,
               std::uint32_t fresh_base, const bool& running)
      : kernel_(kernel),
        agw_(agw),
        ue_(ue),
        ip_(*ue.ip()),
        fresh_base_(fresh_base),
        running_(running) {}

  void start(sim::Duration phase) {
    kernel_.schedule(phase, [this]() { tick(); });
  }

 private:
  static std::uint64_t take(double& carry, double bps, std::uint32_t payload) {
    carry += bps * sim::to_seconds(kBatchInterval) / 8.0;
    const double per_packet = payload + kUdpIpOverhead;
    const auto count = static_cast<std::uint64_t>(carry / per_packet);
    carry -= static_cast<double>(count) * per_packet;
    return count;
  }

  void tick() {
    if (!running_) return;
    if (const std::uint64_t n = take(dl_carry_, kDownlinkBps, kDownlinkPayload)) {
      common::Ipv4 src = common::Ipv4::from_octets(8, 8, 8, 8);
      std::uint16_t sport = 443;
      if (++batches_ % kFreshEvery == 0) {
        src = common::Ipv4{fresh_base_ + static_cast<std::uint32_t>(batches_)};
        sport = static_cast<std::uint16_t>(1024 + batches_ % 60000);
      }
      datapath::PacketBatch batch;
      batch.packet = datapath::make_udp(src, ip_, sport, 40000, kDownlinkPayload);
      batch.count = n;
      agw_.ingress_from_internet(std::move(batch));
    }
    if (const std::uint64_t n = take(ul_carry_, kUplinkBps, kUplinkPayload)) {
      ue_.send_uplink(common::Ipv4::from_octets(1, 1, 1, 1), 443,
                      kUplinkPayload, n);
    }
    kernel_.schedule(kBatchInterval, [this]() { tick(); });
  }

  sim::Kernel& kernel_;
  agw::AccessGateway& agw_;
  ran::UeLte& ue_;
  common::Ipv4 ip_;
  std::uint32_t fresh_base_;
  const bool& running_;
  double dl_carry_ = 0;
  double ul_carry_ = 0;
  std::uint64_t batches_ = 0;
};

class TrafficSoak final : public Workload {
 public:
  explicit TrafficSoak(const Options& options)
      : sizes_(options.smoke ? kSmoke : kFull),
        net_(core::NetworkConfig{.seed = options.seed}),
        rng_(options.seed ^ 0x50a6u) {}

  std::string sizes_json() const override {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "\"agws\": %d, \"modems_per_agw\": %d, "
                  "\"downlink_bps\": %.0f, \"uplink_bps\": %.0f, "
                  "\"fresh_tuple_every\": %d",
                  sizes_.sites, sizes_.modems_per_site, kDownlinkBps,
                  kUplinkBps, kFreshEvery);
    return buf;
  }

  void setup(SpanLog& spans, int parent) override {
    {
      SpanScope s(spans, "setup/topology", parent);
      for (int i = 0; i < sizes_.sites; ++i) {
        Site site;
        site.agw = &net_.add_agw(agw::bare_metal_j3160());
        ran::EnodebConfig config;
        config.name = "site" + std::to_string(i);
        config.dl_capacity_bps = 1e9;  // backhaul links: not the story here
        site.enb = &net_.add_enodeb(*site.agw, config);
        sites_.push_back(std::move(site));
      }
      core::Policy tiered = core::tiered_policy(2'000'000, 6'000'000, 500'000);
      tiered.interval_ns = 120 * sim::kSecond;
      net_.add_policy(tiered);
      net_.run_for(2 * sim::kSecond);
    }
    std::vector<agw::SubscriberData> subs;
    {
      SpanScope s(spans, "setup/provision", parent);
      for (int i = 0; i < sizes_.sites * sizes_.modems_per_site; ++i) {
        subs.push_back(
            net_.provision_subscriber(i % 3 == 0 ? "tiered" : "unlimited"));
      }
    }
    {
      SpanScope s(spans, "setup/sync", parent);
      net_.sync_all_config();
    }
    {
      // Fixed-wireless modems attach once and stay (infrastructure, not
      // phones), 2 per second per site: inside a J3160's 3.2 attach/s.
      SpanScope s(spans, "setup/attach", parent);
      std::vector<std::unique_ptr<core::AttachRamp>> ramps;
      std::size_t next = 0;
      for (Site& site : sites_) {
        for (int m = 0; m < sizes_.modems_per_site; ++m) {
          site.modems.push_back(&net_.add_ue_lte(subs[next++]));
        }
        ramps.push_back(std::make_unique<core::AttachRamp>(
            net_, site.modems, *site.enb, 2.0));
      }
      net_.run_for(sim::from_seconds(sizes_.modems_per_site / 2.0 + 10));
      for (const auto& ramp : ramps) attached_in_setup_ += ramp->succeeded();
    }
    {
      SpanScope s(spans, "setup/warmup", parent);
      std::uint32_t fresh_base = common::Ipv4::from_octets(9, 0, 0, 0).addr;
      for (Site& site : sites_) {
        for (ran::UeLte* modem : site.modems) {
          if (!modem->ip().has_value()) continue;
          traffic_.push_back(std::make_unique<ModemTraffic>(
              net_.kernel(), *site.agw, *modem, fresh_base, running_));
          fresh_base += 1u << 20;
          traffic_.back()->start(static_cast<sim::Duration>(
              rng_.uniform() * static_cast<double>(kBatchInterval)));
        }
      }
      // Caches fill and every tiered modem crosses its first transition.
      net_.run_for(60 * sim::kSecond);
    }
  }

  void advance(sim::Duration step) override { net_.run_for(step); }

  void after_step() override {
    for (const Site& site : sites_) {
      session_samples_ +=
          static_cast<double>(site.agw->sessiond().active_sessions());
    }
    ++session_sample_steps_;
  }

  Values counters() override {
    Values v;
    add_network_counters(v, net_);
    v["sessiond.step_mean"] =
        session_sample_steps_ == 0
            ? 0.0
            : session_samples_ / (session_sample_steps_ * sizes_.sites);
    return v;
  }

  void drain() override {
    running_ = false;
    net_.run_for(5 * sim::kSecond);  // empty the AGW CPU queues
  }

  Outcome check() override {
    Outcome out;
    const int modems = sizes_.sites * sizes_.modems_per_site;
    if (attached_in_setup_ != static_cast<std::size_t>(modems)) {
      out.violations.push_back("only " + std::to_string(attached_in_setup_) +
                               "/" + std::to_string(modems) +
                               " modems attached in set-up");
    }
    std::uint64_t offered = 0;
    std::uint64_t overload = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t no_match = 0;
    std::uint64_t policy_drops = 0;
    std::uint64_t meter_drops = 0;
    std::uint64_t radio_dl = 0;
    std::uint64_t radio_ul = 0;
    std::uint64_t tier_transitions = 0;
    for (const Site& site : sites_) {
      const agw::UserPlaneStats& up = site.agw->user_plane_stats();
      const datapath::PipelineStats& dp =
          site.agw->pipelined().pipeline().stats();
      offered += up.offered_bytes;
      overload += up.dropped_overload_bytes;
      forwarded += up.forwarded_packets;
      no_match += dp.dropped_no_match;
      policy_drops += dp.dropped_by_policy;
      meter_drops += dp.dropped_by_meter;
      radio_dl += site.enb->stats().dl_dropped_radio_bytes;
      radio_ul += site.enb->stats().ul_dropped_radio_bytes;
      tier_transitions += site.agw->sessiond().stats().tier_transitions;
    }
    // Every packet an AGW was offered is forwarded or dropped somewhere.
    const std::uint64_t accounted =
        kIngressWire * (forwarded + no_match + policy_drops + meter_drops) +
        overload;
    if (offered != accounted || offered % kIngressWire != 0) {
      out.violations.push_back(
          "AGW offered bytes (" + std::to_string(offered) +
          ") != forwarded + dropped (" + std::to_string(accounted) + ")");
    }
    // Failed: lost to a table miss, CPU overload or the radio. Meter drops
    // are policy, not failure.
    out.attempted = offered / kIngressWire + radio_ul / kUplinkRadioWire;
    out.failed = no_match + overload / kIngressWire +
                 radio_dl / kDownlinkRadioWire + radio_ul / kUplinkRadioWire;
    Values net_counts;
    add_network_counters(net_counts, net_);
    Values& c = out.counters;
    c["modems.attached"] = static_cast<double>(attached_in_setup_);
    c["up.offered_bytes"] = static_cast<double>(offered);
    c["up.forwarded_packets"] = static_cast<double>(forwarded);
    c["up.meter_drops"] = static_cast<double>(meter_drops);
    c["up.failed_packets"] = static_cast<double>(out.failed);
    c["sessiond.tier_transitions"] = static_cast<double>(tier_transitions);
    for (const char* key :
         {"kernel.events", "kernel.scheduled", "datapath.cache_hits",
          "datapath.cache_misses", "datapath.offered_batches",
          "pipelined.rule_changes", "tracer.spans_finished",
          "streamer.polls", "metricsd.samples", "rpc.calls_served"}) {
      c[key] = net_counts[key];
    }
    return out;
  }

  Values probe(SpanLog& spans, int parent) override {
    agw::AccessGateway& first = *sites_.front().agw;
    return probe_layers(net_, first.subscriberdb(), first.telemetry_snapshot(),
                        spans, parent);
  }

 private:
  struct Site {
    agw::AccessGateway* agw = nullptr;
    ran::EnodeB* enb = nullptr;
    std::vector<ran::UeLte*> modems;
  };

  Sizes sizes_;
  core::Network net_;
  sim::Rng rng_;
  std::vector<Site> sites_;
  std::vector<std::unique_ptr<ModemTraffic>> traffic_;
  bool running_ = true;
  std::size_t attached_in_setup_ = 0;
  double session_samples_ = 0;
  std::uint64_t session_sample_steps_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_traffic_soak(const Options& options) {
  return std::make_unique<TrafficSoak>(options);
}

}  // namespace hostbench
