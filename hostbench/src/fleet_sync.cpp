// fleet_sync — the orchestrator at fleet scale.
//
// 1000 magmad-only gateways (wired link -> ReliablePair -> RpcNode -> Magmad,
// as bench/scaleout_fleet does) against the one Orchestrator of a
// core::Network, whose statusd sweep and SLO tick run as the Network starts
// them. Boots are staggered over one poll interval; the subscriber base is
// large enough that the first-contact full-sync wave dominates set-up while
// peak RSS stays well under 1 GiB. Each gateway ships 30 metric samples per
// 15 s tick and a 512 B opaque checkpoint per minute. Northbound writes
// arrive at a fixed 2/s and fan out as deltas: 80% update an existing
// subscriber, 20% add one and remove another, so the base stays constant.
// A settle period with no writes ends the run so convergence can be checked.
//
// No RAN, datapath, crypto or tracer work at all: the control for those, and
// where allocation-heavy, RPC-heavy and deep-event-queue changes show.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "agw/magmad.h"
#include "bench.h"
#include "net/channel.h"

namespace hostbench {
namespace {

using namespace magma;

struct Sizes {
  int gateways;
  int subscribers;
};

constexpr Sizes kFull{1000, 1000};
constexpr Sizes kSmoke{20, 50};

constexpr int kSamplesPerReport = 30;
constexpr std::size_t kCheckpointBytes = 512;
constexpr sim::Duration kWriteInterval = 500 * sim::kMillisecond;
constexpr double kUpdateShare = 0.8;
constexpr sim::Duration kBootSpread = 30 * sim::kSecond;
constexpr sim::Duration kSettle = 45 * sim::kSecond;

agw::SubscriberData make_subscriber(std::uint64_t n, const char* policy) {
  agw::SubscriberData sub;
  sub.imsi = common::Imsi::from_digits(1010000000000ULL + n);
  sub.k[0] = static_cast<std::uint8_t>(n);
  sub.k[1] = static_cast<std::uint8_t>(n >> 8);
  sub.opc[0] = static_cast<std::uint8_t>(n * 7);
  sub.policy_name = policy;
  return sub;
}

struct Gateway {
  std::unique_ptr<net::DuplexLink> link;
  net::ReliablePair channels;
  std::unique_ptr<rpc::RpcNode> server_node;
  std::unique_ptr<rpc::RpcNode> client_node;
  std::unique_ptr<agw::SubscriberDb> subscribers;
  agw::PolicyDb policies;
  std::unique_ptr<agw::Magmad> magmad;
};

class FleetSync final : public Workload {
 public:
  explicit FleetSync(const Options& options)
      : sizes_(options.smoke ? kSmoke : kFull),
        net_(core::NetworkConfig{.seed = options.seed}),
        rng_(options.seed ^ 0xf1ee7u) {}

  std::string sizes_json() const override {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "\"gateways\": %d, \"subscribers\": %d, "
                  "\"samples_per_report\": %d, \"writes_per_s\": %.1f",
                  sizes_.gateways, sizes_.subscribers, kSamplesPerReport,
                  1.0 / sim::to_seconds(kWriteInterval));
    return buf;
  }

  void setup(SpanLog& spans, int parent) override {
    orc8r::Orchestrator& orc8r = net_.orchestrator();
    {
      SpanScope s(spans, "setup/provision", parent);
      net_.add_policy(core::rate_limited_policy(5'000'000, 1'000'000));
      for (int i = 0; i < sizes_.subscribers; ++i) {
        live_.push_back(next_subscriber_);
        orc8r.add_subscriber(make_subscriber(next_subscriber_++, "unlimited"));
      }
    }
    {
      SpanScope s(spans, "setup/topology", parent);
      fleet_.reserve(static_cast<std::size_t>(sizes_.gateways));
      for (int i = 0; i < sizes_.gateways; ++i) add_gateway(i);
    }
    {
      // First contact: every gateway boots inside one poll interval and
      // takes the full state.
      SpanScope s(spans, "setup/first_sync", parent);
      net_.run_for(kBootSpread + 5 * sim::kSecond);
    }
    {
      // Writes start; run until every periodic loop has gone round once
      // with them flowing (checkpoints are the slowest, at 60 s).
      SpanScope s(spans, "setup/warmup", parent);
      net_.kernel().schedule(0, [this]() { write_tick(); });
      net_.run_for(60 * sim::kSecond);
    }
  }

  void advance(sim::Duration step) override { net_.run_for(step); }

  Values counters() override {
    Values v;
    add_network_counters(v, net_);
    for (const auto& gw : fleet_) {
      add_magmad_counters(v, gw->magmad->stats());
      add_transport_counters(v, gw->channels.a->stats());
      add_transport_counters(v, gw->channels.b->stats());
      v["rpc.calls_served"] +=
          static_cast<double>(gw->server_node->stats().calls_served);
    }
    return v;
  }

  void drain() override {
    writing_ = false;
    net_.run_for(kSettle);
  }

  Outcome check() override {
    Outcome out;
    orc8r::Orchestrator& orc8r = net_.orchestrator();
    std::uint64_t stale = 0;
    std::uint64_t wrong_size = 0;
    std::uint64_t sent = 0;
    std::uint64_t rpc_failed = 0;
    for (const auto& gw : fleet_) {
      if (gw->magmad->synced_version() != orc8r.config_version()) ++stale;
      if (gw->subscribers->size() != orc8r.subscriber_count()) ++wrong_size;
      const rpc::RpcStats& s = gw->client_node->stats();
      sent += s.calls_sent;
      rpc_failed += s.calls_failed + s.calls_timed_out + s.calls_send_failed;
    }
    if (stale != 0 || wrong_size != 0) {
      out.violations.push_back(
          std::to_string(stale) + " gateways off config version " +
          std::to_string(orc8r.config_version()) + ", " +
          std::to_string(wrong_size) + " with a subscriber cache size != " +
          std::to_string(orc8r.subscriber_count()) + " after the settle");
    }
    if (orc8r.ingest().pending() != 0) {
      out.violations.push_back("ingest still holds " +
                               std::to_string(orc8r.ingest().pending()) +
                               " reports after the settle");
    }
    if (orc8r.subscriber_count() != static_cast<std::size_t>(sizes_.subscribers)) {
      out.violations.push_back("subscriber base drifted to " +
                               std::to_string(orc8r.subscriber_count()));
    }
    out.attempted = sent;
    out.failed = rpc_failed + stale;
    Values counts = counters();
    Values& c = out.counters;
    c["orc8r.config_version"] = static_cast<double>(orc8r.config_version());
    c["rpc.calls_sent"] = static_cast<double>(sent);
    c["rpc.failed"] = static_cast<double>(rpc_failed);
    c["writes"] = static_cast<double>(writes_);
    for (const char* key :
         {"kernel.events", "kernel.scheduled", "streamer.polls",
          "streamer.delta_entries", "streamer.full_serializations",
          "magmad.delta_syncs", "magmad.full_syncs", "ingest.processed",
          "ingest.shed", "metricsd.samples", "rpc.calls_served",
          "net.messages_sent", "tracer.spans_finished"}) {
      c[key] = counts[key];
    }
    return out;
  }

  Values probe(SpanLog& spans, int parent) override {
    return probe_layers(net_, *fleet_.front()->subscribers,
                        telemetry(0, net_.kernel().now()), spans, parent);
  }

 private:
  void add_gateway(int index) {
    sim::Kernel& kernel = net_.kernel();
    auto gw = std::make_unique<Gateway>();
    gw->link = std::make_unique<net::DuplexLink>(kernel, net_.rng(),
                                                 sim::fiber_backhaul());
    gw->channels = net::make_reliable_pair(kernel, *gw->link);
    gw->server_node = std::make_unique<rpc::RpcNode>(kernel, *gw->channels.a,
                                                     "orc8r-server");
    gw->client_node = std::make_unique<rpc::RpcNode>(kernel, *gw->channels.b,
                                                     "agw-client");
    gw->subscribers = std::make_unique<agw::SubscriberDb>(
        [this]() { return rng_.next_u64(); });
    common::Bytes checkpoint(kCheckpointBytes);
    for (std::size_t b = 0; b < checkpoint.size(); ++b) {
      checkpoint[b] = static_cast<std::uint8_t>(rng_.next_u64());
    }
    gw->magmad = std::make_unique<agw::Magmad>(
        kernel, gateway_id(index), gw->client_node.get(), *gw->subscribers,
        gw->policies,
        [checkpoint]() { return checkpoint; },
        [this, index]() { return telemetry(index, net_.kernel().now()); });
    net_.orchestrator().bind(*gw->server_node);
    agw::Magmad* magmad = gw->magmad.get();
    kernel.schedule(static_cast<sim::Duration>(index) * kBootSpread /
                        sizes_.gateways,
                    [magmad]() { magmad->start(); });
    fleet_.push_back(std::move(gw));
  }

  // One gateway's metrics tick: 30 gauges whose values drift with time.
  std::vector<orc8r::MetricSample> telemetry(int index, sim::TimePoint now) {
    static const std::vector<std::string> kNames = [] {
      std::vector<std::string> names;
      for (int i = 0; i < kSamplesPerReport; ++i) {
        names.push_back("gw_gauge_" + std::to_string(i));
      }
      return names;
    }();
    std::vector<orc8r::MetricSample> samples;
    samples.reserve(kNames.size());
    const std::string id = gateway_id(index);
    const double t = sim::to_seconds(now);
    for (std::size_t i = 0; i < kNames.size(); ++i) {
      samples.push_back(orc8r::MetricSample{
          id, kNames[i], static_cast<double>((index * 31 + i * 7) % 97) + t / 60,
          now});
    }
    return samples;
  }

  static std::string gateway_id(int index) {
    char id[16];
    std::snprintf(id, sizeof(id), "gw%04d", index);
    return id;
  }

  void write_tick() {
    if (!writing_) return;
    orc8r::Orchestrator& orc8r = net_.orchestrator();
    if (rng_.uniform() < kUpdateShare) {
      const std::uint64_t n = live_[rng_.uniform_int(live_.size())];
      orc8r.add_subscriber(
          make_subscriber(n, ++writes_ % 2 == 0 ? "unlimited" : "rate_limited"));
    } else {
      const std::size_t victim = rng_.uniform_int(live_.size());
      orc8r.remove_subscriber(
          common::Imsi::from_digits(1010000000000ULL + live_[victim]));
      live_[victim] = next_subscriber_;
      orc8r.add_subscriber(make_subscriber(next_subscriber_++, "unlimited"));
      writes_ += 2;
    }
    net_.kernel().schedule(kWriteInterval, [this]() { write_tick(); });
  }

  Sizes sizes_;
  core::Network net_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Gateway>> fleet_;
  std::vector<std::uint64_t> live_;  // subscriber numbers in the base
  std::uint64_t next_subscriber_ = 0;
  std::uint64_t writes_ = 0;
  bool writing_ = true;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_sync(const Options& options) {
  return std::make_unique<FleetSync>(options);
}

}  // namespace hostbench
