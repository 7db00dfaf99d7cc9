// attach_churn — the control-plane procedure path.
//
// 4 virtual AGWs (virtual_xeon(4): accessd handles ~15.6 attach/s each),
// each fronting an eNodeB, a gNB and a WiFi AP, ~500 UEs per AGW (70% LTE,
// 20% NR, 10% WiFi) over a subscriber base twice the UE population. Every UE
// runs a closed loop: attach, wait for the outcome, hold ~Exp(40 s), detach,
// idle ~Exp(20 s), attach again; a failed attach retries after a T3411-style
// 10 s backoff. That offers ~55% of accessd capacity, so the benchmark never
// prices an overloaded gateway. Attached UEs send a one-packet uplink
// keepalive every 10 s, so flow-rule churn meets live cache lookups.
//
// Every attach runs the NAS/S1AP/NGAP/RADIUS codecs, Milenage and the KDF on
// both ends, accessd/mobilityd/sessiond state and a rule install (and a
// removal at detach), and emits tens of spans: crypto, rule churn, the
// sessiond usage scan and the full tracer ring do most of their work here.
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"

namespace hostbench {
namespace {

using namespace magma;

// Indexed like agw::RanType, whose order AccessdStats arrays follow.
enum class Rat { kLte = 0, kNr = 1, kWifi = 2 };
constexpr int kRats = 3;
constexpr const char* kRatNames[kRats] = {"lte", "nr", "wifi"};

struct Sizes {
  int agws;
  int lte_per_agw;
  int nr_per_agw;
  int wifi_per_agw;
  double subscribers_per_ue;
};

constexpr Sizes kFull{4, 350, 100, 50, 2.0};
constexpr Sizes kSmoke{1, 14, 4, 2, 2.0};

constexpr sim::Duration kCycle = 60 * sim::kSecond;  // hold + idle means
constexpr sim::Duration kRampUp = 2 * kCycle;
constexpr sim::Duration kRetryBackoff = 10 * sim::kSecond;
constexpr sim::Duration kKeepalive = 10 * sim::kSecond;

class AttachChurn final : public Workload {
 public:
  explicit AttachChurn(const Options& options)
      : sizes_(options.smoke ? kSmoke : kFull),
        smoke_(options.smoke),
        net_(core::NetworkConfig{.seed = options.seed}),
        rng_(options.seed ^ 0xa77ac4u) {}

  std::string sizes_json() const override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"agws\": %d, \"ues_per_agw\": %d, \"lte_per_agw\": %d, "
                  "\"nr_per_agw\": %d, \"wifi_per_agw\": %d, "
                  "\"subscribers\": %d",
                  sizes_.agws, ues_per_agw(), sizes_.lte_per_agw,
                  sizes_.nr_per_agw, sizes_.wifi_per_agw, subscribers());
    return buf;
  }

  void setup(SpanLog& spans, int parent) override {
    {
      SpanScope s(spans, "setup/topology", parent);
      for (int a = 0; a < sizes_.agws; ++a) {
        Site site;
        site.agw = &net_.add_agw(agw_profile());
        // Radio capacity is not what this workload prices: size the cells
        // so no attach is refused at RRC.
        ran::EnodebConfig enb;
        enb.max_active_ues = 4 * ues_per_agw();
        site.enb = &net_.add_enodeb(*site.agw, enb);
        ran::GnbConfig gnb;
        gnb.max_active_ues = 4 * ues_per_agw();
        site.gnb = &net_.add_gnb(*site.agw, gnb);
        ran::WifiApConfig ap;
        ap.max_clients = 4 * ues_per_agw();
        site.ap = &net_.add_wifi_ap(*site.agw, ap);
        sites_.push_back(site);
      }
      net_.run_for(2 * sim::kSecond);
    }
    std::vector<agw::SubscriberData> subs;
    {
      SpanScope s(spans, "setup/provision", parent);
      for (int i = 0; i < subscribers(); ++i) {
        subs.push_back(net_.provision_subscriber(
            "unlimited", "wifi-" + std::to_string(i)));
      }
    }
    {
      SpanScope s(spans, "setup/sync", parent);
      net_.sync_all_config();
    }
    {
      SpanScope s(spans, "setup/ues", parent);
      std::size_t next_sub = 0;
      for (int a = 0; a < sizes_.agws; ++a) {
        const auto add = [&](Rat rat, int count) {
          for (int k = 0; k < count; ++k) {
            const agw::SubscriberData& sub = subs[next_sub++];
            Ue ue;
            ue.rat = rat;
            ue.site = a;
            ue.imsi = sub.imsi;
            if (rat == Rat::kLte) ue.lte = &net_.add_ue_lte(sub);
            if (rat == Rat::kNr) ue.nr = &net_.add_ue_nr(sub);
            if (rat == Rat::kWifi) {
              ue.wifi = &net_.add_wifi_client(sub, sub.wifi_password);
            }
            ues_.push_back(ue);
          }
        };
        add(Rat::kLte, sizes_.lte_per_agw);
        add(Rat::kNr, sizes_.nr_per_agw);
        add(Rat::kWifi, sizes_.wifi_per_agw);
      }
      // First arrivals spread uniformly over two cycles: over one, the
      // first re-attaches pile onto the tail of the first wave and briefly
      // overload accessd's queue.
      for (std::size_t i = 0; i < ues_.size(); ++i) {
        schedule(static_cast<sim::Duration>(rng_.uniform() * kRampUp),
                 [this, i]() { attach(i); });
      }
    }
    {
      // Warm-up: the ramp, then on until the tracer's finished ring has
      // wrapped, so the timed phase sees the ring at capacity.
      SpanScope s(spans, "setup/warmup", parent);
      const sim::TimePoint start = net_.kernel().now();
      const sim::Duration cap = (smoke_ ? 1 : 8) * kRampUp;
      while (net_.kernel().now() - start < kRampUp ||
             (net_.tracer().spans_dropped() == 0 &&
              net_.kernel().now() - start < cap)) {
        net_.run_for(sim::kSecond);
      }
    }
  }

  void advance(sim::Duration step) override { net_.run_for(step); }

  void after_step() override {
    for (const Site& site : sites_) {
      session_samples_ += static_cast<double>(
          site.agw->sessiond().active_sessions());
    }
    ++session_sample_steps_;
  }

  Values counters() override {
    Values v;
    add_network_counters(v, net_);
    v["sessiond.step_mean"] =
        session_sample_steps_ == 0
            ? 0.0
            : session_samples_ / (session_sample_steps_ * sizes_.agws);
    return v;
  }

  void drain() override {
    // No new procedures; let in-flight ones finish (guards are 15 s, the
    // accessd context guard 30 s).
    running_ = false;
    net_.run_for(40 * sim::kSecond);
  }

  Outcome check() override {
    Outcome out;
    // UE-side outcomes against accessd's counts, per radio technology.
    for (int rat = 0; rat < kRats; ++rat) {
      std::uint64_t started = 0;
      std::uint64_t completed = 0;
      for (const Site& site : sites_) {
        started += site.agw->accessd().stats().attach_started[rat];
        completed += site.agw->accessd().stats().attach_completed[rat];
      }
      if (started != attempts_[rat] || completed != successes_[rat]) {
        out.violations.push_back(
            std::string(kRatNames[rat]) + ": UE-side attempts/successes " +
            std::to_string(attempts_[rat]) + "/" +
            std::to_string(successes_[rat]) +
            " != accessd attach_started/attach_completed " +
            std::to_string(started) + "/" + std::to_string(completed) +
            failure_summary());
      }
    }
    std::size_t holding = 0;
    for (const Ue& ue : ues_) {
      const std::optional<common::Ipv4> ip = ue_ip(ue);
      if (!ip.has_value()) continue;
      ++holding;
      const agw::SessionRecord* session =
          sites_[static_cast<std::size_t>(ue.site)].agw->sessiond().find(
              ue.imsi);
      if (session == nullptr || session->flows.ue_ip != *ip) {
        out.violations.push_back("UE " + ue.imsi.value +
                                 " holds an IP without a session at its AGW");
        break;
      }
    }
    Values& c = out.counters;
    for (int rat = 0; rat < kRats; ++rat) {
      const std::string prefix = std::string("ue.") + kRatNames[rat];
      c[prefix + ".attempts"] = static_cast<double>(attempts_[rat]);
      c[prefix + ".successes"] = static_cast<double>(successes_[rat]);
      c[prefix + ".failures"] = static_cast<double>(failures_[rat]);
      out.attempted += attempts_[rat];
      out.failed += failures_[rat];
    }
    for (const auto& [reason, count] : failure_reasons_) {
      c["ue.failure." + reason] = static_cast<double>(count);
    }
    c["ue.detaches"] = static_cast<double>(detaches_);
    c["ue.holding_ip"] = static_cast<double>(holding);
    Values net_counts;
    add_network_counters(net_counts, net_);
    for (const char* key :
         {"kernel.events", "kernel.scheduled", "accessd.rejected",
          "subscriberdb.vectors", "pipelined.rule_changes",
          "datapath.offered_batches", "tracer.spans_finished",
          "magmad.summaries", "streamer.polls", "metricsd.samples",
          "rpc.calls_served"}) {
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
    ran::Gnb* gnb = nullptr;
    ran::WifiAp* ap = nullptr;
  };
  struct Ue {
    Rat rat = Rat::kLte;
    int site = 0;
    common::Imsi imsi;
    ran::UeLte* lte = nullptr;
    ran::UeNr* nr = nullptr;
    ran::WifiClient* wifi = nullptr;
    std::uint64_t cycle = 0;  // bumped per successful attach
    bool attached = false;
  };

  // The paper's 4-vCPU virtual AGW. At ~55% load accessd's queue of pending
  // stages still reaches its 32-deep shedding bound now and then (about once
  // per 100k attaches); this workload prices the procedure path, not
  // shedding, so the bound is raised out of the way.
  static agw::AgwProfile agw_profile() {
    agw::AgwProfile profile = agw::virtual_xeon(4);
    profile.accessd.max_queue = 256;
    return profile;
  }

  int ues_per_agw() const {
    return sizes_.lte_per_agw + sizes_.nr_per_agw + sizes_.wifi_per_agw;
  }
  int subscribers() const {
    return static_cast<int>(sizes_.subscribers_per_ue * sizes_.agws *
                            ues_per_agw());
  }

  template <typename Fn>
  void schedule(sim::Duration delay, Fn fn) {
    net_.kernel().schedule(delay, std::move(fn));
  }

  std::string failure_summary() const {
    std::string out;
    for (const auto& [reason, count] : failure_reasons_) {
      out += "; " + reason + " x" + std::to_string(count);
    }
    return out;
  }

  static std::optional<common::Ipv4> ue_ip(const Ue& ue) {
    if (ue.lte != nullptr) return ue.lte->ip();
    if (ue.nr != nullptr) return ue.nr->ip();
    return ue.wifi->ip();
  }

  void attach(std::size_t i) {
    if (!running_) return;
    Ue& ue = ues_[i];
    ++attempts_[static_cast<int>(ue.rat)];
    Site& site = sites_[static_cast<std::size_t>(ue.site)];
    ran::AttachCallback done = [this, i](const ran::AttachOutcome& outcome) {
      on_outcome(i, outcome);
    };
    switch (ue.rat) {
      case Rat::kLte:
        ue.lte->attach(*site.enb, std::move(done));
        break;
      case Rat::kNr:
        ue.nr->attach(*site.gnb, std::move(done));
        break;
      case Rat::kWifi:
        ue.wifi->connect(*site.ap, std::move(done));
        break;
    }
  }

  void on_outcome(std::size_t i, const ran::AttachOutcome& outcome) {
    Ue& ue = ues_[i];
    const int rat = static_cast<int>(ue.rat);
    if (!outcome.success) {
      ++failures_[rat];
      ++failure_reasons_[outcome.failure_reason];
      schedule(kRetryBackoff, [this, i]() { attach(i); });
      return;
    }
    ++successes_[rat];
    ue.attached = true;
    const std::uint64_t cycle = ++ue.cycle;
    schedule(static_cast<sim::Duration>(rng_.uniform() * kKeepalive),
             [this, i, cycle]() { keepalive(i, cycle); });
    // Hold ~Exp(40 s) and idle ~Exp(20 s), each with a 2 s floor so a
    // detach never races the attach it ends.
    schedule(2 * sim::kSecond + static_cast<sim::Duration>(
                                    rng_.exponential(38.0) * sim::kSecond),
             [this, i]() { detach(i); });
  }

  void detach(std::size_t i) {
    if (!running_) return;
    Ue& ue = ues_[i];
    ue.attached = false;
    ++detaches_;
    if (ue.lte != nullptr) ue.lte->detach(true);
    if (ue.nr != nullptr) ue.nr->detach(true);
    if (ue.wifi != nullptr) ue.wifi->disconnect();
    schedule(2 * sim::kSecond +
                 static_cast<sim::Duration>(rng_.exponential(18.0) *
                                            sim::kSecond),
             [this, i]() { attach(i); });
  }

  void keepalive(std::size_t i, std::uint64_t cycle) {
    Ue& ue = ues_[i];
    if (!running_ || !ue.attached || ue.cycle != cycle) return;
    const common::Ipv4 dns = common::Ipv4::from_octets(8, 8, 4, 4);
    if (ue.lte != nullptr) ue.lte->send_uplink(dns, 53, 100, 1);
    if (ue.nr != nullptr) ue.nr->send_uplink(dns, 53, 100, 1);
    if (ue.wifi != nullptr) ue.wifi->send_uplink(dns, 53, 100, 1);
    schedule(kKeepalive, [this, i, cycle]() { keepalive(i, cycle); });
  }

  Sizes sizes_;
  bool smoke_;
  core::Network net_;
  sim::Rng rng_;
  std::vector<Site> sites_;
  std::vector<Ue> ues_;
  bool running_ = true;
  std::uint64_t attempts_[kRats] = {};
  std::uint64_t successes_[kRats] = {};
  std::uint64_t failures_[kRats] = {};
  std::map<std::string, std::uint64_t> failure_reasons_;
  std::uint64_t detaches_ = 0;
  double session_samples_ = 0;
  std::uint64_t session_sample_steps_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_attach_churn(const Options& options) {
  return std::make_unique<AttachChurn>(options);
}

}  // namespace hostbench
