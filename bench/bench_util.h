// Shared helpers for the figure/table reproduction harnesses.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/network.h"
#include "core/workload.h"
#include "ran/scenario.h"

namespace magma::benchutil {

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

// One SHAPE-check line: "  <what> ... OK|FAIL"; counts failures.
inline bool check(bool ok, const char* what, int& failures) {
  std::printf("  %-68s %s\n", what, ok ? "OK" : "FAIL");
  if (!ok) ++failures;
  return ok;
}

// A deterministic subscriber for fleet benches that drive the orchestrator
// directly (no USIM on the other end, so the keys only need to differ).
inline agw::SubscriberData fleet_subscriber(
    std::uint64_t n, const std::string& policy = "unlimited") {
  agw::SubscriberData sub;
  sub.imsi = common::Imsi::from_digits(1010000000000ULL + n);
  sub.k[0] = static_cast<std::uint8_t>(n);
  sub.policy_name = policy;
  return sub;
}

// A magmad-only gateway for control-plane fleet benches: an RpcLink whose
// server end is bound to `orc8r`, and a Magmad with empty checkpoint and
// metric sources syncing into its own SubscriberDb/PolicyDb. Call
// magmad.start() to boot it.
struct MagmadGateway {
  MagmadGateway(sim::Kernel& kernel, sim::Rng& rng, orc8r::Orchestrator& orc8r,
                const std::string& id, const agw::MagmadConfig& config)
      : rpc(kernel, rng, "orc8r-server", "agw-client"),
        subscribers([&rng]() { return rng.next_u64(); }),
        magmad(kernel, id, &rpc.client, subscribers, policies,
               []() { return common::Bytes{}; },
               []() { return std::vector<orc8r::MetricSample>{}; }, config) {
    orc8r.bind(rpc.server);
  }

  rpc::RpcLink rpc;
  agw::SubscriberDb subscribers;
  agw::PolicyDb policies;
  agw::Magmad magmad;
};

// Provision `n` LTE subscribers, sync config, and return UEs.
inline std::vector<ran::UeLte*> provision_lte_ues(core::Network& net, int n,
                                                  const std::string& policy =
                                                      "unlimited") {
  std::vector<agw::SubscriberData> subs;
  subs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    subs.push_back(net.provision_subscriber(policy));
  }
  net.sync_all_config();
  std::vector<ran::UeLte*> ues;
  ues.reserve(subs.size());
  for (const auto& sub : subs) ues.push_back(&net.add_ue_lte(sub));
  return ues;
}

// Attach UEs round-robin across `enbs` at an aggregate `rate_per_second`,
// retrying failed attempts after a backoff (UE T3410 behaviour). Starts
// each UE's downlink flow on success when `dl_rate_bps` > 0.
class RetryingAttachDriver {
 public:
  RetryingAttachDriver(core::Network& net, agw::AccessGateway& agw,
                       std::vector<ran::EnodeB*> enbs,
                       std::vector<ran::UeLte*> ues, double rate_per_second,
                       double flow_dl_rate_bps)
      : net_(net), agw_(agw), enbs_(std::move(enbs)), ues_(std::move(ues)) {
    dl_rate_bps = flow_dl_rate_bps;
    const sim::Duration spacing = sim::from_seconds(1.0 / rate_per_second);
    for (std::size_t i = 0; i < ues_.size(); ++i) {
      net_.kernel().schedule(static_cast<sim::Duration>(i) * spacing,
                             [this, i]() { try_attach(i); });
    }
  }

  int attached() const { return attached_; }
  int first_try_failures() const { return first_try_failures_; }
  sim::TimePoint last_attach_time() const { return last_attach_time_; }
  const std::vector<std::unique_ptr<core::DownlinkFlow>>& flows() const {
    return flows_;
  }

  double dl_rate_bps = 0;

  void set_dl_rate(double bps) { dl_rate_bps = bps; }

 private:
  void try_attach(std::size_t i) {
    ran::EnodeB* enb = enbs_[i % enbs_.size()];
    ues_[i]->attach(*enb, [this, i](const ran::AttachOutcome& outcome) {
      if (outcome.success) {
        ++attached_;
        last_attach_time_ = net_.kernel().now();
        if (dl_rate_bps > 0) {
          const sim::Duration interval = 200 * sim::kMillisecond;
          flows_.push_back(std::make_unique<core::DownlinkFlow>(
              net_, agw_, *ues_[i]->ip(), dl_rate_bps, interval));
          // Spread flow phases across the interval (hash of the index) so
          // the radio scheduler sees smooth arrivals, not one mega-burst.
          flows_.back()->start(
              static_cast<sim::Duration>((i * 7919) % 200) *
              sim::kMillisecond);
        }
        return;
      }
      ++first_try_failures_;
      // UE behaviour on T3410 expiry: back off briefly and retry.
      net_.kernel().schedule(2 * sim::kSecond,
                             [this, i]() { try_attach(i); });
    });
  }

  core::Network& net_;
  agw::AccessGateway& agw_;
  std::vector<ran::EnodeB*> enbs_;
  std::vector<ran::UeLte*> ues_;
  int attached_ = 0;
  int first_try_failures_ = 0;
  sim::TimePoint last_attach_time_ = 0;
  std::vector<std::unique_ptr<core::DownlinkFlow>> flows_;
};

}  // namespace magma::benchutil
