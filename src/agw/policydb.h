// policydb — named policy storage on the AGW (cache of orchestrator config).
//
// Subscribers reference policies by name (config state, §3.4); the AGW
// resolves the name at session establishment. Like the subscriber cache,
// this is replaceable wholesale by desired-state sync.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/policy.h"

namespace magma::agw {

class PolicyDb {
 public:
  PolicyDb() { upsert(core::unlimited_policy()); }

  void upsert(core::Policy policy) {
    policies_[policy.name] = std::move(policy);
  }
  void remove(const std::string& name) { policies_.erase(name); }

  std::optional<core::Policy> get(const std::string& name) const {
    auto it = policies_.find(name);
    if (it == policies_.end()) return std::nullopt;
    return it->second;
  }
  // Resolve with fallback: unknown names get the unlimited default, so a
  // missing config push degrades to service-without-policy rather than an
  // outage (availability over consistency, §3.2).
  core::Policy resolve(const std::string& name) const {
    if (auto p = get(name)) return *p;
    return core::unlimited_policy();
  }

  std::size_t size() const { return policies_.size(); }

  void replace_all(const std::vector<core::Policy>& policies) {
    policies_.clear();
    upsert(core::unlimited_policy());
    for (const core::Policy& p : policies) upsert(p);
  }

 private:
  std::map<std::string, core::Policy> policies_;
};

}  // namespace magma::agw
