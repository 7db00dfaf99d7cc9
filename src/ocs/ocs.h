// Online Charging System (OCS) — the third-party billing counterpart.
//
// §3.4: "The OCS tracks a user's account balance ... and then authorizes
// small quotas of data (e.g., 1MB) to the user via Magma; when the user
// nears completion of their quota, Magma requests another quota on the
// user's behalf from the OCS, which makes the decision on whether to grant
// or deny the request."
//
// The OCS is not part of Magma — it integrates over the network. We expose
// both a direct API (tests) and RPC bindings (sessiond's Gy-like client).
// Grants *reserve* balance immediately; unused quota is returned at session
// teardown. A user who moves between AGWs can therefore overdraw by at most
// (outstanding grants − actual use), i.e. the double-spend bound the paper
// states, measured by bench/ablation_double_spend.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/ids.h"
#include "common/result.h"
#include "rpc/fields.h"
#include "rpc/rpc.h"

namespace magma::ocs {

// The RPC payloads, one field list each: RequestQuota answers a
// QuotaRequest with a QuotaGrant, Reconcile a ReconcileRequest with an empty
// reply.
struct QuotaRequest {
  common::Imsi imsi;
  std::uint64_t requested_bytes = 0;
};
MAGMA_WIRE_FIELDS(QuotaRequest, m.imsi, m.requested_bytes);

struct QuotaGrant {
  std::uint64_t granted_bytes = 0;  // 0 = denied (balance empty)
};
MAGMA_WIRE_FIELDS(QuotaGrant, m.granted_bytes);

struct ReconcileRequest {
  common::Imsi imsi;
  std::uint64_t granted_bytes = 0;
  std::uint64_t used_bytes = 0;
};
MAGMA_WIRE_FIELDS(ReconcileRequest, m.imsi, m.granted_bytes, m.used_bytes);

struct OcsAccount {
  std::uint64_t balance_bytes = 0;      // unreserved balance
  std::uint64_t outstanding_bytes = 0;  // granted, not yet reconciled
  std::uint64_t consumed_bytes = 0;     // reconciled actual usage
};

class Ocs {
 public:
  void create_account(const common::Imsi& imsi, std::uint64_t balance_bytes);

  // Grant up to `requested` from the remaining balance (partial grants when
  // the balance is nearly empty; zero when exhausted).
  QuotaGrant request_quota(const common::Imsi& imsi, std::uint64_t requested);

  // Reconcile a grant at session end: `used` of the previously granted
  // bytes were actually consumed; the rest returns to the balance.
  common::Status reconcile(const common::Imsi& imsi, std::uint64_t granted,
                           std::uint64_t used);

  const OcsAccount* account(const common::Imsi& imsi) const;

  // RPC service "ocs": RequestQuota and Reconcile.
  void bind(rpc::RpcNode& node);

  static constexpr const char* kService = "ocs";
  static constexpr const char* kRequestQuota = "RequestQuota";
  static constexpr const char* kReconcile = "Reconcile";

 private:
  std::unordered_map<common::Imsi, OcsAccount> accounts_;
};

}  // namespace magma::ocs
