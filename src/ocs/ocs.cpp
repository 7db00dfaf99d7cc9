#include "ocs/ocs.h"

#include <algorithm>

namespace magma::ocs {

void Ocs::create_account(const common::Imsi& imsi,
                         std::uint64_t balance_bytes) {
  accounts_[imsi] = OcsAccount{balance_bytes, 0, 0};
}

QuotaGrant Ocs::request_quota(const common::Imsi& imsi,
                              std::uint64_t requested) {
  auto it = accounts_.find(imsi);
  if (it == accounts_.end()) return QuotaGrant{0};
  OcsAccount& acct = it->second;
  const std::uint64_t granted = std::min(requested, acct.balance_bytes);
  acct.balance_bytes -= granted;
  acct.outstanding_bytes += granted;
  return QuotaGrant{granted};
}

common::Status Ocs::reconcile(const common::Imsi& imsi, std::uint64_t granted,
                              std::uint64_t used) {
  auto it = accounts_.find(imsi);
  if (it == accounts_.end()) {
    return common::Error{common::ErrorCode::kNotFound, "no account"};
  }
  OcsAccount& acct = it->second;
  const std::uint64_t settled = std::min(granted, acct.outstanding_bytes);
  acct.outstanding_bytes -= settled;
  // Under-use returns to the balance; over-use (double-spend across AGWs)
  // is recorded as consumed but cannot be recovered — that is the business
  // cost the quota size caps.
  if (used < settled) acct.balance_bytes += settled - used;
  acct.consumed_bytes += used;
  return common::Status::Ok();
}

const OcsAccount* Ocs::account(const common::Imsi& imsi) const {
  auto it = accounts_.find(imsi);
  return it == accounts_.end() ? nullptr : &it->second;
}

void Ocs::bind(rpc::RpcNode& node) {
  node.register_method(
      kService, kRequestQuota,
      [this](const rpc::Bytes& request, rpc::Respond respond) {
        auto req = rpc::decode_record<QuotaRequest>(request, "bad request");
        if (!req.ok()) {
          respond(rpc::Error{req.error()});
          return;
        }
        respond(rpc::encode_record(
            request_quota(req.value().imsi, req.value().requested_bytes)));
      });

  node.register_method(
      kService, kReconcile,
      [this](const rpc::Bytes& request, rpc::Respond respond) {
        auto req = rpc::decode_record<ReconcileRequest>(request, "bad request");
        if (!req.ok()) {
          respond(rpc::Error{req.error()});
          return;
        }
        const common::Status status =
            reconcile(req.value().imsi, req.value().granted_bytes,
                      req.value().used_bytes);
        if (!status.ok()) {
          respond(rpc::Error{status.error()});
          return;
        }
        respond(rpc::Bytes{});
      });
}

}  // namespace magma::ocs
