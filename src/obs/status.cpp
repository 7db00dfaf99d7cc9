#include "obs/status.h"

#include "rpc/fields.h"

namespace magma::obs {

Service303& StatusRegistry::register_service(const std::string& service) {
  auto it = services_.find(service);
  if (it == services_.end()) {
    it = services_
             .emplace(service, std::unique_ptr<Service303>(
                                   new Service303(kernel_, service)))
             .first;
  }
  return *it->second;
}

std::vector<ServiceStatus> StatusRegistry::snapshot() const {
  std::vector<ServiceStatus> out;
  out.reserve(services_.size());
  for (const auto& [_, svc] : services_) {
    ServiceStatus s = svc->status_;
    s.uptime = kernel_.now() - svc->registered_at_;
    out.push_back(std::move(s));
  }
  return out;  // std::map iteration: already name-ordered
}

const Service303* StatusRegistry::find(const std::string& service) const {
  auto it = services_.find(service);
  return it == services_.end() ? nullptr : it->second.get();
}

MAGMA_WIRE_FIELDS(ServiceStatus, m.service, m.phase, m.uptime, m.requests,
                  m.errors, m.deadlines, m.last_error, m.last_error_time);

common::Bytes encode_gateway_status(
    const std::vector<ServiceStatus>& services) {
  return rpc::encode_record(services);
}

common::Result<std::vector<ServiceStatus>> decode_gateway_status(
    common::BytesView data) {
  return rpc::decode_record<std::vector<ServiceStatus>>(
      data, "corrupt gateway status");
}

}  // namespace magma::obs
