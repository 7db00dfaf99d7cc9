#include "agw/sessiond.h"

#include <algorithm>

#include "common/log.h"
#include "obs/host_profiler.h"
#include "ocs/ocs.h"
#include "rpc/fields.h"

namespace magma::agw {

common::Bytes SessionRecord::serialize() const {
  rpc::Writer w;
  w.u64(id.value);
  w.str(imsi.value);
  w.bytes(flows.serialize());
  w.bytes(policy.serialize());
  w.i64(started);
  w.i64(interval_start);
  w.u64(interval_base_bytes);
  w.u64(used_bytes);
  w.u64(quota_granted);
  w.u64(quota_reported);
  w.boolean(quota_denied);
  return std::move(w).take();
}

common::Result<SessionRecord> SessionRecord::deserialize(
    common::BytesView data) {
  rpc::Reader r(data);
  SessionRecord s;
  s.id.value = r.u64();
  s.imsi.value = r.str();
  auto flows = SessionFlows::deserialize(r.bytes());
  if (!flows.ok()) return flows.error();
  s.flows = std::move(flows).take();
  auto policy = core::Policy::deserialize(r.bytes());
  if (!policy.ok()) return policy.error();
  s.policy = std::move(policy).take();
  s.started = r.i64();
  s.interval_start = r.i64();
  s.interval_base_bytes = r.u64();
  s.used_bytes = r.u64();
  s.quota_granted = r.u64();
  s.quota_reported = r.u64();
  s.quota_denied = r.boolean();
  if (!r.ok() || !r.at_end()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt session record"};
  }
  return s;
}

Sessiond::Sessiond(sim::Kernel& kernel, Pipelined& pipelined,
                   rpc::RpcNode* ocs)
    : kernel_(kernel), pipelined_(pipelined), ocs_(ocs) {}

void Sessiond::set_observability(obs::Tracer* tracer, std::string node) {
  tracer_ = tracer;
  node_ = std::move(node);
}

common::Result<common::SessionId> Sessiond::create_session(
    const CreateRequest& req) {
  obs::svc_request(status_);
  const obs::TraceContext span =
      obs::begin_span(tracer_, "create_session", "sessiond", node_);
  const obs::Tracer::Scope scope(tracer_, span);
  auto result = do_create_session(req);
  if (!result.ok()) {
    obs::svc_error(status_, result.error().message);
    obs::tag_span(tracer_, span, "error", result.error().message);
  }
  obs::end_span(tracer_, span);
  return result;
}

common::Result<common::SessionId> Sessiond::do_create_session(
    const CreateRequest& req) {
  if (by_imsi_.contains(req.imsi)) {
    // Re-attach: tear down the old session first (the UE context was lost
    // on its side; keeping two sessions would double-count usage). The
    // abnormal teardown counts as a bearer drop for this subscriber.
    if (sketches_ != nullptr) {
      sketches_->record(obs::sketch::SubscriberMetric::kBearerDrops,
                        req.imsi.value, 1,
                        obs::current_context(tracer_).trace_id);
    }
    end_session(req.imsi).ok();
  }

  SessionRecord session;
  session.id = common::SessionId{next_session_id_++};
  session.imsi = req.imsi;
  session.policy = req.policy;
  session.started = kernel_.now();
  session.interval_start = kernel_.now();

  const core::PolicyTier& tier = session.policy.tier_at(0);
  SessionFlows flows;
  flows.cookie = session.id.value;
  flows.ue_ip = req.ue_ip;
  flows.tunneled = req.tunneled;
  flows.agw_teid_ul = req.agw_teid_ul;
  flows.enb_teid_dl = req.enb_teid_dl;
  flows.enb_address = req.enb_address;
  flows.dl_rate_bps = tier.dl_rate_bps;
  flows.ul_rate_bps = tier.ul_rate_bps;
  flows.blocked = false;
  flows.home_routed = req.home_routed;
  flows.home_teid_remote = req.home_teid_remote;
  flows.home_agg_address = req.home_agg_address;
  flows.home_teid_local = req.home_teid_local;
  session.flows = flows;

  const obs::TraceContext flow_span =
      obs::begin_span(tracer_, "install_flows", "pipelined", node_);
  const common::Status installed =
      pipelined_.install_session(flows, kernel_.now());
  if (!installed.ok()) {
    obs::tag_span(tracer_, flow_span, "error", installed.error().message);
    obs::end_span(tracer_, flow_span);
    return installed.error();
  }
  obs::end_span(tracer_, flow_span);

  by_imsi_[req.imsi] = session;
  ++stats_.sessions_created;

  if (session.policy.charging == core::ChargingMode::kOcsQuota) {
    request_quota(by_imsi_[req.imsi]);
  }
  return session.id;
}

common::Status Sessiond::end_session(const common::Imsi& imsi) {
  obs::svc_request(status_);
  auto it = by_imsi_.find(imsi);
  if (it == by_imsi_.end()) {
    return common::Error{common::ErrorCode::kNotFound, "no session"};
  }
  SessionRecord& session = it->second;
  // Final usage reading before rules (and their counters) disappear; the
  // outstanding sketch byte delta flushes with it.
  refresh_usage(session);
  flush_sketch_bytes(session);

  if (session.policy.charging == core::ChargingMode::kOcsQuota &&
      ocs_ != nullptr) {
    // Reconcile: report actual usage against everything granted.
    const ocs::ReconcileRequest reconcile{
        session.imsi, session.quota_granted - session.quota_reported,
        session.used_bytes -
            std::min(session.used_bytes, session.quota_reported)};
    ocs_->call(ocs::Ocs::kService, ocs::Ocs::kReconcile,
               rpc::encode_record(reconcile), 5 * sim::kSecond,
               [](rpc::Result<rpc::Bytes>) {
                 // Best effort; a lost reconcile costs the operator at most
                 // the outstanding grant.
               });
  }

  pipelined_.remove_session(session.id.value).ok();
  by_imsi_.erase(it);
  ++stats_.sessions_ended;
  return common::Status::Ok();
}

common::Status Sessiond::update_bearer(const common::Imsi& imsi,
                                       common::Teid enb_teid_dl,
                                       common::Ipv4 enb_address) {
  obs::svc_request(status_);
  auto it = by_imsi_.find(imsi);
  if (it == by_imsi_.end()) {
    obs::svc_error(status_, "update_bearer: no session");
    return common::Error{common::ErrorCode::kNotFound, "no session"};
  }
  SessionFlows desired = it->second.flows;
  desired.enb_teid_dl = enb_teid_dl;
  desired.enb_address = enb_address;
  desired.idle = false;
  apply_flows(it->second, desired);
  return common::Status::Ok();
}

common::Status Sessiond::set_idle(const common::Imsi& imsi, bool idle) {
  obs::svc_request(status_);
  auto it = by_imsi_.find(imsi);
  if (it == by_imsi_.end()) {
    return common::Error{common::ErrorCode::kNotFound, "no session"};
  }
  SessionFlows desired = it->second.flows;
  desired.idle = idle;
  apply_flows(it->second, desired);
  return common::Status::Ok();
}

const SessionRecord* Sessiond::find(const common::Imsi& imsi) const {
  auto it = by_imsi_.find(imsi);
  return it == by_imsi_.end() ? nullptr : &it->second;
}

std::vector<common::Imsi> Sessiond::active_imsis() const {
  std::vector<common::Imsi> out;
  out.reserve(by_imsi_.size());
  for (const auto& [imsi, _] : by_imsi_) out.push_back(imsi);
  std::sort(out.begin(), out.end());
  return out;
}

void Sessiond::refresh_usage(SessionRecord& session) {
  refresh_usage(session, pipelined_.session_usage(session.id.value).bytes);
}

void Sessiond::refresh_usage(SessionRecord& session,
                             std::uint64_t live_bytes) {
  const std::uint64_t before = session.used_bytes;
  session.used_bytes = session.counter_base_bytes + live_bytes;
  // Usage deltas feed the bytes heavy-hitter sketch: every reading is a
  // delta of the cumulative counter, so the accumulated total equals
  // actual bytes however often usage is refreshed. Offers happen on the
  // sketch-mark cadence, not per poll.
  if (sketches_ != nullptr && session.used_bytes > before) {
    session.pending_sketch_bytes += session.used_bytes - before;
  }
}

void Sessiond::flush_sketch_bytes(SessionRecord& session) {
  if (sketches_ == nullptr || session.pending_sketch_bytes == 0) return;
  sketches_->record(obs::sketch::SubscriberMetric::kBytes,
                    session.imsi.value, session.pending_sketch_bytes);
  session.pending_sketch_bytes = 0;
}

void Sessiond::poll_usage() {
  MAGMA_HOST_SCOPE("sessiond", "poll_usage");
  const sim::TimePoint now = kernel_.now();
  // One egress-table pass for every session. It stays valid through the
  // loop: enforce() only reprograms the session it is enforcing.
  pipelined_.read_usage(poll_counters_);
  for (auto& [imsi, session] : by_imsi_) {
    refresh_usage(session, poll_counters_.get(session.id.value).bytes);
    enforce(session);
    if (sketches_ != nullptr && now >= session.next_sketch_mark) {
      session.next_sketch_mark = now + kSketchMarkInterval;
      sketches_->record_active(imsi.value, now);
      flush_sketch_bytes(session);
    }
  }
}

void Sessiond::apply_flows(SessionRecord& session,
                           const SessionFlows& desired) {
  if (session.flows == desired) return;
  // Reinstalling zeroes the flow counters; fold the live reading into the
  // base first so cumulative usage is preserved.
  refresh_usage(session);
  session.counter_base_bytes = session.used_bytes;
  pipelined_.install_session(desired, kernel_.now()).ok();
  session.flows = desired;
}

void Sessiond::enforce(SessionRecord& session) {
  const core::Policy& policy = session.policy;

  // Accounting interval rollover resets tier position and caps.
  if (policy.interval_ns > 0 &&
      kernel_.now() - session.interval_start >= policy.interval_ns) {
    session.interval_start = kernel_.now();
    session.interval_base_bytes = session.used_bytes;
  }
  const std::uint64_t used = session.used_in_interval();

  SessionFlows desired = session.flows;
  const core::PolicyTier& tier = policy.tier_at(used);
  if (desired.dl_rate_bps != tier.dl_rate_bps ||
      desired.ul_rate_bps != tier.ul_rate_bps) {
    ++stats_.tier_transitions;
    desired.dl_rate_bps = tier.dl_rate_bps;
    desired.ul_rate_bps = tier.ul_rate_bps;
  }

  bool blocked = false;
  switch (policy.charging) {
    case core::ChargingMode::kUnmetered:
      break;
    case core::ChargingMode::kCapped: {
      const std::uint64_t cap = policy.tiers.back().until_usage_bytes;
      if (cap > 0 && used >= cap) {
        blocked = true;
        if (!session.flows.blocked) {
          ++stats_.caps_enforced;
          if (sketches_ != nullptr) {
            sketches_->record(obs::sketch::SubscriberMetric::kQuotaRejections,
                              session.imsi.value);
          }
        }
      }
      break;
    }
    case core::ChargingMode::kOcsQuota: {
      if (session.used_bytes >= session.quota_granted) {
        blocked = session.quota_denied;
        if (!session.quota_denied) request_quota(session);
      } else if (session.quota_granted - session.used_bytes <
                 policy.quota_bytes / 5) {
        // Nearing the end of the grant: top up proactively (§3.4).
        request_quota(session);
      }
      break;
    }
  }
  desired.blocked = blocked;
  apply_flows(session, desired);
}

void Sessiond::request_quota(SessionRecord& session) {
  if (ocs_ == nullptr || session.quota_request_inflight ||
      session.quota_denied) {
    return;
  }
  session.quota_request_inflight = true;
  ++stats_.quota_requests;

  const common::Imsi imsi = session.imsi;
  ocs_->call(
      ocs::Ocs::kService, ocs::Ocs::kRequestQuota,
      rpc::encode_record(ocs::QuotaRequest{imsi, session.policy.quota_bytes}),
      5 * sim::kSecond, [this, imsi](rpc::Result<rpc::Bytes> result) {
        auto it = by_imsi_.find(imsi);
        if (it == by_imsi_.end()) return;  // session ended meanwhile
        SessionRecord& session = it->second;
        session.quota_request_inflight = false;
        if (!result.ok()) {
          // Unreachable OCS: fail open until the next poll retries — the
          // availability-over-consistency trade-off of §3.2/§3.4.
          return;
        }
        // A malformed grant reads as a denial.
        const std::uint64_t granted =
            rpc::decode_record<ocs::QuotaGrant>(result.value(),
                                                "corrupt quota grant")
                .value_or(ocs::QuotaGrant{})
                .granted_bytes;
        if (granted == 0) {
          session.quota_denied = true;
          ++stats_.quota_denials;
          if (sketches_ != nullptr) {
            sketches_->record(obs::sketch::SubscriberMetric::kQuotaRejections,
                              imsi.value);
          }
        } else {
          session.quota_granted += granted;
        }
        enforce(session);
      });
}

void Sessiond::checkpoint(rpc::Writer& w) const {
  w.u64(next_session_id_);
  w.u64(by_imsi_.size());
  for (const common::Imsi& imsi : active_imsis()) {
    w.bytes(by_imsi_.at(imsi).serialize());
  }
}

common::Status Sessiond::restore(common::BytesView image) {
  rpc::Reader r(image);
  const std::uint64_t next_id = r.u64();
  const std::uint64_t count = r.u64();
  std::unordered_map<common::Imsi, SessionRecord> restored;
  for (std::uint64_t i = 0; i < count; ++i) {
    auto session = SessionRecord::deserialize(r.bytes());
    if (!session.ok()) return session.error();
    restored[session.value().imsi] = std::move(session).take();
  }
  if (!r.ok() || !r.at_end()) {
    return common::Error{common::ErrorCode::kInvalidArgument,
                         "corrupt sessiond checkpoint"};
  }

  next_session_id_ = next_id;
  by_imsi_ = std::move(restored);
  // Reprogram the data plane to match the restored runtime state.
  std::vector<SessionFlows> flows;
  flows.reserve(by_imsi_.size());
  for (auto& [_, session] : by_imsi_) {
    // In-flight quota requests died with the failed instance. Data-plane
    // counters start from zero on this instance, so the checkpointed usage
    // becomes the counter base.
    session.quota_request_inflight = false;
    session.counter_base_bytes = session.used_bytes;
    flows.push_back(session.flows);
  }
  pipelined_.set_desired_sessions(flows, kernel_.now());
  return common::Status::Ok();
}

}  // namespace magma::agw
