#include "agw/accessd.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"
#include "crypto/hmac.h"

namespace magma::agw {

using proto::lte::EmmEvent;
using proto::lte::EmmState;

namespace {

// Per-stage CPU cost in reference-GHz-seconds (DESIGN.md §6 calibration:
// the three attach stages sum to 0.50, putting a 1.6 GHz single-worker AGW
// at 3.2 attach/s — it absorbs Figure 5's 3 UE/s ramp but breaks just past
// it, Figure 6's knee — and a 3-worker 2.6 GHz VM at ~15.6/s, the paper's
// "a 4 vCPU instance of our virtual AGW supports 16 attaches per second").
constexpr double kCostBeginAttach = 0.20;
constexpr double kCostVerifyAuth = 0.10;
constexpr double kCostEstablish = 0.20;
constexpr double kCostDetach = 0.05;
// Give up on half-open attach contexts after this guard (T3450-like).
constexpr sim::Duration kContextGuard = 30 * sim::kSecond;

}  // namespace

const char* ran_type_name(RanType rat) {
  switch (rat) {
    case RanType::kLte: return "LTE";
    case RanType::kNr5g: return "5G";
    case RanType::kWifi: return "WiFi";
  }
  return "?";
}

Accessd::Accessd(sim::Kernel& kernel, sim::CpuModel* cpu,
                 SubscriberDb& subscribers, PolicyDb& policies,
                 Mobilityd& mobilityd, Sessiond& sessiond,
                 AccessdConfig config)
    : kernel_(kernel),
      cpu_(cpu),
      subscribers_(subscribers),
      policies_(policies),
      mobilityd_(mobilityd),
      sessiond_(sessiond),
      config_(config) {
  if (cpu_ != nullptr) {
    label_begin_ = cpu_->intern_label("accessd", "begin_attach");
    label_verify_ = cpu_->intern_label("accessd", "verify_auth");
    label_establish_ = cpu_->intern_label("accessd", "establish");
    label_detach_ = cpu_->intern_label("accessd", "detach");
    label_resync_ = cpu_->intern_label("accessd", "resync_auth");
  }
}

void Accessd::set_observability(obs::Tracer* tracer, std::string node) {
  tracer_ = tracer;
  node_ = std::move(node);
}

// ---------------------------------------------------------------------------
// Control-plane work scheduling
// ---------------------------------------------------------------------------

void Accessd::submit_work(sim::LabelId label, double cost,
                          obs::TraceContext origin,
                          std::function<void()> logic,
                          std::function<void()> on_reject) {
  obs::svc_request(status_);
  if (work_queue_.size() >= config_.max_queue) {
    ++stats_.overload_rejections;
    obs::svc_error(status_, "control plane overloaded");
    if (on_reject) on_reject();
    return;
  }
  work_queue_.push_back(
      Work{label, cost, origin, kernel_.now(), std::move(logic)});
  pump();
}

void Accessd::pump() {
  while (active_workers_ < config_.workers && !work_queue_.empty()) {
    Work work = std::move(work_queue_.front());
    work_queue_.pop_front();
    ++active_workers_;
    // Time spent waiting for a worker shard is run-queue wait in every
    // sense that matters to the operator: the stage was runnable, no
    // execution slot was free. Charge it to the stage span and the label.
    const sim::Duration shard_wait = kernel_.now() - work.queued_at;
    obs::add_span_wait(tracer_, work.origin, obs::WaitState::kRunq,
                       shard_wait);
    if (cpu_ != nullptr) {
      cpu_->charge_wait(work.label, obs::WaitState::kRunq, shard_wait);
    }
    auto finish = [this, logic = std::move(work.logic)]() {
      logic();
      --active_workers_;
      pump();
    };
    if (cpu_ != nullptr) {
      // Submit under the stage span's context — pump() often runs from a
      // *previous* task's completion, whose context must not absorb this
      // work's runq/cpu charges.
      const obs::Tracer::Scope scope(tracer_, work.origin);
      if (!cpu_->submit(sim::WorkClass::kControl, work.label, work.cost,
                        std::move(finish))) {
        // No control cores at all: reject rather than hang.
        --active_workers_;
        ++stats_.overload_rejections;
        obs::svc_error(status_, "no control cores");
      }
    } else {
      kernel_.schedule(0, std::move(finish));
    }
  }
}

// ---------------------------------------------------------------------------
// Attach context management
// ---------------------------------------------------------------------------

void Accessd::arm_guard(const common::Imsi& imsi) {
  auto it = contexts_.find(imsi);
  if (it == contexts_.end()) return;
  kernel_.cancel(it->second.guard_timer);
  // imsi arrives as a const&; an init-capture keeps the closure member
  // non-const so the event's move stays noexcept (EventFn requires it).
  it->second.guard_timer = kernel_.schedule(
      kContextGuard, [this, imsi = imsi]() {
        auto it = contexts_.find(imsi);
        if (it == contexts_.end()) return;
        if (it->second.fsm.state() != EmmState::kRegistered) {
          // Half-open attach never completed: implicit detach (§3.4 —
          // runtime state is ephemeral and recoverable; the UE just
          // re-attaches). A subscriber that keeps losing contexts this
          // way shows up in the bearer-drop heavy hitters.
          if (sketches_ != nullptr) {
            sketches_->record(obs::sketch::SubscriberMetric::kBearerDrops,
                              imsi.value);
          }
          drop_context(imsi);
        }
      });
}

void Accessd::drop_context(const common::Imsi& imsi) {
  auto it = contexts_.find(imsi);
  if (it == contexts_.end()) return;
  kernel_.cancel(it->second.guard_timer);
  contexts_.erase(it);
}

void Accessd::note_attach_failure(const common::Imsi& imsi) {
  if (sketches_ == nullptr) return;
  // Rejections run under the stage span's scope, so the current trace id
  // is the failing attach — it rides along as the heavy-hitter exemplar
  // and stays pinned by the span's error tag (TailSampler error path).
  sketches_->record(obs::sketch::SubscriberMetric::kAttachFailures,
                    imsi.value, 1, obs::current_context(tracer_).trace_id);
}

std::optional<EmmState> Accessd::ue_state(const common::Imsi& imsi) const {
  auto it = contexts_.find(imsi);
  if (it == contexts_.end()) return std::nullopt;
  return it->second.fsm.state();
}

// ---------------------------------------------------------------------------
// Stage logic (runs after the CPU charge)
// ---------------------------------------------------------------------------

common::Result<AuthChallenge> Accessd::do_begin(const common::Imsi& imsi,
                                                RanType rat) {
  const auto idx = static_cast<std::size_t>(rat);
  ++stats_.attach_started[idx];
  if (sketches_ != nullptr) sketches_->record_active(imsi.value, kernel_.now());

  auto sub = subscribers_.get(imsi);
  if (!sub.has_value()) {
    ++stats_.attach_rejected[idx];
    note_attach_failure(imsi);
    return common::Error{common::ErrorCode::kNotFound,
                         "unknown subscriber " + imsi.value};
  }
  if (!sub->active) {
    ++stats_.attach_rejected[idx];
    note_attach_failure(imsi);
    return common::Error{common::ErrorCode::kPermissionDenied,
                         "subscriber deactivated"};
  }

  // Restarting UE: discard any stale context (and its session — the UE
  // clearly lost its state, so re-establish cleanly).
  if (contexts_.contains(imsi)) {
    if (sessiond_.find(imsi) != nullptr) sessiond_.end_session(imsi).ok();
    drop_context(imsi);
  }

  UeContext& ctx = contexts_[imsi];
  ctx.rat = rat;
  if (!ctx.fsm.handle(EmmEvent::kAttachRequested)) {
    ++stats_.invalid_transitions;
    drop_context(imsi);
    return common::Error{common::ErrorCode::kFailedPrecondition,
                         "invalid attach state"};
  }

  AuthChallenge challenge;
  if (rat == RanType::kWifi) {
    // WiFi CHAP: challenge is random; the expected digest is derived from
    // the subscriber's WiFi credential. Same generic flow, different
    // verifier (the "union of capabilities" subscriber row, §3.1).
    auto vec_result = subscribers_.generate_auth_vector(imsi);
    if (!vec_result.ok()) {
      ++stats_.attach_rejected[idx];
      note_attach_failure(imsi);
      drop_context(imsi);
      return vec_result.error();
    }
    AuthVector vec = std::move(vec_result).take();
    const crypto::Digest256 digest = crypto::hmac_sha256(
        common::to_bytes(sub->wifi_password),
        common::BytesView(vec.rand.data(), vec.rand.size()));
    std::memcpy(vec.xres.data(), digest.data(), vec.xres.size());
    std::memcpy(vec.kasme.data(), digest.data(), vec.kasme.size());
    ctx.vector = vec;
    challenge.rand = vec.rand;  // AUTN unused for CHAP
  } else {
    auto vec = subscribers_.generate_auth_vector(imsi);
    if (!vec.ok()) {
      ++stats_.attach_rejected[idx];
      note_attach_failure(imsi);
      drop_context(imsi);
      return vec.error();
    }
    ctx.vector = std::move(vec).take();
    challenge.rand = ctx.vector.rand;
    challenge.autn = ctx.vector.autn;
  }
  ctx.has_vector = true;
  arm_guard(imsi);
  return challenge;
}

common::Result<SecurityKeys> Accessd::do_verify(
    const common::Imsi& imsi, const common::Bytes& response) {
  auto it = contexts_.find(imsi);
  if (it == contexts_.end() || !it->second.has_vector) {
    return common::Error{common::ErrorCode::kFailedPrecondition,
                         "no attach in progress"};
  }
  UeContext& ctx = it->second;
  if (ctx.fsm.state() != EmmState::kAuthPending) {
    ++stats_.invalid_transitions;
    return common::Error{common::ErrorCode::kFailedPrecondition,
                         "unexpected auth response"};
  }

  const std::size_t n = ctx.vector.xres.size();
  const bool match =
      response.size() >= n &&
      common::constant_time_equal(
          common::BytesView(response.data(), n),
          common::BytesView(ctx.vector.xres.data(), n));
  if (!match) {
    ++stats_.auth_failures;
    ++stats_.attach_rejected[static_cast<std::size_t>(ctx.rat)];
    note_attach_failure(imsi);
    ctx.fsm.handle(EmmEvent::kAuthFailed);
    drop_context(imsi);
    return common::Error{common::ErrorCode::kUnauthenticated,
                         "RES mismatch"};
  }

  ctx.fsm.handle(EmmEvent::kAuthSucceeded);
  SecurityKeys keys;
  keys.kasme = ctx.vector.kasme;
  return keys;
}

void Accessd::resync_auth(
    const common::Imsi& imsi, const std::array<std::uint8_t, 14>& auts,
    std::function<void(common::Result<AuthChallenge>)> done) {
  submit_work(
      label_resync_, kCostBeginAttach,
      obs::current_context(tracer_),
      [this, imsi, auts, done]() {
        auto it = contexts_.find(imsi);
        if (it == contexts_.end() || !it->second.has_vector) {
          done(common::Error{common::ErrorCode::kFailedPrecondition,
                             "no attach in progress"});
          return;
        }
        UeContext& ctx = it->second;
        const common::Status status =
            subscribers_.resync(imsi, auts, ctx.vector.rand);
        if (!status.ok()) {
          ++stats_.auth_failures;
          note_attach_failure(imsi);
          ctx.fsm.handle(EmmEvent::kAuthFailed);
          drop_context(imsi);
          done(status.error());
          return;
        }
        ++stats_.resyncs;
        // Fresh vector from the resynchronised SQN; the FSM stays in
        // AuthPending (the challenge is simply re-issued).
        auto vec = subscribers_.generate_auth_vector(imsi);
        if (!vec.ok()) {
          drop_context(imsi);
          done(vec.error());
          return;
        }
        ctx.vector = std::move(vec).take();
        AuthChallenge challenge;
        challenge.rand = ctx.vector.rand;
        challenge.autn = ctx.vector.autn;
        arm_guard(imsi);
        done(challenge);
      },
      [done]() {
        done(common::Error{common::ErrorCode::kResourceExhausted,
                           "control plane overloaded"});
      });
}

void Accessd::do_establish(
    const EstablishRequest& req,
    std::function<void(common::Result<SessionInfo>)> done) {
  auto it = contexts_.find(req.imsi);
  if (it == contexts_.end()) {
    done(common::Error{common::ErrorCode::kFailedPrecondition,
                       "no attach in progress"});
    return;
  }
  UeContext& ctx = it->second;
  if (ctx.fsm.state() != EmmState::kSecurityPending) {
    ++stats_.invalid_transitions;
    done(common::Error{common::ErrorCode::kFailedPrecondition,
                       "security not established"});
    return;
  }
  ctx.fsm.handle(EmmEvent::kSecurityEstablished);

  auto sub = subscribers_.get(req.imsi);
  if (!sub.has_value()) {
    ctx.fsm.handle(EmmEvent::kContextFailed);
    drop_context(req.imsi);
    done(common::Error{common::ErrorCode::kNotFound, "subscriber vanished"});
    return;
  }
  const core::Policy policy = policies_.resolve(sub->policy_name);
  const common::Teid agw_teid{next_teid_++};

  if (federation_) {
    // Home routing: the MNO's P-GW anchors the session and allocates the
    // UE address; the data plane tunnels via the GTP aggregator.
    const common::Teid home_teid_local{next_teid_++};
    const common::Imsi imsi = req.imsi;
    const obs::TraceContext parent = obs::current_context(tracer_);
    federation_(
        imsi, home_teid_local,
        [this, req, policy, agw_teid, home_teid_local, parent,
         done](common::Result<FederatedSession> fed) {
          const obs::Tracer::Scope scope(tracer_, parent);
          auto it = contexts_.find(req.imsi);
          if (it == contexts_.end()) {
            done(common::Error{common::ErrorCode::kFailedPrecondition,
                               "context vanished"});
            return;
          }
          UeContext& ctx = it->second;
          if (!fed.ok()) {
            ++stats_.attach_rejected[static_cast<std::size_t>(ctx.rat)];
            note_attach_failure(req.imsi);
            ctx.fsm.handle(EmmEvent::kContextFailed);
            drop_context(req.imsi);
            done(fed.error());
            return;
          }
          done(finish_establish(req, ctx, policy, fed.value().ue_ip, true,
                                fed.value(), agw_teid, home_teid_local));
        });
    return;
  }

  // mobilityd runs synchronously in sim time; the span still documents the
  // allocation (and its outcome) as a step of the attach tree.
  const obs::TraceContext ip_span =
      obs::begin_span(tracer_, "allocate_ip", "mobilityd", node_);
  auto ip = mobilityd_.allocate(req.imsi, kernel_.now());
  if (!ip.ok()) {
    obs::tag_span(tracer_, ip_span, "error", ip.error().message);
    obs::end_span(tracer_, ip_span);
    ++stats_.attach_rejected[static_cast<std::size_t>(ctx.rat)];
    note_attach_failure(req.imsi);
    ctx.fsm.handle(EmmEvent::kContextFailed);
    drop_context(req.imsi);
    done(ip.error());
    return;
  }
  obs::end_span(tracer_, ip_span);
  done(finish_establish(req, ctx, policy, ip.value(), false,
                        FederatedSession{}, agw_teid, common::Teid{0}));
}

common::Result<SessionInfo> Accessd::finish_establish(
    const EstablishRequest& req, UeContext& ctx, const core::Policy& policy,
    common::Ipv4 ue_ip, bool home_routed, const FederatedSession& fed,
    common::Teid agw_teid, common::Teid home_teid_local) {
  Sessiond::CreateRequest create;
  create.imsi = req.imsi;
  create.ue_ip = ue_ip;
  create.tunneled = ctx.rat != RanType::kWifi;
  create.agw_teid_ul = agw_teid;
  create.enb_teid_dl = req.enb_teid_dl;
  create.enb_address = req.enb_address;
  create.policy = policy;
  create.home_routed = home_routed;
  create.home_teid_remote = fed.home_teid_remote;
  create.home_agg_address = fed.home_agg_address;
  create.home_teid_local = home_teid_local;
  auto session = sessiond_.create_session(create);
  if (!session.ok()) {
    ++stats_.attach_rejected[static_cast<std::size_t>(ctx.rat)];
    note_attach_failure(req.imsi);
    if (!home_routed) mobilityd_.release(req.imsi, kernel_.now()).ok();
    ctx.fsm.handle(EmmEvent::kContextFailed);
    drop_context(req.imsi);
    return session.error();
  }

  ctx.fsm.handle(EmmEvent::kContextEstablished);
  kernel_.cancel(ctx.guard_timer);
  ++stats_.attach_completed[static_cast<std::size_t>(ctx.rat)];

  const core::PolicyTier& tier = policy.tier_at(0);
  SessionInfo info;
  info.session_id = session.value();
  info.ue_ip = ue_ip;
  info.agw_teid_ul = agw_teid;
  info.qci = policy.qci;
  info.ambr_dl_bps = tier.dl_rate_bps;
  info.ambr_ul_bps = tier.ul_rate_bps;
  return info;
}

// ---------------------------------------------------------------------------
// Public async entry points
// ---------------------------------------------------------------------------

void Accessd::begin_attach(
    const common::Imsi& imsi, RanType rat,
    std::function<void(common::Result<AuthChallenge>)> done) {
  // The stage span opens at submission, so it covers queue wait + CPU
  // charge + logic — the components of the MME bottleneck of Figure 6.
  const obs::TraceContext span =
      obs::begin_span(tracer_, "begin_attach", "accessd", node_);
  auto finish = [this, span,
                 done = std::move(done)](common::Result<AuthChallenge> r) {
    obs::end_span(tracer_, span);
    done(std::move(r));
  };
  submit_work(
      label_begin_, kCostBeginAttach, span,
      [this, imsi, rat, span, finish]() {
        obs::Tracer::Scope scope(tracer_, span);
        finish(do_begin(imsi, rat));
      },
      [this, span, finish]() {
        obs::tag_span(tracer_, span, "error", "overload");
        finish(common::Error{common::ErrorCode::kResourceExhausted,
                             "control plane overloaded"});
      });
}

void Accessd::verify_auth(
    const common::Imsi& imsi, common::BytesView response,
    std::function<void(common::Result<SecurityKeys>)> done) {
  common::Bytes copy(response.begin(), response.end());
  const obs::TraceContext span =
      obs::begin_span(tracer_, "verify_auth", "accessd", node_);
  auto finish = [this, span,
                 done = std::move(done)](common::Result<SecurityKeys> r) {
    obs::end_span(tracer_, span);
    done(std::move(r));
  };
  submit_work(
      label_verify_, kCostVerifyAuth, span,
      [this, imsi, copy = std::move(copy), span, finish]() {
        obs::Tracer::Scope scope(tracer_, span);
        finish(do_verify(imsi, copy));
      },
      [this, span, finish]() {
        obs::tag_span(tracer_, span, "error", "overload");
        finish(common::Error{common::ErrorCode::kResourceExhausted,
                             "control plane overloaded"});
      });
}

void Accessd::establish(
    const EstablishRequest& req,
    std::function<void(common::Result<SessionInfo>)> done) {
  const obs::TraceContext span =
      obs::begin_span(tracer_, "establish", "accessd", node_);
  auto finish = [this, span,
                 done = std::move(done)](common::Result<SessionInfo> r) {
    obs::end_span(tracer_, span);
    done(std::move(r));
  };
  submit_work(
      label_establish_, kCostEstablish, span,
      [this, req, span, finish]() {
        obs::Tracer::Scope scope(tracer_, span);
        do_establish(req, finish);
      },
      [this, span, finish]() {
        obs::tag_span(tracer_, span, "error", "overload");
        finish(common::Error{common::ErrorCode::kResourceExhausted,
                             "control plane overloaded"});
      });
}

void Accessd::detach(const common::Imsi& imsi,
                     std::function<void(common::Status)> done) {
  submit_work(
      label_detach_, kCostDetach, obs::current_context(tracer_),
      [this, imsi, done]() {
        auto it = contexts_.find(imsi);
        if (it == contexts_.end()) {
          done(common::Error{common::ErrorCode::kNotFound, "not attached"});
          return;
        }
        UeContext& ctx = it->second;
        if (ctx.fsm.state() == EmmState::kRegistered) {
          ctx.fsm.handle(EmmEvent::kDetachRequested);
          ctx.fsm.handle(EmmEvent::kDetachComplete);
        } else {
          ctx.fsm.handle(EmmEvent::kImplicitDetach);
        }
        if (sessiond_.find(imsi) != nullptr) sessiond_.end_session(imsi).ok();
        mobilityd_.release(imsi, kernel_.now()).ok();
        drop_context(imsi);
        ++stats_.detaches;
        done(common::Status::Ok());
      },
      [done]() {
        done(common::Error{common::ErrorCode::kResourceExhausted,
                           "control plane overloaded"});
      });
}

}  // namespace magma::agw
