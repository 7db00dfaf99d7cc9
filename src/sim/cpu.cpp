#include "sim/cpu.h"

#include <algorithm>
#include <cassert>

namespace magma::sim {

CpuModel::CpuModel(Kernel& kernel, CpuConfig config)
    : kernel_(kernel), config_(config) {
  assert(config_.cores > 0);
  assert(config_.speed_ghz > 0);
  assert(config_.user_plane_cores <= config_.cores);
  cores_.resize(static_cast<std::size_t>(config_.cores));
  // Label 0: the catch-all for unlabeled submissions.
  labels_.push_back(TaskLabelStats{"unattributed", ""});
  label_ids_[{"unattributed", ""}] = kUnattributed;
}

CpuModel::LabelId CpuModel::intern_label(const std::string& service,
                                         const std::string& op) {
  // Heterogeneous find: zero allocations when the label is already interned
  // (the steady-state case — callers intern once and cache the id, but
  // defensive per-call interning must stay cheap too).
  auto it = label_ids_.find(common::StringPairView{service, op});
  if (it != label_ids_.end()) return it->second;
  const LabelId id = static_cast<LabelId>(labels_.size());
  labels_.push_back(TaskLabelStats{service, op});
  label_ids_.emplace(std::make_pair(service, op), id);
  return id;
}

void CpuModel::charge_wait(LabelId label, obs::WaitState state,
                           Duration amount) {
  if (amount <= 0 || label >= labels_.size()) return;
  TaskLabelStats& ls = labels_[label];
  switch (state) {
    case obs::WaitState::kRunq: ls.queue_wait_ns += amount; break;
    case obs::WaitState::kRpcWait: ls.rpc_wait_ns += amount; break;
    default: break;  // on-CPU and link time are charged elsewhere
  }
}

bool CpuModel::core_eligible(int core, WorkClass cls) const {
  if (config_.user_plane_cores < 0) return true;  // shared / flexible
  // Cores [0, user_plane_cores) are user-plane; the rest are control-plane.
  const bool is_user_core = core < config_.user_plane_cores;
  return (cls == WorkClass::kUser) == is_user_core;
}

int CpuModel::cores_for(WorkClass cls) const {
  if (config_.user_plane_cores < 0) return config_.cores;
  return cls == WorkClass::kUser ? config_.user_plane_cores
                                 : config_.cores - config_.user_plane_cores;
}

bool CpuModel::submit(WorkClass cls, LabelId label, double reference_seconds,
                      std::function<void()> done) {
  const auto idx = static_cast<std::size_t>(cls);
  if (label >= labels_.size()) label = kUnattributed;
  if (cores_for(cls) == 0) {
    ++stats_.rejected[idx];
    return false;
  }
  Work work{cls,
            from_seconds(reference_seconds / config_.speed_ghz),
            label,
            kernel_.now(),
            obs::current_context(context_tracer()),
            std::move(done)};
  // Try to find an idle eligible core.
  for (int c = 0; c < config_.cores; ++c) {
    if (!cores_[static_cast<std::size_t>(c)].busy && core_eligible(c, cls)) {
      start(c, std::move(work));
      return true;
    }
  }
  queue_[idx].push_back(std::move(work));
  stats_.queue_depth[idx] = queue_[idx].size();
  return true;
}

void CpuModel::start(int core, Work work) {
  auto& c = cores_[static_cast<std::size_t>(core)];
  assert(!c.busy);
  c.busy = true;
  const auto idx = static_cast<std::size_t>(work.cls);
  stats_.busy_ns[idx] += work.cost;
  c.busy_ns += work.cost;
  const LabelId label = work.label;
  TaskLabelStats& ls = labels_[label];
  ls.busy_ns += work.cost;
  const Duration wait = kernel_.now() - work.submitted;
  ls.queue_wait_ns += wait;
  queue_wait_[idx].observe(to_seconds(wait));
  // The submitting span (if any) just spent `wait` runnable and is about to
  // spend `cost` on-CPU; charge both so its wait vector sums to wall time.
  obs::Tracer* wt = context_tracer();
  obs::add_span_wait(wt, work.origin, obs::WaitState::kRunq, wait);
  obs::add_span_wait(wt, work.origin, obs::WaitState::kCpu, work.cost);
  obs::TraceContext span{};
  if (tracer_ != nullptr) {
    span = tracer_->begin(ls.service + "/" + ls.op,
                          "cpu" + std::to_string(core), node_,
                          obs::SpanKind::kInternal, work.origin);
  }
  auto done = std::move(work.done);
  kernel_.schedule(
      work.cost, [this, core, idx, label, span, done = std::move(done)]() {
        cores_[static_cast<std::size_t>(core)].busy = false;
        ++stats_.completed[idx];
        ++labels_[label].completed;
        obs::end_span(tracer_, span);
        if (done) done();
        on_core_idle(core);
      });
}

void CpuModel::on_core_idle(int core) {
  if (cores_[static_cast<std::size_t>(core)].busy) return;
  // Serve control first only if its queue is older? Simpler and fair enough:
  // alternate by picking the class whose head has waited longest is overkill;
  // drain user-plane first when shared would starve control, so pick the
  // class with the larger backlog-normalized queue. In the partitioned case
  // only one class is eligible anyway.
  WorkClass order[2];
  if (queue_[0].size() >= queue_[1].size()) {
    order[0] = WorkClass::kControl;
    order[1] = WorkClass::kUser;
  } else {
    order[0] = WorkClass::kUser;
    order[1] = WorkClass::kControl;
  }
  for (WorkClass cls : order) {
    const auto idx = static_cast<std::size_t>(cls);
    if (queue_[idx].empty() || !core_eligible(core, cls)) continue;
    Work next = std::move(queue_[idx].front());
    queue_[idx].pop_front();
    stats_.queue_depth[idx] = queue_[idx].size();
    start(core, std::move(next));
    return;
  }
}

std::map<std::string, double> CpuModel::service_busy_seconds() const {
  std::map<std::string, double> out;
  for (const TaskLabelStats& ls : labels_) {
    if (ls.busy_ns == 0) continue;
    out[ls.service] += to_seconds(ls.busy_ns);
  }
  return out;
}

std::vector<Duration> CpuModel::core_busy_ns() const {
  std::vector<Duration> out;
  out.reserve(cores_.size());
  for (const Core& c : cores_) out.push_back(c.busy_ns);
  return out;
}

std::vector<double> CpuModel::utilization_window(
    UtilizationWindow& window) const {
  const TimePoint now = kernel_.now();
  std::vector<double> out(cores_.size(), 0.0);
  const bool fresh =
      window.at < 0 || window.busy.size() != cores_.size() || window.at > now;
  if (!fresh && now > window.at) {
    const double span = to_seconds(now - window.at);
    for (std::size_t i = 0; i < cores_.size(); ++i) {
      const double busy = to_seconds(cores_[i].busy_ns - window.busy[i]);
      out[i] = std::clamp(busy / span, 0.0, 1.0);
    }
  }
  window.busy = core_busy_ns();
  window.at = now;
  return out;
}

void CpuModel::set_tracer(obs::Tracer* tracer, std::string node) {
  tracer_ = tracer;
  node_ = std::move(node);
}

}  // namespace magma::sim
