#include "rpc/rpc.h"

#include <cassert>

#include "common/log.h"

namespace magma::rpc {

namespace {
constexpr std::uint8_t kRequest = 1;
constexpr std::uint8_t kResponse = 2;
}  // namespace

RpcNode::RpcNode(sim::Kernel& kernel, net::Channel& channel, std::string name)
    : kernel_(kernel), channel_(channel), name_(std::move(name)) {
  channel_.set_receiver([this](Bytes raw) { on_message(std::move(raw)); });
  // Fail fast when the transport gives up on a frame (connection reset)
  // instead of letting the caller wait out its deadline — gRPC maps a TCP
  // RST to UNAVAILABLE the same way.
  channel_.set_send_failure_handler(
      [this](Bytes raw) { on_send_failed(std::move(raw)); });
}

void RpcNode::register_method(const std::string& service,
                              const std::string& method, Handler handler) {
  handlers_[{service, method}] = std::move(handler);
}

void RpcNode::set_tracer(obs::Tracer* tracer, std::string node_label) {
  tracer_ = tracer;
  node_label_ = std::move(node_label);
}

void RpcNode::finish_client_span(obs::TraceContext span, const char* status) {
  if (!span.valid()) return;
  obs::tag_span(tracer_, span, "status", status);
  obs::end_span(tracer_, span);
}

sim::LabelId RpcNode::rpc_label(const std::string& service,
                                const std::string& method) {
  // Transparent find: the steady-state hit path allocates nothing.
  auto it = rpc_labels_.find(common::StringPairView{service, method});
  if (it != rpc_labels_.end()) return it->second;
  const sim::LabelId id =
      cpu_->intern_label("rpc_client", service + "/" + method);
  rpc_labels_.emplace(std::make_pair(service, method), id);
  return id;
}

void RpcNode::charge_rpc_wait(const PendingCall& pc) {
  if (cpu_ == nullptr) return;
  cpu_->charge_wait(pc.label, obs::WaitState::kRpcWait,
                    kernel_.now() - pc.issued_at);
}

void RpcNode::call(const std::string& service, const std::string& method,
                   Bytes request, sim::Duration deadline,
                   std::function<void(Result<Bytes>)> on_done) {
  MAGMA_HOST_SCOPE("rpc", "call_encode");
  const std::uint64_t id = next_call_id_++;
  ++stats_.calls_sent;

  PendingCall pc;
  pc.on_done = std::move(on_done);
  pc.span = obs::begin_span(tracer_, service + "/" + method, "rpc",
                            node_label_, obs::SpanKind::kClient);
  pc.issued_at = kernel_.now();
  if (cpu_ != nullptr) pc.label = rpc_label(service, method);
  pc.timeout = kernel_.schedule(deadline, [this, id]() {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    auto cb = std::move(it->second.on_done);
    charge_rpc_wait(it->second);
    finish_client_span(it->second.span, "deadline_exceeded");
    pending_.erase(it);
    ++stats_.calls_timed_out;
    cb(Error{ErrorCode::kDeadlineExceeded, "rpc deadline exceeded"});
  });
  const WireTrace trace{pc.span.trace_id, pc.span.span_id};
  pending_.emplace(id, std::move(pc));

  Writer w;
  w.u8(kRequest);
  w.u64(id);
  write_trace(w, trace);
  w.str(service);
  w.str(method);
  w.bytes(request);
  channel_.send(std::move(w).take());
}

void RpcNode::on_message(Bytes raw) {
  Reader r(raw);
  const std::uint8_t type = r.u8();
  if (!r.ok()) return;
  switch (type) {
    case kRequest:
      handle_request(r);
      break;
    case kResponse:
      handle_response(r);
      break;
    default:
      MLOG_WARN("rpc") << name_ << ": unknown frame type "
                       << static_cast<int>(type);
  }
}

void RpcNode::on_send_failed(Bytes raw) {
  Reader r(raw);
  const std::uint8_t type = r.u8();
  const std::uint64_t id = r.u64();
  if (!r.ok()) return;
  if (type != kRequest) return;  // a dead response: the caller's deadline
                                 // (or its own send failure) covers it
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // already timed out or answered
  kernel_.cancel(it->second.timeout);
  auto cb = std::move(it->second.on_done);
  charge_rpc_wait(it->second);
  finish_client_span(it->second.span, "unavailable");
  pending_.erase(it);
  ++stats_.calls_send_failed;
  cb(Error{ErrorCode::kUnavailable, "transport reset: request not delivered"});
}

void RpcNode::handle_request(Reader& r) {
  MAGMA_HOST_SCOPE("rpc", "dispatch");
  const std::uint64_t id = r.u64();
  const WireTrace trace = read_trace(r);
  const std::string service = r.str();
  const std::string method = r.str();
  const Bytes payload = r.bytes();
  if (!r.ok()) return;

  auto it = handlers_.find(common::StringPairView{service, method});
  if (it == handlers_.end()) {
    send_response(id, Error{ErrorCode::kNotFound,
                            "no handler for " + service + "/" + method});
    return;
  }
  ++stats_.calls_served;

  // Server span under the caller's client span. The gap between the two
  // spans' starts is the one-way network latency the caller paid.
  obs::TraceContext server_span{};
  if (tracer_ != nullptr && trace.trace_id != 0) {
    server_span = tracer_->begin(service + "/" + method, "rpc", node_label_,
                                 obs::SpanKind::kServer,
                                 obs::TraceContext{trace.trace_id,
                                                   trace.span_id});
  }
  // The handler body runs under the server context, so spans it opens (and
  // calls it makes) nest into the caller's trace; an async respond closes
  // the server span whenever it fires.
  obs::Tracer::Scope scope(tracer_, server_span);
  it->second(payload, [this, id, server_span](Result<Bytes> result) {
    obs::end_span(tracer_, server_span);
    send_response(id, result);
  });
}

void RpcNode::send_response(std::uint64_t call_id,
                            const Result<Bytes>& result) {
  MAGMA_HOST_SCOPE("rpc", "encode_response");
  Writer w;
  w.u8(kResponse);
  w.u64(call_id);
  if (result.ok()) {
    w.u8(static_cast<std::uint8_t>(ErrorCode::kOk));
    w.str("");
    w.bytes(result.value());
  } else {
    w.u8(static_cast<std::uint8_t>(result.error().code));
    w.str(result.error().message);
    w.bytes({});
  }
  channel_.send(std::move(w).take());
}

void RpcNode::handle_response(Reader& r) {
  MAGMA_HOST_SCOPE("rpc", "decode_response");
  const std::uint64_t id = r.u64();
  const auto code = static_cast<ErrorCode>(r.u8());
  const std::string message = r.str();
  const Bytes payload = r.bytes();
  if (!r.ok()) return;

  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // late duplicate or already timed out
  kernel_.cancel(it->second.timeout);
  auto cb = std::move(it->second.on_done);
  charge_rpc_wait(it->second);
  finish_client_span(it->second.span,
                     code == ErrorCode::kOk ? "ok" : "error");
  pending_.erase(it);

  if (code == ErrorCode::kOk) {
    ++stats_.calls_ok;
    cb(payload);
  } else {
    ++stats_.calls_failed;
    cb(Error{code, message});
  }
}

RpcLink::RpcLink(sim::Kernel& kernel, sim::Rng& rng, std::string server_name,
                 std::string client_name, const sim::LinkConfig& link,
                 const net::ReliableConfig& reliable)
    : path(kernel, rng, link),
      channels(net::make_reliable_pair(kernel, path, reliable)),
      server(kernel, *channels.a, std::move(server_name)),
      client(kernel, *channels.b, std::move(client_name)) {}

}  // namespace magma::rpc
