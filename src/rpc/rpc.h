// RPC framework over net::Channel — the repository's stand-in for gRPC.
//
// All Magma-internal communication (RAN front-end ↔ generic AGW services,
// AGW ↔ orchestrator, FeG ↔ MNO core) goes through this layer, mirroring
// §3.1's "all communication ... uses gRPC". An RpcNode is symmetric: either
// end of a channel can expose services and originate calls, which is how the
// orchestrator's streamer pushes and the AGW's poller both work over one
// long-lived connection.
//
// Semantics (like gRPC over TCP):
//  * calls carry a deadline; a lost transport means DEADLINE_EXCEEDED, not a
//    hang;
//  * responses are matched to calls by id; duplicates are ignored;
//  * handlers respond asynchronously, so a service can charge CPU time to a
//    sim::CpuModel before answering.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "common/bytes.h"
#include "common/result.h"
#include "common/string_pair_map.h"
#include "net/channel.h"
#include "obs/trace.h"
#include "rpc/wire.h"
#include "sim/cpu.h"
#include "sim/kernel.h"

namespace magma::rpc {

using common::Bytes;
using common::Error;
using common::ErrorCode;
using common::Result;

// A handler receives the request payload and a `respond` callback it must
// invoke exactly once (possibly later, after simulated work).
using Respond = std::function<void(Result<Bytes>)>;
using Handler = std::function<void(const Bytes& request, Respond respond)>;

struct RpcStats {
  std::uint64_t calls_sent = 0;
  std::uint64_t calls_ok = 0;
  std::uint64_t calls_failed = 0;     // error status from the peer
  std::uint64_t calls_timed_out = 0;  // deadline exceeded locally
  // Transport reported the request undeliverable (connection reset): the
  // call failed UNAVAILABLE immediately instead of waiting out its deadline.
  std::uint64_t calls_send_failed = 0;
  std::uint64_t calls_served = 0;
};

class RpcNode {
 public:
  // The node does not own the channel; the caller keeps both alive.
  RpcNode(sim::Kernel& kernel, net::Channel& channel, std::string name);

  RpcNode(const RpcNode&) = delete;
  RpcNode& operator=(const RpcNode&) = delete;

  // --- server side -------------------------------------------------------
  void register_method(const std::string& service, const std::string& method,
                       Handler handler);

  // --- client side -------------------------------------------------------
  void call(const std::string& service, const std::string& method,
            Bytes request, sim::Duration deadline,
            std::function<void(Result<Bytes>)> on_done);

  const RpcStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  sim::Kernel& kernel() { return kernel_; }
  // Unacknowledged messages sitting in the underlying transport. Callers
  // shipping best-effort traffic (metrics, events) consult this before
  // piling more onto a congested channel.
  std::size_t transport_backlog() const { return channel_.send_backlog(); }

  // --- tracing ------------------------------------------------------------
  // Once set, every call opens a client span (parented on the tracer's
  // current context) whose TraceContext rides the request frame; every
  // served request opens a server span under the caller's context and makes
  // it current while the handler runs. `node_label` names this endpoint's
  // node in span records (gateway id, "orc8r", ...).
  void set_tracer(obs::Tracer* tracer, std::string node_label);
  obs::Tracer* tracer() const { return tracer_; }

  // Off-CPU wait attribution: when set, every call charges its blocked time
  // (issue → response/timeout/send-failure) against an interned
  // ("rpc_client", "<service>/<method>") label on `cpu` — the profiler's
  // answer to "this label is 2% busy but its operations take 400 ms". The
  // CpuModel is only used as the label registry + wait ledger; no work is
  // submitted to it.
  void set_wait_attribution(sim::CpuModel* cpu) { cpu_ = cpu; }

 private:
  struct PendingCall {
    std::function<void(Result<Bytes>)> on_done;
    sim::EventId timeout;
    obs::TraceContext span{};  // client span (invalid when untraced)
    sim::TimePoint issued_at = 0;
    sim::LabelId label = sim::kUnattributed;
  };

  void finish_client_span(obs::TraceContext span, const char* status);
  sim::LabelId rpc_label(const std::string& service,
                         const std::string& method);
  void charge_rpc_wait(const PendingCall& pc);

  void on_message(Bytes raw);
  void on_send_failed(Bytes raw);
  void handle_request(Reader& r);
  void handle_response(Reader& r);
  void send_response(std::uint64_t call_id, const Result<Bytes>& result);

  sim::Kernel& kernel_;
  net::Channel& channel_;
  std::string name_;
  obs::Tracer* tracer_ = nullptr;
  std::string node_label_;
  sim::CpuModel* cpu_ = nullptr;  // wait-attribution ledger (optional)
  // Transparent comparators: per-call label lookups and request dispatch
  // find by string_view pair, no temporary pair<string,string>.
  std::map<std::pair<std::string, std::string>, sim::LabelId,
           common::StringPairLess>
      rpc_labels_;
  std::uint64_t next_call_id_ = 1;
  std::map<std::pair<std::string, std::string>, Handler,
           common::StringPairLess>
      handlers_;
  std::unordered_map<std::uint64_t, PendingCall> pending_;
  RpcStats stats_;
};

// One RPC connection over a simulated path: a duplex link, a reliable
// channel pair on it, and an RpcNode at each end — `server` on the pair's
// `a` end, `client` on its `b` end. Members are built in declaration order
// (link, pair, server node, client node), which fixes the RNG draws and
// event order for a given seed.
struct RpcLink {
  RpcLink(sim::Kernel& kernel, sim::Rng& rng, std::string server_name,
          std::string client_name,
          const sim::LinkConfig& link = sim::fiber_backhaul(),
          const net::ReliableConfig& reliable = {});

  net::DuplexLink path;
  net::ReliablePair channels;
  RpcNode server;
  RpcNode client;
};

}  // namespace magma::rpc
