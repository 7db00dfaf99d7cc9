// RPC layer: wire format round-trips, call semantics, deadlines, resets.
#include <gtest/gtest.h>

#include "net/channel.h"
#include "rpc/rpc.h"
#include "rpc/wire.h"

namespace magma::rpc {
namespace {

// --- Wire format -------------------------------------------------------------

TEST(Wire, ScalarRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  w.boolean(true);
  w.str("magma");
  w.bytes(common::from_hex("00ff10"));

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "magma");
  EXPECT_EQ(r.bytes(), common::from_hex("00ff10"));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Wire, TruncatedReadLatchesError) {
  Writer w;
  w.u32(7);
  Reader r(w.data());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 0u);  // past the end
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // stays failed
}

TEST(Wire, OversizedLengthPrefixFails) {
  Writer w;
  w.u32(1000000);  // claims a 1 MB string that is not there
  Reader r(w.data());
  EXPECT_TRUE(r.str().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Wire, EmptyStringAndBytes) {
  Writer w;
  w.str("");
  w.bytes({});
  Reader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.ok());
}

// --- RpcNode -----------------------------------------------------------------

struct RpcHarness {
  sim::Kernel kernel;
  sim::Rng rng{7};
  RpcLink link{kernel, rng, "server", "client", sim::lan_link()};
  RpcNode& server = link.server;
  RpcNode& client = link.client;
};

TEST(RpcNode, UnaryCallRoundTrip) {
  RpcHarness h;
  h.server.register_method("echo", "Echo",
                           [](const Bytes& request, Respond respond) {
                             respond(request);
                           });
  std::string reply;
  h.client.call("echo", "Echo", common::to_bytes("ping"), sim::kSecond,
                [&](Result<Bytes> result) {
                  ASSERT_TRUE(result.ok());
                  reply = common::to_string(result.value());
                });
  h.kernel.run();
  EXPECT_EQ(reply, "ping");
  EXPECT_EQ(h.client.stats().calls_ok, 1u);
  EXPECT_EQ(h.server.stats().calls_served, 1u);
}

TEST(RpcNode, UnknownMethodReturnsNotFound) {
  RpcHarness h;
  ErrorCode code = ErrorCode::kOk;
  h.client.call("nope", "Nothing", {}, sim::kSecond,
                [&](Result<Bytes> result) { code = result.code(); });
  h.kernel.run();
  EXPECT_EQ(code, ErrorCode::kNotFound);
}

TEST(RpcNode, HandlerErrorPropagates) {
  RpcHarness h;
  h.server.register_method("svc", "Fail",
                           [](const Bytes&, Respond respond) {
                             respond(Error{ErrorCode::kPermissionDenied,
                                           "not allowed"});
                           });
  Error received;
  h.client.call("svc", "Fail", {}, sim::kSecond, [&](Result<Bytes> result) {
    ASSERT_FALSE(result.ok());
    received = result.error();
  });
  h.kernel.run();
  EXPECT_EQ(received.code, ErrorCode::kPermissionDenied);
  EXPECT_EQ(received.message, "not allowed");
}

TEST(RpcNode, DeadlineExceededOnSilentServer) {
  RpcHarness h;
  h.server.register_method("svc", "Never",
                           [](const Bytes&, Respond) { /* no respond */ });
  ErrorCode code = ErrorCode::kOk;
  h.client.call("svc", "Never", {}, 2 * sim::kSecond,
                [&](Result<Bytes> result) { code = result.code(); });
  h.kernel.run();
  EXPECT_EQ(code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(h.client.stats().calls_timed_out, 1u);
}

TEST(RpcNode, DelayedResponseWithinDeadline) {
  RpcHarness h;
  h.server.register_method(
      "svc", "Slow", [&h](const Bytes&, Respond respond) {
        h.kernel.schedule(500 * sim::kMillisecond,
                          [respond]() { respond(Bytes{}); });
      });
  bool ok = false;
  h.client.call("svc", "Slow", {}, 2 * sim::kSecond,
                [&](Result<Bytes> result) { ok = result.ok(); });
  h.kernel.run();
  EXPECT_TRUE(ok);
}

TEST(RpcNode, SymmetricCalls) {
  RpcHarness h;
  h.server.register_method("a", "M", [](const Bytes&, Respond respond) {
    respond(common::to_bytes("from-server"));
  });
  h.client.register_method("b", "M", [](const Bytes&, Respond respond) {
    respond(common::to_bytes("from-client"));
  });
  std::string r1, r2;
  h.client.call("a", "M", {}, sim::kSecond, [&](Result<Bytes> result) {
    r1 = common::to_string(result.value());
  });
  h.server.call("b", "M", {}, sim::kSecond, [&](Result<Bytes> result) {
    r2 = common::to_string(result.value());
  });
  h.kernel.run();
  EXPECT_EQ(r1, "from-server");
  EXPECT_EQ(r2, "from-client");
}

TEST(RpcNode, ManyConcurrentCallsMatchById) {
  RpcHarness h;
  h.server.register_method("svc", "Echo",
                           [](const Bytes& request, Respond respond) {
                             respond(request);
                           });
  int correct = 0;
  for (int i = 0; i < 100; ++i) {
    h.client.call("svc", "Echo", common::to_bytes(std::to_string(i)),
                  sim::kSecond, [&correct, i](Result<Bytes> result) {
                    if (result.ok() &&
                        common::to_string(result.value()) ==
                            std::to_string(i)) {
                      ++correct;
                    }
                  });
  }
  h.kernel.run();
  EXPECT_EQ(correct, 100);
}

TEST(RpcNode, TransportResetFailsCallsFastNotAtDeadline) {
  // A connection reset must surface as UNAVAILABLE the moment the transport
  // gives up — not as DEADLINE_EXCEEDED a minute later. The old transport
  // silently dropped the frame and left the call waiting out its deadline.
  sim::Kernel kernel;
  sim::Rng rng{7};
  net::ReliableConfig rel;
  rel.max_retries = 2;  // transport resets after 1+2+4 s of backoff
  RpcLink link{kernel, rng, "server", "client", sim::lan_link(), rel};
  RpcNode& client = link.client;
  link.path.reverse.set_up(false);  // client→server direction is dead

  ErrorCode code = ErrorCode::kOk;
  sim::TimePoint failed_at = 0;
  client.call("svc", "Get", {}, 60 * sim::kSecond, [&](Result<Bytes> result) {
    code = result.code();
    failed_at = kernel.now();
  });
  kernel.run();

  EXPECT_EQ(code, ErrorCode::kUnavailable);
  EXPECT_LT(failed_at, 10 * sim::kSecond);  // ~7 s, far below the deadline
  EXPECT_EQ(client.stats().calls_send_failed, 1u);
  EXPECT_EQ(client.stats().calls_timed_out, 0u);
}

}  // namespace
}  // namespace magma::rpc
