// The allocation-discipline regression wall (DESIGN.md §9), test side.
//
// Two properties guard the pooled hot paths:
//  * Determinism: pooling (inline event closures, freelist pools) must be
//    behavior-invisible. The full LTE attach + traffic scenario, run twice
//    with the same seed — once pooled, once with everything forced to the
//    heap via set_memory_pooling_enabled(false) — must produce identical
//    final metrics and event counts. Any divergence means pool state leaked
//    into simulation behavior.
//  * Allocation-freedom: the steady-state paths the BENCH_host.json wall
//    prices (event schedule→dispatch, interned-label lookup) and a symbol
//    table hit allocate nothing, proven with the host profiler's
//    allocation accounting rather than inferred from timing.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/pool.h"
#include "common/symbol.h"
#include "core/network.h"
#include "obs/host_profiler.h"
#include "sim/cpu.h"
#include "sim/kernel.h"

namespace magma {
namespace {

class PoolingGuard {
 public:
  PoolingGuard() : was_(common::memory_pooling_enabled()) {}
  ~PoolingGuard() { common::set_memory_pooling_enabled(was_); }

 private:
  bool was_;
};

// Everything observable a scenario run produces: simulated outcomes, traffic
// counters, and the kernel's own event accounting. Note what is absent:
// KernelStats::closure_heap_fallbacks and pool hit/fallback counters are
// *supposed* to differ between pooling modes — they describe host memory
// traffic, not simulation behavior.
struct Snapshot {
  bool attach_success = false;
  sim::Duration attach_latency = 0;
  std::uint32_t ue_addr = 0;
  std::size_t active_sessions = 0;
  std::uint64_t attach_completed = 0;
  std::uint64_t ue_rx_bytes = 0;
  std::uint64_t ue_rx_packets = 0;
  std::uint64_t internet_rx_bytes = 0;
  std::uint64_t session_used_bytes = 0;
  std::uint64_t executed_events = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t skimmed = 0;
  std::size_t queue_hwm = 0;
  sim::TimePoint end_time = 0;
};

// The integration_attach_test scenario, condensed: S1 setup, provision +
// sync, NAS attach with EPS-AKA, downlink and uplink traffic, usage poll.
Snapshot run_scenario() {
  core::Network net;  // NetworkConfig default: seed 42
  agw::AccessGateway& agw = net.add_agw(agw::bare_metal_j3160());
  ran::EnodeB& enb = net.add_enodeb(agw);
  net.run_for(2 * sim::kSecond);

  const agw::SubscriberData sub = net.provision_subscriber();
  net.sync_all_config();
  ran::UeLte& ue = net.add_ue_lte(sub);

  Snapshot snap;
  ue.attach(enb, [&snap](const ran::AttachOutcome& outcome) {
    snap.attach_success = outcome.success;
    snap.attach_latency = outcome.latency;
  });
  net.run_for(20 * sim::kSecond);

  if (ue.ip().has_value()) {
    snap.ue_addr = ue.ip()->addr;
    net.inject_downlink(agw, *ue.ip(), 1400, 100);
    net.run_for(1 * sim::kSecond);
    ue.send_uplink(common::Ipv4::from_octets(8, 8, 8, 8), 443, 1000, 50);
    net.run_for(1 * sim::kSecond);
  }

  agw.sessiond().poll_usage();
  if (const agw::SessionRecord* session = agw.sessiond().find(sub.imsi)) {
    snap.session_used_bytes = session->used_bytes;
  }
  snap.active_sessions = agw.sessiond().active_sessions();
  snap.attach_completed = agw.accessd().stats().attach_completed[0];
  snap.ue_rx_bytes = ue.traffic().rx_bytes;
  snap.ue_rx_packets = ue.traffic().rx_packets;
  snap.internet_rx_bytes = net.internet_rx_bytes();

  const sim::Kernel& k = net.kernel();
  snap.executed_events = k.executed_events();
  snap.scheduled = k.stats().scheduled;
  snap.cancelled = k.stats().cancelled;
  snap.skimmed = k.stats().skimmed;
  snap.queue_hwm = k.stats().queue_hwm;
  snap.end_time = k.now();
  return snap;
}

TEST(AllocDiscipline, SameSeedIdenticalWithPoolingOnAndOff) {
  PoolingGuard guard;
  common::set_memory_pooling_enabled(true);
  const Snapshot pooled = run_scenario();
  common::set_memory_pooling_enabled(false);
  const Snapshot heap = run_scenario();

  // The scenario itself worked (a vacuous diff of two failed runs would
  // prove nothing).
  ASSERT_TRUE(pooled.attach_success);
  ASSERT_EQ(pooled.active_sessions, 1u);
  ASSERT_GT(pooled.ue_rx_bytes, 0u);
  ASSERT_GT(pooled.internet_rx_bytes, 0u);

  EXPECT_EQ(pooled.attach_success, heap.attach_success);
  EXPECT_EQ(pooled.attach_latency, heap.attach_latency);
  EXPECT_EQ(pooled.ue_addr, heap.ue_addr);
  EXPECT_EQ(pooled.active_sessions, heap.active_sessions);
  EXPECT_EQ(pooled.attach_completed, heap.attach_completed);
  EXPECT_EQ(pooled.ue_rx_bytes, heap.ue_rx_bytes);
  EXPECT_EQ(pooled.ue_rx_packets, heap.ue_rx_packets);
  EXPECT_EQ(pooled.internet_rx_bytes, heap.internet_rx_bytes);
  EXPECT_EQ(pooled.session_used_bytes, heap.session_used_bytes);
  EXPECT_EQ(pooled.executed_events, heap.executed_events);
  EXPECT_EQ(pooled.scheduled, heap.scheduled);
  EXPECT_EQ(pooled.cancelled, heap.cancelled);
  EXPECT_EQ(pooled.skimmed, heap.skimmed);
  EXPECT_EQ(pooled.queue_hwm, heap.queue_hwm);
  EXPECT_EQ(pooled.end_time, heap.end_time);
}

// The schedule→dispatch cycle in steady state (after the event heap and the
// slot table reach their high-water marks) must not touch the heap at all:
// EventFn stores the closure inline, the slot freelist recycles, the binary
// heap reuses its vector. This is the test-wall twin of
// event_schedule_dispatch_allocs == 0 in BENCH_host.json.
TEST(AllocDiscipline, SteadyStateScheduleDispatchIsAllocationFree) {
  PoolingGuard guard;
  common::set_memory_pooling_enabled(true);
  sim::Kernel k;
  std::uint64_t fired = 0;
  // Warmup: grow heap_/slots_ capacity past anything the loop needs.
  for (int i = 0; i < 64; ++i) k.schedule(i, [&fired]() { ++fired; });
  k.run();

  const std::uint64_t before = obs::HostProfiler::process_alloc_count();
  for (int i = 0; i < 1000; ++i) {
    k.schedule(1, [&fired]() { ++fired; });
    k.step();
  }
  const std::uint64_t delta =
      obs::HostProfiler::process_alloc_count() - before;
  EXPECT_EQ(delta, 0u);
  EXPECT_EQ(fired, 1064u);
  EXPECT_EQ(k.stats().closure_heap_fallbacks, 0u);
}

// Hot-path label lookup: once a (service, op) label is interned, re-interning
// it must not allocate — the transparent comparator compares through
// string_views instead of materializing a pair<string,string> key. Proven
// via the host profiler's per-label alloc attribution.
TEST(AllocDiscipline, InternedLabelLookupIsAllocationFree) {
  sim::Kernel k;
  sim::CpuModel cpu(k, sim::CpuConfig{});
  const std::string service = "pipelined";
  const std::string op = "forward_ul";
  const sim::LabelId id = cpu.intern_label(service, op);

  obs::HostProfiler prof;
  prof.install();
  std::uint64_t acc = 0;
  {
    MAGMA_HOST_SCOPE("test", "intern_hot");
    for (int i = 0; i < 1000; ++i) acc += cpu.intern_label(service, op);
  }
  obs::HostProfiler::uninstall();
  EXPECT_EQ(acc, 1000u * id);
  EXPECT_EQ(prof.stats_for("test", "intern_hot").alloc_count, 0u);
  EXPECT_EQ(prof.stats_for("test", "intern_hot").calls, 1u);
}

// The process-wide symbol table behind metricsd's rows: interning is
// idempotent, ids are dense in first-intern order and never move, names
// round-trip, a lookup of an unknown name interns nothing, and a hit
// allocates nothing.
TEST(SymbolTable, DenseStableIdsAndAllocationFreeHits) {
  const std::size_t before = common::symbol_count();
  const std::vector<std::string> names = {"symbol_test_alpha",
                                          "symbol_test_beta",
                                          "symbol_test_a_name_past_sso"};
  std::vector<common::Symbol> ids;
  for (const std::string& name : names) ids.push_back(common::intern(name));
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(ids[i], before + i);  // dense, in first-intern order
    EXPECT_EQ(common::symbol_name(ids[i]), names[i]);
  }
  const std::string& alpha = common::symbol_name(ids[0]);
  for (int i = 0; i < 64; ++i) {
    common::intern("symbol_test_filler_" + std::to_string(i));
  }
  EXPECT_EQ(&common::symbol_name(ids[0]), &alpha);  // the reference held
  EXPECT_EQ(common::intern(std::string("symbol_test_beta")), ids[1]);

  const std::size_t size = common::symbol_count();
  EXPECT_FALSE(common::find_symbol("symbol_test_never_interned").has_value());
  EXPECT_EQ(common::find_symbol(names[2]), ids[2]);
  EXPECT_EQ(common::symbol_count(), size);

  const std::string_view hit = names[2];
  std::uint64_t acc = 0;
  const std::uint64_t allocs = obs::HostProfiler::process_alloc_count();
  for (int i = 0; i < 1000; ++i) acc += common::intern(hit);
  EXPECT_EQ(obs::HostProfiler::process_alloc_count(), allocs);
  EXPECT_EQ(acc, 1000u * ids[2]);
  EXPECT_EQ(common::symbol_count(), size);
}

}  // namespace
}  // namespace magma
