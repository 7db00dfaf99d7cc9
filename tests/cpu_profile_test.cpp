// Continuous CPU profiler: (service, operation) attribution labels, per-core
// and per-class accounting consistency, run-queue wait histograms, windowed
// utilization, and the optional per-task trace export.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "sim/cpu.h"

namespace magma::sim {
namespace {

TEST(CpuProfile, InternLabelIsIdempotent) {
  Kernel kernel;
  CpuModel cpu(kernel, CpuConfig{});
  const LabelId a = cpu.intern_label("accessd", "establish");
  const LabelId b = cpu.intern_label("pipelined", "forward_ul");
  EXPECT_NE(a, b);
  EXPECT_NE(a, kUnattributed);
  EXPECT_EQ(cpu.intern_label("accessd", "establish"), a);
  ASSERT_EQ(cpu.labels().size(), 3u);  // + the pre-interned catch-all
  EXPECT_EQ(cpu.labels()[a].service, "accessd");
  EXPECT_EQ(cpu.labels()[a].op, "establish");
  EXPECT_EQ(cpu.labels()[kUnattributed].service, "unattributed");
}

TEST(CpuProfile, AttributesBusyTimeAndCompletionsPerLabel) {
  Kernel kernel;
  CpuConfig config;
  config.cores = 1;
  config.speed_ghz = 1.0;
  CpuModel cpu(kernel, config);
  const LabelId establish = cpu.intern_label("accessd", "establish");
  const LabelId forward = cpu.intern_label("pipelined", "forward_ul");

  cpu.submit(WorkClass::kControl, establish, 2.0, []() {});
  cpu.submit(WorkClass::kControl, establish, 1.0, []() {});
  cpu.submit(WorkClass::kUser, forward, 0.5, []() {});
  cpu.submit(WorkClass::kUser, 0.25, []() {});  // label-less overload
  kernel.run();

  EXPECT_EQ(cpu.labels()[establish].busy_ns, 3 * kSecond);
  EXPECT_EQ(cpu.labels()[establish].completed, 2u);
  EXPECT_EQ(cpu.labels()[forward].busy_ns, kSecond / 2);
  EXPECT_EQ(cpu.labels()[kUnattributed].busy_ns, kSecond / 4);

  const std::map<std::string, double> by_service = cpu.service_busy_seconds();
  EXPECT_DOUBLE_EQ(by_service.at("accessd"), 3.0);
  EXPECT_DOUBLE_EQ(by_service.at("pipelined"), 0.5);
  EXPECT_DOUBLE_EQ(by_service.at("unattributed"), 0.25);
}

TEST(CpuProfile, LabelCoreAndClassTotalsAgree) {
  // The fig7 invariant: busy time is charged at task start for all three
  // counters, so per-label, per-core, and per-class sums are identical.
  Kernel kernel;
  CpuConfig config;
  config.cores = 2;
  config.speed_ghz = 1.3;
  config.user_plane_cores = 1;
  CpuModel cpu(kernel, config);
  const LabelId a = cpu.intern_label("accessd", "begin");
  const LabelId b = cpu.intern_label("pipelined", "forward_dl");
  for (int i = 0; i < 7; ++i) {
    cpu.submit(WorkClass::kControl, a, 0.37, []() {});
    cpu.submit(WorkClass::kUser, b, 0.91, []() {});
  }
  kernel.run();

  Duration label_sum = 0;
  for (const TaskLabelStats& l : cpu.labels()) label_sum += l.busy_ns;
  Duration core_sum = 0;
  for (Duration busy : cpu.core_busy_ns()) core_sum += busy;
  const Duration class_sum = cpu.stats().busy_ns[0] + cpu.stats().busy_ns[1];
  EXPECT_EQ(label_sum, class_sum);
  EXPECT_EQ(core_sum, class_sum);
  EXPECT_GT(class_sum, 0);
}

TEST(CpuProfile, QueueWaitLandsInTheClassHistogram) {
  Kernel kernel;
  CpuConfig config;
  config.cores = 1;
  config.speed_ghz = 1.0;
  CpuModel cpu(kernel, config);
  const LabelId l = cpu.intern_label("accessd", "verify");
  // Three 1 s tasks on one core: waits of 0, 1 and 2 s.
  for (int i = 0; i < 3; ++i) cpu.submit(WorkClass::kControl, l, 1.0, []() {});
  kernel.run();

  const obs::Histogram& wait = cpu.queue_wait(WorkClass::kControl);
  EXPECT_EQ(wait.count(), 3u);
  EXPECT_DOUBLE_EQ(wait.sum(), 3.0);
  EXPECT_EQ(cpu.queue_wait(WorkClass::kUser).count(), 0u);
  EXPECT_EQ(cpu.labels()[l].queue_wait_ns, 3 * kSecond);
}

TEST(CpuProfile, UtilizationWindowMeasuresDeltas) {
  Kernel kernel;
  CpuConfig config;
  config.cores = 2;
  config.speed_ghz = 1.0;
  CpuModel cpu(kernel, config);

  CpuModel::UtilizationWindow window;
  // First call stamps the window and reads zeros.
  std::vector<double> util = cpu.utilization_window(window);
  ASSERT_EQ(util.size(), 2u);
  EXPECT_DOUBLE_EQ(util[0], 0.0);
  EXPECT_DOUBLE_EQ(util[1], 0.0);

  // One core busy 4 s out of a 10 s window.
  cpu.submit(WorkClass::kUser, 4.0, []() {});
  kernel.run_until(10 * kSecond);
  util = cpu.utilization_window(window);
  ASSERT_EQ(util.size(), 2u);
  EXPECT_NEAR(util[0] + util[1], 0.4, 1e-9);

  // Next window starts fresh.
  kernel.run_until(20 * kSecond);
  util = cpu.utilization_window(window);
  EXPECT_DOUBLE_EQ(util[0] + util[1], 0.0);
}

TEST(CpuProfile, TracerEmitsPerTaskSpans) {
  Kernel kernel;
  obs::Tracer tracer(kernel);
  CpuConfig config;
  config.cores = 1;
  config.speed_ghz = 1.0;
  CpuModel cpu(kernel, config);
  cpu.set_tracer(&tracer, "agw0");
  const LabelId l = cpu.intern_label("accessd", "establish");

  cpu.submit(WorkClass::kControl, l, 0.5, []() {});
  cpu.submit(WorkClass::kControl, 0.5, []() {});
  kernel.run();

  ASSERT_EQ(tracer.finished().size(), 2u);
  const obs::SpanRecord& labeled = tracer.finished()[0];
  EXPECT_EQ(labeled.name, "accessd/establish");
  EXPECT_EQ(labeled.node, "agw0");
  EXPECT_EQ(labeled.service, "cpu0");
  EXPECT_EQ(labeled.end - labeled.start, kSecond / 2);
  EXPECT_EQ(tracer.finished()[1].name, "unattributed/");
}

TEST(CpuProfile, ChargeWaitFeedsWallTimeDecomposition) {
  Kernel kernel;
  CpuConfig config;
  config.cores = 1;
  config.speed_ghz = 1.0;
  CpuModel cpu(kernel, config);
  const LabelId l = cpu.intern_label("accessd", "establish");
  cpu.submit(WorkClass::kControl, l, 2.0, []() {});
  cpu.submit(WorkClass::kControl, l, 1.0, []() {});  // sits 2 s runnable
  kernel.run();

  // Off-CPU charges reported by other layers land in their own buckets.
  cpu.charge_wait(l, obs::WaitState::kRpcWait, 3 * kSecond);
  cpu.charge_wait(l, obs::WaitState::kTimer, kSecond);     // no bucket
  cpu.charge_wait(l, obs::WaitState::kCpu, kSecond);       // not an off-CPU state
  cpu.charge_wait(l, obs::WaitState::kRpcWait, -5);        // non-positive
  cpu.charge_wait(static_cast<LabelId>(9999),
                  obs::WaitState::kRpcWait, kSecond);      // unknown label

  const TaskLabelStats& ls = cpu.labels()[l];
  EXPECT_EQ(ls.busy_ns, 3 * kSecond);
  EXPECT_EQ(ls.queue_wait_ns, 2 * kSecond);
  EXPECT_EQ(ls.rpc_wait_ns, 3 * kSecond);
  // The profiler's contract: wall time is the sum of the on- and off-CPU
  // buckets, so per-label breakdowns tile with no residue.
  EXPECT_EQ(ls.wall_ns(), ls.busy_ns + ls.queue_wait_ns + ls.rpc_wait_ns);
  EXPECT_EQ(ls.wall_ns(), 8 * kSecond);
}

TEST(CpuProfile, WaitTracerChargesRunqAndCpuOntoTheSubmittingSpan) {
  Kernel kernel;
  obs::Tracer tracer(kernel);
  CpuConfig config;
  config.cores = 1;
  config.speed_ghz = 1.0;
  CpuModel cpu(kernel, config);
  cpu.set_wait_tracer(&tracer);  // always-on charging, no per-task spans
  const LabelId l = cpu.intern_label("accessd", "establish");

  const obs::TraceContext span = tracer.begin("attach", "lte_frontend", "gw0");
  {
    obs::Tracer::Scope scope(&tracer, span);
    cpu.submit(WorkClass::kControl, l, 1.0, []() {});
    cpu.submit(WorkClass::kControl, l, 0.5, []() {});  // 1 s runnable first
  }
  kernel.run();
  tracer.end(span);

  // Without set_tracer there are no cpu0 task spans — only the root.
  ASSERT_EQ(tracer.finished().size(), 1u);
  const obs::SpanRecord& rec = tracer.finished()[0];
  EXPECT_EQ(rec.wait(obs::WaitState::kCpu), kSecond + kSecond / 2);
  EXPECT_EQ(rec.wait(obs::WaitState::kRunq), kSecond);
}

}  // namespace
}  // namespace magma::sim
