// CPU model: work conservation, partitioning, serialization, overload.
#include <gtest/gtest.h>

#include "sim/cpu.h"

namespace magma::sim {
namespace {

TEST(CpuModel, SingleCoreSerializesWork) {
  Kernel kernel;
  CpuConfig config;
  config.cores = 1;
  config.speed_ghz = 1.0;
  CpuModel cpu(kernel, config);

  std::vector<TimePoint> completions;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cpu.submit(WorkClass::kControl, 1.0,
                           [&]() { completions.push_back(kernel.now()); }));
  }
  kernel.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], 1 * kSecond);
  EXPECT_EQ(completions[1], 2 * kSecond);
  EXPECT_EQ(completions[2], 3 * kSecond);
}

TEST(CpuModel, SpeedScalesCost) {
  Kernel kernel;
  CpuConfig config;
  config.cores = 1;
  config.speed_ghz = 2.0;  // 1 reference-second takes 0.5 s
  CpuModel cpu(kernel, config);
  TimePoint done = 0;
  cpu.submit(WorkClass::kUser, 1.0, [&]() { done = kernel.now(); });
  kernel.run();
  EXPECT_EQ(done, kSecond / 2);
}

TEST(CpuModel, MultiCoreRunsInParallel) {
  Kernel kernel;
  CpuConfig config;
  config.cores = 4;
  config.speed_ghz = 1.0;
  CpuModel cpu(kernel, config);
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    cpu.submit(WorkClass::kUser, 1.0, [&]() { ++completed; });
  }
  kernel.run_until(1 * kSecond);
  EXPECT_EQ(completed, 4);
}

TEST(CpuModel, PartitionSeparatesClasses) {
  Kernel kernel;
  CpuConfig config;
  config.cores = 4;
  config.speed_ghz = 1.0;
  config.user_plane_cores = 3;  // 3 user, 1 control
  CpuModel cpu(kernel, config);
  EXPECT_EQ(cpu.cores_for(WorkClass::kUser), 3);
  EXPECT_EQ(cpu.cores_for(WorkClass::kControl), 1);

  // Two control jobs must serialize on the single control core even while
  // the user cores are idle.
  std::vector<TimePoint> control_done;
  cpu.submit(WorkClass::kControl, 1.0,
             [&]() { control_done.push_back(kernel.now()); });
  cpu.submit(WorkClass::kControl, 1.0,
             [&]() { control_done.push_back(kernel.now()); });
  // Three user jobs run fully parallel.
  int user_done_at_1s = 0;
  for (int i = 0; i < 3; ++i) {
    cpu.submit(WorkClass::kUser, 1.0, [&]() { ++user_done_at_1s; });
  }
  kernel.run();
  ASSERT_EQ(control_done.size(), 2u);
  EXPECT_EQ(control_done[0], 1 * kSecond);
  EXPECT_EQ(control_done[1], 2 * kSecond);
  EXPECT_EQ(user_done_at_1s, 3);
}

TEST(CpuModel, ZeroCoresForClassRejects) {
  Kernel kernel;
  CpuConfig config;
  config.cores = 2;
  config.user_plane_cores = 2;  // no control cores at all
  CpuModel cpu(kernel, config);
  EXPECT_FALSE(cpu.submit(WorkClass::kControl, 1.0, []() {}));
  EXPECT_EQ(cpu.stats().rejected[0], 1u);
  EXPECT_TRUE(cpu.submit(WorkClass::kUser, 1.0, []() {}));
}

TEST(CpuModel, BusyAccountingPerClass) {
  Kernel kernel;
  CpuConfig config;
  config.cores = 2;
  config.speed_ghz = 1.0;
  CpuModel cpu(kernel, config);
  cpu.submit(WorkClass::kControl, 2.0, []() {});
  cpu.submit(WorkClass::kUser, 3.0, []() {});
  kernel.run();
  EXPECT_EQ(cpu.stats().busy_ns[0], 2 * kSecond);
  EXPECT_EQ(cpu.stats().busy_ns[1], 3 * kSecond);
  EXPECT_EQ(cpu.stats().completed[0], 1u);
  EXPECT_EQ(cpu.stats().completed[1], 1u);
}

TEST(CpuModel, WorkConservingSharedMode) {
  // In flexible mode, 4 cores complete 8 one-second jobs in exactly 2 s.
  Kernel kernel;
  CpuConfig config;
  config.cores = 4;
  config.speed_ghz = 1.0;
  CpuModel cpu(kernel, config);
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    cpu.submit(i % 2 == 0 ? WorkClass::kControl : WorkClass::kUser, 1.0,
               [&]() { ++completed; });
  }
  kernel.run();
  EXPECT_EQ(completed, 8);
  EXPECT_EQ(kernel.now(), 2 * kSecond);
}

}  // namespace
}  // namespace magma::sim
