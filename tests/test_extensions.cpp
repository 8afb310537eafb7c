// End-to-end edge cases of the sqrt(3) scheduler: empty instances, a single
// machine, identical tasks, a very wide machine, a first shelf that
// overflows, and tall tasks that cannot shrink.

#include <gtest/gtest.h>

#include <vector>

#include "core/mrt_scheduler.hpp"
#include "model/speedup_models.hpp"
#include "sched/validate.hpp"
#include "support/math_utils.hpp"
#include "workload/generators.hpp"

namespace malsched {
namespace {

// ------------------------------------------------------------ edge cases

TEST(EdgeCases, EmptyInstanceSolves) {
  const Instance instance(4);
  const auto result = mrt_schedule(instance);
  EXPECT_DOUBLE_EQ(result.makespan, 0.0);
  EXPECT_EQ(result.gaps, 0);
  EXPECT_TRUE(validate_schedule(result.schedule, instance).ok);
}

TEST(EdgeCases, SingleMachine) {
  GeneratorOptions options;
  options.tasks = 10;
  options.machines = 1;
  const auto instance = generate_instance(WorkloadFamily::kUniform, options, 5);
  const auto result = mrt_schedule(instance);
  // On one machine the optimum is the total sequential time.
  EXPECT_NEAR(result.makespan, instance.total_sequential_work(), 1e-9);
  EXPECT_EQ(result.gaps, 0);
}

TEST(EdgeCases, IdenticalTasksSaturateCleanly) {
  Instance instance(16);
  for (int i = 0; i < 16; ++i) instance.add_task(sequential_profile(1.0, 16));
  const auto result = mrt_schedule(instance);
  EXPECT_NEAR(result.makespan, 1.0, 1e-9);  // one task per processor
  EXPECT_NEAR(result.ratio, 1.0, 0.02);
}

TEST(EdgeCases, VeryWideMachineFewTasks) {
  Instance instance(512);
  instance.add_task(power_law_profile(10.0, 0.9, 512), "a");
  instance.add_task(power_law_profile(8.0, 0.9, 512), "b");
  const auto result = mrt_schedule(instance);
  EXPECT_EQ(result.gaps, 0);
  EXPECT_TRUE(leq(result.ratio, kSqrt3 * 1.02 + 1e-9));
}

TEST(EdgeCases, FirstShelfOverflowIsSolvedByTheKnapsack) {
  // Three tasks of canonical width 3 (t(p) = 2.25/p) on m = 8 overflow the
  // first shelf by one processor at the accepted guess; the two-shelf step
  // migrates one of them and its schedule is the one delivered.
  Instance instance(8);
  for (int k = 0; k < 3; ++k) {
    std::vector<double> profile(8);
    for (int p = 1; p <= 8; ++p) {
      profile[static_cast<std::size_t>(p) - 1] = 2.25 / static_cast<double>(p);
    }
    instance.add_task(profile);
  }
  const MrtOptions options;
  const auto result = mrt_schedule(instance, options);
  EXPECT_TRUE(validate_schedule(result.schedule, instance).ok);
  EXPECT_EQ(result.gaps, 0);
  EXPECT_GE(result.branch_counts[static_cast<std::size_t>(DualBranch::kTwoShelfKnapsack)], 1);
  EXPECT_TRUE(leq(result.ratio, kSqrt3 * (1.0 + options.search.epsilon)));
}

TEST(EdgeCases, MoreUnshrinkableTallTasksThanMachines) {
  // Five flat tasks of 0.75 on m = 4: OPT = 1.5, since some processor runs
  // two of them. No task can migrate to a second shelf, so at a guess near
  // OPT the two-shelf step finds nothing and another branch must deliver.
  Instance instance(4);
  for (int i = 0; i < 5; ++i) instance.add_task(sequential_profile(0.75, 4));
  const MrtOptions options;
  const auto result = mrt_schedule(instance, options);
  EXPECT_TRUE(validate_schedule(result.schedule, instance).ok);
  EXPECT_EQ(result.gaps, 0);
  EXPECT_TRUE(geq(result.makespan, 1.5));
  EXPECT_TRUE(leq(result.makespan, kSqrt3 * (1.0 + options.search.epsilon) * 1.5));
}

}  // namespace
}  // namespace malsched
