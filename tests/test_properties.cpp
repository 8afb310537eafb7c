// Cross-cutting property and fuzz tests: the solver pipeline under random
// (repaired) profiles, scale and permutation robustness, serialization
// round-trips through the solver, and composition with compaction.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/mrt_scheduler.hpp"
#include "model/instance_io.hpp"
#include "model/lower_bounds.hpp"
#include "model/monotonize.hpp"
#include "sched/compaction.hpp"
#include "sched/validate.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"
#include "support/strings.hpp"

namespace malsched {
namespace {

/// Instance from completely random (repaired) profiles -- the roughest
/// input the model layer admits.
Instance fuzz_instance(Rng& rng) {
  const int machines = static_cast<int>(rng.uniform_int(1, 24));
  const int tasks = static_cast<int>(rng.uniform_int(1, 40));
  Instance instance(machines);
  instance.reserve(tasks);
  for (int i = 0; i < tasks; ++i) {
    std::vector<double> profile(static_cast<std::size_t>(machines));
    for (auto& t : profile) t = rng.log_uniform(0.01, 50.0);
    instance.add_task(monotonize(std::move(profile)), label("f", i));
  }
  return instance;
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, SolverSurvivesArbitraryMonotoneProfiles) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int trial = 0; trial < 12; ++trial) {
    const auto instance = fuzz_instance(rng);
    MrtOptions options;
    options.search.epsilon = 0.05;
    const auto result = mrt_schedule(instance, options);
    const auto report = validate_schedule(result.schedule, instance);
    ASSERT_TRUE(report.ok) << report.str();
    EXPECT_EQ(result.gaps, 0);
    EXPECT_TRUE(leq(result.ratio, kSqrt3 * 1.05 + 1e-9)) << "ratio " << result.ratio;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(1, 2, 3, 4));

TEST(Properties, ScaleInvariance) {
  // Multiplying every time by c scales the solution by about c (dual search
  // grid effects bounded by eps).
  GeneratorOptions options;
  options.tasks = 30;
  options.machines = 12;
  const auto instance = generate_instance(WorkloadFamily::kUniform, options, 31);
  const double base = mrt_schedule(instance).makespan;

  const double c = 37.5;
  Instance scaled(instance.machines());
  for (int i = 0; i < instance.size(); ++i) {
    const MalleableTask task = instance.task(i);
    std::vector<double> profile(task.profile().begin(), task.profile().end());
    for (auto& t : profile) t *= c;
    scaled.add_task(profile, task.name());
  }
  const double scaled_makespan = mrt_schedule(scaled).makespan;
  EXPECT_NEAR(scaled_makespan / base, c, c * 0.03);
}

TEST(Properties, TaskOrderPermutationKeepsTheGuarantee) {
  GeneratorOptions options;
  options.tasks = 25;
  options.machines = 10;
  const auto instance = generate_instance(WorkloadFamily::kBimodal, options, 17);
  Rng rng(99);
  for (int shuffle = 0; shuffle < 5; ++shuffle) {
    const auto perm = rng.permutation(static_cast<std::size_t>(instance.size()));
    Instance shuffled(instance.machines());
    shuffled.reserve(instance.size());
    for (const auto index : perm) {
      const MalleableTask task = instance.task(static_cast<int>(index));
      shuffled.add_task(task.profile(), task.name());
    }
    const auto result = mrt_schedule(shuffled);
    EXPECT_EQ(result.gaps, 0);
    EXPECT_TRUE(leq(result.ratio, kSqrt3 * 1.02 + 1e-9));
  }
}

TEST(Properties, SerializationPreservesSolutions) {
  for (const auto family : all_workload_families()) {
    GeneratorOptions options;
    options.tasks = 20;
    options.machines = 8;
    const auto original = generate_instance(family, options, 23);
    const auto copy = instance_from_string(instance_to_string(original));
    const double a = mrt_schedule(original).makespan;
    const double b = mrt_schedule(copy).makespan;
    EXPECT_DOUBLE_EQ(a, b) << to_string(family);
  }
}

TEST(Properties, PostPassesComposeMonotonically) {
  GeneratorOptions options;
  options.tasks = 28;
  options.machines = 14;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto instance = generate_instance(WorkloadFamily::kHeavyTail, options, seed);
    const auto result = mrt_schedule(instance);
    const auto compacted = compact_schedule(result.schedule, instance);
    EXPECT_TRUE(leq(compacted.makespan(), result.makespan));
    EXPECT_TRUE(validate_schedule(compacted, instance).ok);
  }
}

TEST(Properties, LowerBoundNeverExceedsAnyAlgorithmsResult) {
  // The certified LB must sit below every feasible schedule we can build.
  GeneratorOptions options;
  options.tasks = 22;
  options.machines = 11;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto instance = generate_instance(WorkloadFamily::kStairs, options, seed);
    const auto result = mrt_schedule(instance);
    EXPECT_TRUE(leq(result.lower_bound, result.makespan));
    EXPECT_TRUE(leq(makespan_lower_bound(instance), result.lower_bound * (1 + 1e-9)));
  }
}

TEST(Properties, DualStepMonotoneInPractice) {
  // Acceptance is not theoretically monotone in the guess, but on these
  // families an accepted guess must stay accepted when multiplied by 2
  // (the same branch construction still fits with double the room).
  GeneratorOptions options;
  options.tasks = 24;
  options.machines = 12;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto instance = generate_instance(WorkloadFamily::kUniform, options, seed);
    const double lb = makespan_lower_bound(instance);
    for (const double factor : {1.0, 1.3, 1.7}) {
      const auto first = mrt_dual_step(instance, lb * factor);
      if (first.schedule) {
        const auto second = mrt_dual_step(instance, lb * factor * 2.0);
        EXPECT_TRUE(second.schedule.has_value())
            << "acceptance lost when doubling the guess (seed " << seed << ")";
      }
    }
  }
}

}  // namespace
}  // namespace malsched
