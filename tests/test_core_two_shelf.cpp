// Tests for src/core/two_shelf: the Section 4 partition, the knapsack-based
// lambda-schedule, trivial solutions, and the FPTAS backend.

#include <gtest/gtest.h>

#include <tuple>

#include "core/canonical.hpp"
#include "core/two_shelf.hpp"
#include "model/speedup_models.hpp"
#include "sched/validate.hpp"
#include "support/math_utils.hpp"
#include "workload/generators.hpp"
#include "support/strings.hpp"

namespace malsched {
namespace {

/// Profile with canonical width exactly `width` at deadline 1 and canonical
/// time `height` (constant-work hyperbola).
std::vector<double> width_profile(int width, double height, int machines) {
  std::vector<double> profile(static_cast<std::size_t>(machines));
  for (int p = 1; p <= machines; ++p) {
    profile[static_cast<std::size_t>(p) - 1] =
        height * static_cast<double>(width) / static_cast<double>(p);
  }
  return profile;
}

TEST(TwoShelf, CertifiedRejectOnImpossibleGuess) {
  Instance instance(2);
  for (int i = 0; i < 12; ++i) instance.add_task(sequential_profile(1.0, 2));
  const auto outcome = two_shelf_schedule(instance, 1.0);
  EXPECT_TRUE(outcome.certified_reject);
  EXPECT_FALSE(outcome.schedule.has_value());
}

TEST(TwoShelf, PartitionCountsAndThresholds) {
  // Construct one task per class: tall (t = 0.9 > lambda), medium
  // (0.5 < t = 0.6 <= lambda), small sequential (t = 0.3).
  Instance instance(8);
  instance.add_task(width_profile(4, 0.9, 8), "tall");
  instance.add_task(width_profile(2, 0.6, 8), "medium");
  instance.add_task(sequential_profile(0.3, 8), "small");
  const auto outcome = two_shelf_schedule(instance, 1.0);
  EXPECT_EQ(outcome.s1_count, 1);
  EXPECT_EQ(outcome.s2_count, 1);
  EXPECT_EQ(outcome.s3_count, 1);
  EXPECT_EQ(outcome.q1, 4 - 8);  // S1 procs minus m
  EXPECT_EQ(outcome.q2, 2);
  EXPECT_EQ(outcome.q3, 1);
  ASSERT_TRUE(outcome.schedule.has_value());
  EXPECT_TRUE(validate_schedule(*outcome.schedule, instance).ok);
}

TEST(TwoShelf, LambdaScheduleStructure) {
  // Three canonical-width-3 tall tasks on m = 8: q1 = 9 - 8 = 1 forces a
  // migration, and the total work 3 * 3 * 0.75 = 6.75 stays below m so
  // Property 2 cannot reject. Verify the two-shelf shape: every task starts
  // at 0 (duration <= 1) or at 1 (finishing <= 1 + lambda).
  Instance instance(8);
  instance.add_task(width_profile(3, 0.75, 8), "t1");
  instance.add_task(width_profile(3, 0.75, 8), "t2");
  instance.add_task(width_profile(3, 0.75, 8), "t3");
  const auto outcome = two_shelf_schedule(instance, 1.0);
  ASSERT_TRUE(outcome.schedule.has_value()) << "q1=" << outcome.q1;
  const auto& schedule = *outcome.schedule;
  EXPECT_TRUE(validate_schedule(schedule, instance).ok);
  EXPECT_TRUE(leq(schedule.makespan(), kSqrt3));
  for (int i = 0; i < instance.size(); ++i) {
    const auto& assignment = schedule.of(i);
    if (approx_eq(assignment.start, 0.0)) {
      EXPECT_TRUE(leq(assignment.duration, 1.0));
    } else {
      EXPECT_TRUE(geq(assignment.start, 1.0));
      EXPECT_TRUE(leq(assignment.end(), 1.0 + kLambda));
    }
  }
  EXPECT_GE(outcome.knapsack_profit, outcome.q1);
}

TEST(TwoShelf, SmallTasksFirstFitPackedWithinLambda) {
  // Many small tasks plus one shelf-filling S1 task: S3 stacks on second-
  // shelf processors within lambda.
  // Work budget: 6 * 0.8 + 10 * 0.2 = 6.8 <= m = 8, so the guess survives
  // Property 2.
  Instance instance(8);
  instance.add_task(width_profile(6, 0.8, 8), "bulk");
  for (int i = 0; i < 10; ++i) {
    instance.add_task(sequential_profile(0.2, 8), label("s", i));
  }
  const auto outcome = two_shelf_schedule(instance, 1.0);
  ASSERT_TRUE(outcome.schedule.has_value());
  EXPECT_EQ(outcome.s3_count, 10);
  // 10 tasks of 0.2 at capacity lambda ~ 0.732 -> 3 per bin -> 4 bins.
  EXPECT_EQ(outcome.q3, 4);
  EXPECT_TRUE(leq(outcome.schedule->makespan(), kSqrt3));
}

TEST(TwoShelf, HugeTaskPlusUnshrinkableFillers) {
  // One shrinkable task of canonical width 6 (t(p) = 5.6/p: gamma = 6,
  // gamma_lambda = 8) plus three flat tall tasks (t = 0.8 > lambda at any
  // width) that can never reach the lambda deadline. Total work is exactly
  // m = 8 and q1 = (6+3) - 8 = 1, so someone must migrate; only the big
  // task can. Either the knapsack or the trivial route must deliver.
  const int machines = 8;
  Instance instance(machines);
  std::vector<double> shrinkable(static_cast<std::size_t>(machines));
  for (int p = 1; p <= machines; ++p) {
    shrinkable[static_cast<std::size_t>(p) - 1] = 5.6 / static_cast<double>(p);
  }
  instance.add_task(shrinkable, "huge");
  instance.add_task(sequential_profile(0.8, machines), "flat1");
  instance.add_task(sequential_profile(0.8, machines), "flat2");
  instance.add_task(sequential_profile(0.8, machines), "flat3");
  const auto outcome = two_shelf_schedule(instance, 1.0);
  ASSERT_TRUE(outcome.schedule.has_value());
  EXPECT_TRUE(validate_schedule(*outcome.schedule, instance).ok);
  EXPECT_TRUE(leq(outcome.schedule->makespan(), kSqrt3));
}

class TwoShelfPackedTest
    : public ::testing::TestWithParam<std::tuple<int, int, KnapsackMode>> {};

TEST_P(TwoShelfPackedTest, AcceptedSchedulesMeetTheSqrt3Bound) {
  const auto [machines, seed, mode] = GetParam();
  const auto instance = packed_instance(machines, static_cast<std::uint64_t>(seed));
  TwoShelfOptions options;
  options.knapsack = mode;
  const auto outcome = two_shelf_schedule(instance, 1.0, options);
  EXPECT_FALSE(outcome.certified_reject) << "OPT <= 1 by construction";
  EXPECT_EQ(outcome.s1_count + outcome.s2_count + outcome.s3_count, instance.size());
  if (outcome.schedule) {
    const auto report = validate_schedule(*outcome.schedule, instance);
    EXPECT_TRUE(report.ok) << report.str();
    EXPECT_TRUE(leq(outcome.schedule->makespan(), kSqrt3));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TwoShelfPackedTest,
    ::testing::Combine(::testing::Values(4, 8, 16, 32),
                       ::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(KnapsackMode::kExact, KnapsackMode::kFptas)));

TEST(TwoShelf, ExactKnapsackNeverWorseThanFptasOnProfit) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto instance = packed_instance(16, seed);
    TwoShelfOptions exact;
    exact.knapsack = KnapsackMode::kExact;
    TwoShelfOptions fptas;
    fptas.knapsack = KnapsackMode::kFptas;
    fptas.fptas_eps = 0.3;
    const auto exact_outcome = two_shelf_schedule(instance, 1.0, exact);
    const auto fptas_outcome = two_shelf_schedule(instance, 1.0, fptas);
    if (exact_outcome.knapsack_capacity >= 0 && !exact_outcome.used_trivial &&
        !fptas_outcome.used_trivial && !fptas_outcome.used_dual_knapsack) {
      EXPECT_GE(exact_outcome.knapsack_profit, fptas_outcome.knapsack_profit);
    }
  }
}

TEST(TwoShelf, ScalesWithDeadline) {
  // The construction must be scale-invariant: the engineered q1 = 1
  // instance accepted at d = 1 must also be accepted at d = 2 within
  // sqrt(3) * 2.
  Instance instance(8);
  instance.add_task(width_profile(3, 0.75, 8), "t1");
  instance.add_task(width_profile(3, 0.75, 8), "t2");
  instance.add_task(width_profile(3, 0.75, 8), "t3");
  const auto at_one = two_shelf_schedule(instance, 1.0);
  ASSERT_TRUE(at_one.schedule.has_value());
  EXPECT_TRUE(leq(at_one.schedule->makespan(), kSqrt3));
  const auto at_two = two_shelf_schedule(instance, 2.0);
  ASSERT_TRUE(at_two.schedule.has_value());
  EXPECT_TRUE(leq(at_two.schedule->makespan(), kSqrt3 * 2.0));
}

}  // namespace
}  // namespace malsched
