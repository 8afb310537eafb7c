// Tests for the extension features: branch-and-bound knapsack and
// end-to-end edge cases (empty instances, single machines).

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/mrt_scheduler.hpp"
#include "knapsack/knapsack.hpp"
#include "model/speedup_models.hpp"
#include "sched/validate.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace malsched {
namespace {

// -------------------------------------------------------- branch and bound

class BranchAndBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(BranchAndBoundTest, MatchesExactDp) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 4200);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 18));
    std::vector<KnapsackItem> items(static_cast<std::size_t>(n));
    for (auto& item : items) {
      item.weight = rng.uniform_int(0, 30);
      item.profit = rng.uniform_int(0, 50);
    }
    const long long capacity = rng.uniform_int(0, 120);
    const auto bb = knapsack_branch_and_bound(items, capacity);
    const auto dp = knapsack_exact(items, capacity);
    EXPECT_EQ(bb.profit, dp.profit);
    EXPECT_LE(bb.weight, capacity);
    // Totals consistent with the selection.
    long long weight = 0;
    long long profit = 0;
    for (const int i : bb.items) {
      weight += items[static_cast<std::size_t>(i)].weight;
      profit += items[static_cast<std::size_t>(i)].profit;
    }
    EXPECT_EQ(weight, bb.weight);
    EXPECT_EQ(profit, bb.profit);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BranchAndBoundTest, ::testing::Values(1, 2, 3));

TEST(BranchAndBound, HandlesHugeCapacityWhereDpCannot) {
  // Capacity beyond the DP memory guard: B&B is O(n) memory.
  std::vector<KnapsackItem> items;
  Rng rng(77);
  for (int i = 0; i < 30; ++i) {
    items.push_back({rng.uniform_int(1, 1LL << 33), rng.uniform_int(1, 100)});
  }
  const long long capacity = 1LL << 34;
  EXPECT_THROW(knapsack_exact(items, capacity), std::length_error);
  const auto bb = knapsack_branch_and_bound(items, capacity);
  EXPECT_LE(bb.weight, capacity);
  EXPECT_GT(bb.profit, 0);
}

TEST(BranchAndBound, NodeBudgetEnforced) {
  // Dense correlated instance with a tiny budget must trip the guard.
  std::vector<KnapsackItem> items;
  for (int i = 0; i < 40; ++i) items.push_back({100 + i, 100 + i});
  EXPECT_THROW(knapsack_branch_and_bound(items, 2000, /*node_budget=*/10),
               std::runtime_error);
}

TEST(BranchAndBound, EmptyAndZeroCapacity) {
  EXPECT_EQ(knapsack_branch_and_bound({}, 10).profit, 0);
  const std::vector<KnapsackItem> items{{5, 7}};
  EXPECT_EQ(knapsack_branch_and_bound(items, 0).profit, 0);
}

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

}  // namespace
}  // namespace malsched
