// Tests for src/core/canonical: canonical allotments, Properties 1 and 2,
// the canonical area W of Definition 1, and the regime threshold.

#include <gtest/gtest.h>

#include <tuple>

#include "core/canonical.hpp"
#include "model/lower_bounds.hpp"
#include "model/speedup_models.hpp"
#include "support/math_utils.hpp"
#include "workload/generators.hpp"

namespace malsched {
namespace {

TEST(Canonical, MinimalityOnKnownProfile) {
  Instance instance(4);
  instance.add_task(std::vector<double>{4.0, 2.2, 1.8, 1.5});
  const auto allotment = canonical_allotment(instance, 2.0);
  ASSERT_TRUE(allotment.feasible);
  EXPECT_EQ(allotment.procs[0], 3);  // t(2)=2.2 > 2.0, t(3)=1.8 <= 2.0
  EXPECT_DOUBLE_EQ(allotment.total_work, 3 * 1.8);
  EXPECT_EQ(allotment.total_procs, 3);
}

TEST(Canonical, InfeasibleWhenDeadlineUnreachable) {
  Instance instance(2);
  instance.add_task(std::vector<double>{4.0, 2.2});
  const auto allotment = canonical_allotment(instance, 1.0);
  EXPECT_FALSE(allotment.feasible);
  EXPECT_TRUE(certified_infeasible(instance, allotment));
}

TEST(Canonical, CertifiedInfeasibleByArea) {
  // Ten unit sequential tasks on 2 machines: canonical work 10 > 2 * 2.
  Instance instance(2);
  for (int i = 0; i < 10; ++i) instance.add_task(sequential_profile(1.0, 2));
  const auto allotment = canonical_allotment(instance, 2.0);
  ASSERT_TRUE(allotment.feasible);
  EXPECT_TRUE(certified_infeasible(instance, allotment));
  // At deadline 5 the area bound passes.
  EXPECT_FALSE(certified_infeasible(instance, canonical_allotment(instance, 5.0)));
}

// The sweep parameter is a *multiplier* on the instance's combined lower
// bound, not an absolute deadline: any deadline >= the critical-path bound
// is canonically feasible, so multipliers >= 1 keep every (family, seed)
// combination live instead of skipping the families whose scale a fixed
// constant undershoots.
class CanonicalPropertyTest
    : public ::testing::TestWithParam<std::tuple<WorkloadFamily, int, double>> {
 protected:
  [[nodiscard]] static double sweep_deadline(const Instance& instance, double multiplier) {
    return multiplier * makespan_lower_bound(instance);
  }
};

TEST_P(CanonicalPropertyTest, Property1HoldsForAllTasks) {
  const auto [family, seed, multiplier] = GetParam();
  GeneratorOptions options;
  options.tasks = 40;
  options.machines = 24;
  const auto instance = generate_instance(family, options, static_cast<std::uint64_t>(seed));
  const double deadline = sweep_deadline(instance, multiplier);
  const auto allotment = canonical_allotment(instance, deadline);
  ASSERT_TRUE(allotment.feasible) << "deadline " << deadline << " below the critical path?";
  for (int i = 0; i < instance.size(); ++i) {
    const int gamma = allotment.procs[static_cast<std::size_t>(i)];
    EXPECT_TRUE(property1_holds(instance.task(i), gamma, deadline))
        << "task " << i << " gamma " << gamma;
    // Minimality re-checked directly.
    EXPECT_TRUE(leq(instance.task(i).time(gamma), deadline));
    if (gamma > 1) {
      EXPECT_FALSE(leq(instance.task(i).time(gamma - 1), deadline));
    }
  }
}

TEST_P(CanonicalPropertyTest, CanonicalAreaIsBoundedAndConsistent) {
  const auto [family, seed, multiplier] = GetParam();
  GeneratorOptions options;
  options.tasks = 40;
  options.machines = 24;
  const auto instance = generate_instance(family, options, static_cast<std::uint64_t>(seed));
  const auto allotment = canonical_allotment(instance, sweep_deadline(instance, multiplier));
  ASSERT_TRUE(allotment.feasible);
  const double area = canonical_area(instance, allotment);
  EXPECT_TRUE(geq(area, 0.0));
  EXPECT_TRUE(leq(area, allotment.total_work));
  // The stacked prefix never exceeds the full m x (max canonical time) box.
  double tallest = 0.0;
  for (int i = 0; i < instance.size(); ++i) {
    tallest = std::max(tallest,
                       instance.task(i).time(allotment.procs[static_cast<std::size_t>(i)]));
  }
  EXPECT_TRUE(leq(area, tallest * instance.machines()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CanonicalPropertyTest,
    ::testing::Combine(::testing::Values(WorkloadFamily::kUniform, WorkloadFamily::kBimodal,
                                         WorkloadFamily::kHeavyTail,
                                         WorkloadFamily::kPackedOpt1),
                       ::testing::Values(1, 2),
                       ::testing::Values(1.0, 1.5, 3.0)));

TEST(Canonical, Property2OnPackedInstances) {
  // Packed instances admit a schedule of length 1 by construction, so the
  // canonical work at deadline 1 may not exceed m (Property 2).
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const int machines : {4, 8, 16}) {
      const auto instance = packed_instance(machines, seed);
      const auto allotment = canonical_allotment(instance, 1.0);
      ASSERT_TRUE(allotment.feasible) << "seed " << seed;
      EXPECT_TRUE(leq(allotment.total_work, static_cast<double>(machines)))
          << "Property 2 violated at seed " << seed << " m " << machines;
      EXPECT_FALSE(certified_infeasible(instance, allotment));
    }
  }
}

TEST(Canonical, AreaOfExactFitStacking) {
  // Two tasks of canonical width 2 on m=4: stacking fills exactly the first
  // 4 processors, so W equals the total canonical work.
  Instance instance(4);
  instance.add_task(std::vector<double>{3.0, 1.9, 1.9, 1.9});
  instance.add_task(std::vector<double>{3.0, 1.8, 1.8, 1.8});
  const auto allotment = canonical_allotment(instance, 2.0);
  ASSERT_TRUE(allotment.feasible);
  EXPECT_EQ(allotment.total_procs, 4);
  EXPECT_NEAR(canonical_area(instance, allotment), 2 * 1.9 + 2 * 1.8, 1e-12);
}

TEST(Canonical, AreaTruncatesOverflowingTask) {
  // Widths 2 then 3 on m=4: the second task contributes only 2 of its 3
  // processors to the first-m area (Definition 1's fractional slice).
  Instance instance(4);
  instance.add_task(std::vector<double>{3.0, 1.9, 1.9, 1.9});
  instance.add_task(std::vector<double>{5.2, 2.7, 1.8, 1.8});
  const auto allotment = canonical_allotment(instance, 2.0);
  ASSERT_TRUE(allotment.feasible);
  ASSERT_EQ(allotment.procs[0], 2);
  ASSERT_EQ(allotment.procs[1], 3);
  EXPECT_NEAR(canonical_area(instance, allotment), 2 * 1.9 + 2 * 1.8, 1e-12);
}

TEST(Canonical, AreaWhenMachineNeverFills) {
  Instance instance(8);
  instance.add_task(sequential_profile(0.5, 8));
  const auto allotment = canonical_allotment(instance, 1.0);
  EXPECT_NEAR(canonical_area(instance, allotment), 0.5, 1e-12);
}

TEST(Canonical, ThresholdUsesMu) {
  Instance instance(10);
  instance.add_task(sequential_profile(1.0, 10));
  EXPECT_NEAR(area_threshold(instance, 2.0), kMu * 10 * 2.0, 1e-12);
}

}  // namespace
}  // namespace malsched
