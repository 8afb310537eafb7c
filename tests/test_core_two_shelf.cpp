// Tests for src/core/two_shelf: the Section 4 partition, the knapsack-based
// lambda-schedule and its allotments, its migration set against brute force,
// trivial solutions, the no-schedule outcome, and the workspace's reused
// scratch across guesses.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/canonical.hpp"
#include "core/dual_workspace.hpp"
#include "core/two_shelf.hpp"
#include "knapsack/knapsack.hpp"
#include "model/speedup_models.hpp"
#include "oracles/knapsack_brute_force.hpp"
#include "sched/validate.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"
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

/// Every field of two outcomes, and every placement of their schedules, bit
/// for bit.
void expect_same_outcome(const TwoShelfOutcome& a, const TwoShelfOutcome& b, int tasks,
                         const std::string& where) {
  EXPECT_EQ(a.certified_reject, b.certified_reject) << where;
  EXPECT_EQ(a.used_trivial, b.used_trivial) << where;
  EXPECT_EQ(a.s1_count, b.s1_count) << where;
  EXPECT_EQ(a.s2_count, b.s2_count) << where;
  EXPECT_EQ(a.s3_count, b.s3_count) << where;
  EXPECT_EQ(a.q1, b.q1) << where;
  EXPECT_EQ(a.q2, b.q2) << where;
  EXPECT_EQ(a.q3, b.q3) << where;
  EXPECT_EQ(a.knapsack_capacity, b.knapsack_capacity) << where;
  EXPECT_EQ(a.knapsack_profit, b.knapsack_profit) << where;
  ASSERT_EQ(a.schedule.has_value(), b.schedule.has_value()) << where;
  if (!a.schedule) return;
  for (int i = 0; i < tasks; ++i) {
    const auto& x = a.schedule->of(i);
    const auto& y = b.schedule->of(i);
    EXPECT_EQ(x.start, y.start) << where << " task " << i;
    EXPECT_EQ(x.duration, y.duration) << where << " task " << i;
    EXPECT_EQ(x.first_proc, y.first_proc) << where << " task " << i;
    EXPECT_EQ(x.num_procs, y.num_procs) << where << " task " << i;
  }
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

class TwoShelfPackedTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TwoShelfPackedTest, AcceptedSchedulesMeetTheSqrt3Bound) {
  const auto [machines, seed] = GetParam();
  const auto instance = packed_instance(machines, static_cast<std::uint64_t>(seed));
  const auto outcome = two_shelf_schedule(instance, 1.0);
  EXPECT_FALSE(outcome.certified_reject) << "OPT <= 1 by construction";
  EXPECT_EQ(outcome.s1_count + outcome.s2_count + outcome.s3_count, instance.size());
  if (outcome.schedule) {
    const auto report = validate_schedule(*outcome.schedule, instance);
    EXPECT_TRUE(report.ok) << report.str();
    EXPECT_TRUE(leq(outcome.schedule->makespan(), kSqrt3));
  }
}

TEST_P(TwoShelfPackedTest, ReusedWorkspaceMatchesAFreshOneAtEveryGuess) {
  // The dual search runs all its guesses through one DualWorkspace, whose
  // two-shelf scratch (partition, candidates, knapsack table, First Fit
  // packing) carries over from the guess before. Tight and loose guesses
  // alternate so every buffer both grows and shrinks; each outcome must
  // equal the one-shot form's on a fresh workspace.
  const auto [machines, seed] = GetParam();
  const auto instance = packed_instance(machines, static_cast<std::uint64_t>(seed));
  DualWorkspace workspace(instance);
  for (const double deadline : {1.0, 0.6, 1.4, 0.9, 1.0, 2.0, 0.75, 1.1}) {
    const auto reused = two_shelf_schedule(workspace, deadline);
    const auto fresh = two_shelf_schedule(instance, deadline);
    expect_same_outcome(reused, fresh, instance.size(), label("d=", deadline));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TwoShelfPackedTest,
                         ::testing::Combine(::testing::Values(4, 8, 16, 32),
                                            ::testing::Values(1, 2, 3, 4, 5)));

/// Tall tasks of canonical width w <= max(1, m/8) at d = 1 with t(w) just
/// above lambda (constant work, so gamma = w), plus a few short sequential
/// ones, filled to a total work of at most 0.97 m. Their widths overflow the
/// first shelf (q1 > 0), often by more than any one task's width, so the
/// migration set needs two or more tasks. The packed sweep below never does:
/// wherever its knapsack is feasible, q1 <= 0 or one task covers it.
Instance narrow_tall_instance(int machines, std::uint64_t seed) {
  Rng rng(seed);
  Instance instance(machines);
  double work = 0.0;
  for (int attempt = 0; attempt < 8 * machines; ++attempt) {
    if (rng.bernoulli(0.1)) {
      const double time = rng.uniform(0.05, 0.45);
      if (work + time > 0.97 * machines) continue;
      instance.add_task(sequential_profile(time, machines));
      work += time;
      continue;
    }
    const int width = static_cast<int>(rng.uniform_int(1, std::max(1, machines / 8)));
    const double low = std::max(kLambda, 1.0 - 1.0 / width) + 0.01;
    const double height = rng.uniform(low, low + 0.1);
    if (work + height * width > 0.97 * machines) continue;
    instance.add_task(width_profile(width, height, machines));
    work += height * width;
  }
  return instance;
}

TEST(TwoShelf, FindsAMigrationSetWheneverOneExists) {
  // Rebuilds the knapsack's ground set -- the S1 tasks (t_i(gamma_i) >
  // lambda*d) that can meet lambda*d on at most m processors -- and asks
  // brute force for a migration set covering q1 within the second shelf's
  // capacity. Whenever one exists the step must deliver a lambda-schedule,
  // not fall back to a trivial solution.
  int multi_task_sets = 0;  // q1 > 0 and no single candidate covers it
  const auto check = [&](const Instance& instance, double deadline, const std::string& where) {
    const auto outcome = two_shelf_schedule(instance, deadline);
    if (outcome.certified_reject || outcome.knapsack_capacity < 0) return;
    const auto canonical = canonical_allotment(instance, deadline);
    const double lambda_d = kLambda * deadline;
    std::vector<KnapsackItem> items;
    for (int i = 0; i < instance.size(); ++i) {
      const int gamma = canonical.procs[static_cast<std::size_t>(i)];
      if (leq(instance.task(i).time(gamma), lambda_d)) continue;
      const auto gamma_lambda = instance.task(i).min_procs_for(lambda_d);
      if (!gamma_lambda || *gamma_lambda > instance.machines()) continue;
      items.push_back({*gamma_lambda, gamma});
    }
    if (knapsack_brute_force(items, outcome.knapsack_capacity).profit < outcome.q1) return;
    const bool one_covers = std::any_of(items.begin(), items.end(), [&](const KnapsackItem& item) {
      return item.profit >= outcome.q1 && item.weight <= outcome.knapsack_capacity;
    });
    if (outcome.q1 > 0 && !one_covers) ++multi_task_sets;
    ASSERT_TRUE(outcome.schedule.has_value()) << where;
    EXPECT_FALSE(outcome.used_trivial) << where;
    EXPECT_GE(outcome.knapsack_profit, outcome.q1) << where;
    EXPECT_TRUE(validate_schedule(*outcome.schedule, instance).ok) << where;
  };
  for (const int machines : {4, 8, 16, 32}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      const auto packed = packed_instance(machines, seed);
      for (const double deadline : {1.0, 1.05, 1.1, 1.2}) {
        check(packed, deadline, label("packed m=", machines, " seed=", seed, " d=", deadline));
      }
      check(narrow_tall_instance(machines, seed), 1.0,
            label("narrow-tall m=", machines, " seed=", seed));
    }
  }
  // The sweep must reach the DP with q1 > 0, not only the single-candidate
  // fast path or an empty migration set.
  EXPECT_GT(multi_task_sets, 0);
}

TEST(TwoShelf, PartitionMatchesTheSection4Definition) {
  // Recomputes S1, S2, S3, q1 and q2 from the canonical allotment, and q3
  // with a First Fit written out here, for every guess Property 2 lets
  // through. Property 1 makes every S3 task sequential.
  int checked = 0;
  for (const int machines : {4, 8, 16, 32}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const auto instance = packed_instance(machines, seed);
      for (const double deadline : {0.8, 1.0, 1.2, 1.5}) {
        const auto where = label("m=", machines, " seed=", seed, " d=", deadline);
        const auto outcome = two_shelf_schedule(instance, deadline);
        if (outcome.certified_reject) continue;
        ++checked;
        const auto canonical = canonical_allotment(instance, deadline);
        const double lambda_d = kLambda * deadline;
        int s1 = 0;
        int s2 = 0;
        int s3 = 0;
        long long s1_procs = 0;
        long long q2 = 0;
        std::vector<double> bins;  // First Fit loads at capacity lambda*d
        for (int i = 0; i < instance.size(); ++i) {
          const int gamma = canonical.procs[static_cast<std::size_t>(i)];
          const double time = instance.task(i).time(gamma);
          if (!leq(time, lambda_d)) {
            ++s1;
            s1_procs += gamma;
          } else if (leq(time, deadline / 2.0)) {
            ++s3;
            EXPECT_EQ(gamma, 1) << where << " task " << i;
            const double size = instance.task(i).time(1);
            auto bin = std::find_if(bins.begin(), bins.end(),
                                    [&](double load) { return leq(load + size, lambda_d); });
            if (bin == bins.end()) {
              bins.push_back(size);
            } else {
              *bin += size;
            }
          } else {
            ++s2;
            q2 += gamma;
          }
        }
        EXPECT_EQ(outcome.s1_count, s1) << where;
        EXPECT_EQ(outcome.s2_count, s2) << where;
        EXPECT_EQ(outcome.s3_count, s3) << where;
        EXPECT_EQ(outcome.q1, s1_procs - machines) << where;
        EXPECT_EQ(outcome.q2, q2) << where;
        EXPECT_EQ(outcome.q3, static_cast<long long>(bins.size())) << where;
        EXPECT_EQ(outcome.knapsack_capacity, machines - q2 - outcome.q3) << where;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(TwoShelf, LambdaSchedulesAllotAsSection4Prescribes) {
  // In every knapsack lambda-schedule, an S1 task either stays on shelf 1
  // (start 0, gamma_i processors) or migrates to shelf 2 (start d,
  // gamma^lambda_i processors, done by d + lambda*d); S2 tasks run on shelf 2
  // at gamma_i and S3 tasks sequentially within it. The migrants' gamma_i
  // sum to the reported knapsack profit, which covers q1.
  int schedules = 0;
  int migrants = 0;
  const auto check = [&](const Instance& instance, double deadline, const std::string& where) {
    const auto outcome = two_shelf_schedule(instance, deadline);
    if (!outcome.schedule || outcome.used_trivial) return;
    ++schedules;
    const auto canonical = canonical_allotment(instance, deadline);
    const double lambda_d = kLambda * deadline;
    long long migrated_profit = 0;
    for (int i = 0; i < instance.size(); ++i) {
      const auto& task = instance.task(i);
      const auto& placed = outcome.schedule->of(i);
      const int gamma = canonical.procs[static_cast<std::size_t>(i)];
      const double time = task.time(gamma);
      if (!leq(time, lambda_d)) {
        if (placed.start == 0.0) {
          EXPECT_EQ(placed.num_procs, gamma) << where << " task " << i;
          continue;
        }
        ++migrants;
        migrated_profit += gamma;
        EXPECT_EQ(placed.start, deadline) << where << " task " << i;
        const auto gamma_lambda = task.min_procs_for(lambda_d);
        ASSERT_TRUE(gamma_lambda.has_value()) << where << " task " << i;
        EXPECT_EQ(placed.num_procs, *gamma_lambda) << where << " task " << i;
        EXPECT_TRUE(leq(placed.end(), deadline + lambda_d)) << where << " task " << i;
      } else if (leq(time, deadline / 2.0)) {
        EXPECT_EQ(placed.num_procs, 1) << where << " task " << i;
        EXPECT_TRUE(geq(placed.start, deadline)) << where << " task " << i;
        EXPECT_TRUE(leq(placed.end(), deadline + lambda_d)) << where << " task " << i;
      } else {
        EXPECT_EQ(placed.start, deadline) << where << " task " << i;
        EXPECT_EQ(placed.num_procs, gamma) << where << " task " << i;
      }
    }
    EXPECT_EQ(migrated_profit, outcome.knapsack_profit) << where;
    EXPECT_GE(migrated_profit, outcome.q1) << where;
  };
  for (const int machines : {4, 8, 16, 32}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      for (const double deadline : {1.0, 1.1}) {
        check(packed_instance(machines, seed), deadline,
              label("packed m=", machines, " seed=", seed, " d=", deadline));
      }
      check(narrow_tall_instance(machines, seed), 1.0,
            label("narrow-tall m=", machines, " seed=", seed));
    }
  }
  EXPECT_GT(schedules, 0);
  EXPECT_GT(migrants, 0);
}

TEST(TwoShelf, TrivialSolutionWhenTheOnlyMigrantOutgrowsTheKnapsack) {
  // m = 8, d = 1. "huge" (t(p) = 4.4/p) has gamma = 5 and gamma^lambda = 7;
  // four flat tasks of 0.74 > lambda can never meet lambda*d, so q1 =
  // 5 + 4 - 8 = 1 and huge is the only candidate. A medium task (q2 = 1) and
  // a tiny one (q3 = 1) leave a knapsack capacity of 6 < 7, so no migration
  // set exists; but gamma = 5 >= q1 + q2 + q3 = 3, so Section 4.5's trivial
  // solution applies: huge alone on shelf 2, everything else on shelf 1.
  // The canonical work, 4.4 + 4 * 0.74 + 0.51 + 0.01 = 7.88, passes
  // Property 2.
  const int machines = 8;
  Instance instance(machines);
  std::vector<double> huge(static_cast<std::size_t>(machines));
  for (int p = 1; p <= machines; ++p) {
    huge[static_cast<std::size_t>(p) - 1] = 4.4 / static_cast<double>(p);
  }
  instance.add_task(huge, "huge");
  for (int i = 0; i < 4; ++i) instance.add_task(sequential_profile(0.74, machines));
  instance.add_task(sequential_profile(0.51, machines), "medium");
  instance.add_task(sequential_profile(0.01, machines), "tiny");
  const auto outcome = two_shelf_schedule(instance, 1.0);
  EXPECT_FALSE(outcome.certified_reject);
  EXPECT_EQ(outcome.q1, 1);
  EXPECT_EQ(outcome.q2, 1);
  EXPECT_EQ(outcome.q3, 1);
  EXPECT_EQ(outcome.knapsack_capacity, 6);
  EXPECT_LT(outcome.knapsack_profit, outcome.q1);
  ASSERT_TRUE(outcome.schedule.has_value());
  EXPECT_TRUE(outcome.used_trivial);
  const auto& schedule = *outcome.schedule;
  EXPECT_TRUE(validate_schedule(schedule, instance).ok);
  EXPECT_TRUE(leq(schedule.makespan(), kSqrt3));
  EXPECT_EQ(schedule.of(0).start, 1.0);
  EXPECT_EQ(schedule.of(0).num_procs, 7);
  for (int i = 1; i < instance.size(); ++i) {
    EXPECT_TRUE(leq(schedule.of(i).end(), 1.0)) << "task " << i;
  }
}

TEST(TwoShelf, NoScheduleWhenNoTallTaskCanMigrate) {
  // Five flat tasks of 0.75 on m = 4: the work, 3.75, passes Property 2,
  // but all five are tall (0.75 > lambda), q1 = 1, and none can shrink to
  // lambda*d. No migration set and no trivial solution exist, so the step
  // returns no schedule without a certificate, and the dual search moves on.
  Instance instance(4);
  for (int i = 0; i < 5; ++i) instance.add_task(sequential_profile(0.75, 4));
  const auto outcome = two_shelf_schedule(instance, 1.0);
  EXPECT_FALSE(outcome.certified_reject);
  EXPECT_FALSE(outcome.schedule.has_value());
  EXPECT_FALSE(outcome.used_trivial);
  EXPECT_EQ(outcome.s1_count, 5);
  EXPECT_EQ(outcome.q1, 1);
  EXPECT_EQ(outcome.knapsack_capacity, 4);
  EXPECT_EQ(outcome.knapsack_profit, 0);
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
