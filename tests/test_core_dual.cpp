// Tests for the dual-approximation machinery: soundness of rejections,
// acceptance bounds, the dichotomic search, and cross-checks against the
// brute-force oracle on tiny instances.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "core/dual_approx.hpp"
#include "core/mrt_scheduler.hpp"
#include "model/lower_bounds.hpp"
#include "model/speedup_models.hpp"
#include "oracles/exact_small.hpp"
#include "sched/validate.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace malsched {
namespace {

// ---------------------------------------------------------------- dual step

class DualStepSweepTest
    : public ::testing::TestWithParam<std::tuple<WorkloadFamily, int>> {};

TEST_P(DualStepSweepTest, AcceptanceAlwaysValidatedWithinSqrt3) {
  const auto [family, seed] = GetParam();
  GeneratorOptions options;
  options.tasks = 30;
  options.machines = 16;
  const auto instance = generate_instance(family, options, static_cast<std::uint64_t>(seed));
  const double lb = makespan_lower_bound(instance);
  for (const double factor : {0.5, 0.8, 1.0, 1.3, 1.8, 3.0, 8.0}) {
    const double guess = lb * factor;
    const auto outcome = mrt_dual_step(instance, guess);
    if (outcome.schedule) {
      ValidationOptions validation;
      validation.makespan_bound = kSqrt3 * guess;
      const auto report = validate_schedule(*outcome.schedule, instance, validation);
      EXPECT_TRUE(report.ok) << to_string(outcome.branch) << ": " << report.str();
    } else if (outcome.certified_reject) {
      // A certificate at `guess` asserts OPT > guess; it must never fire at
      // a guess we can refute with an actual schedule later. Checked
      // globally by the packed-instance test below.
      EXPECT_EQ(outcome.branch, DualBranch::kRejected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, DualStepSweepTest,
    ::testing::Combine(::testing::Values(WorkloadFamily::kUniform, WorkloadFamily::kBimodal,
                                         WorkloadFamily::kHeavyTail, WorkloadFamily::kStairs,
                                         WorkloadFamily::kSequentialOnly),
                       ::testing::Values(1, 2, 3)));

TEST(DualStep, NeverCertifiedRejectsOptLeOneInstances) {
  // Packed instances admit a schedule of length 1; Property 2 must therefore
  // never certify OPT > 1 at guess 1, and per the paper the step should in
  // fact *accept* guess 1 (no gaps).
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const int machines : {4, 8, 16, 24}) {
      const auto instance = packed_instance(machines, seed);
      const auto outcome = mrt_dual_step(instance, 1.0);
      EXPECT_FALSE(outcome.certified_reject)
          << "unsound certificate at seed " << seed << " m " << machines;
      if (outcome.schedule) {
        ++accepted;
        EXPECT_TRUE(leq(outcome.schedule->makespan(), kSqrt3));
      } else {
        ADD_FAILURE() << "gap at OPT<=1 instance: seed " << seed << " m " << machines;
      }
    }
  }
  EXPECT_EQ(accepted, 160);
}

TEST(DualStep, CertificatesAgreeWithBruteForceOnTinyInstances) {
  // For instances small enough to enumerate: whenever the dual step
  // certified-rejects a guess, no brute-force schedule may beat that guess.
  Rng rng(99);
  for (int trial = 0; trial < 15; ++trial) {
    GeneratorOptions options;
    options.tasks = 4;
    options.machines = 4;
    options.seq_time_lo = 0.5;
    options.seq_time_hi = 4.0;
    const auto instance = generate_instance(WorkloadFamily::kUniform, options, rng.fork_seed());
    const auto brute = brute_force_schedule(instance);
    ASSERT_TRUE(brute.has_value());
    for (const double factor : {0.55, 0.7, 0.85, 0.95, 1.0, 1.1}) {
      const double guess = brute->makespan * factor;
      const auto outcome = mrt_dual_step(instance, guess);
      if (outcome.certified_reject) {
        EXPECT_TRUE(lt_strict(guess, brute->makespan))
            << "certificate contradicts a known schedule of length "
            << brute->makespan;
      }
    }
  }
}

TEST(DualStep, BranchSelectionFollowsAreaRegime) {
  // A packed instance with large canonical area should route to the
  // knapsack; one with small area to a list/single-shelf branch.
  int knapsack_when_large = 0;
  int large_area_steps = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto instance = packed_instance(16, seed);
    const auto outcome = mrt_dual_step(instance, 1.0);
    ASSERT_TRUE(outcome.schedule.has_value());
    if (!outcome.area_condition) {
      ++large_area_steps;
      knapsack_when_large += outcome.branch == DualBranch::kTwoShelfKnapsack ||
                             outcome.branch == DualBranch::kTwoShelfTrivial;
    }
  }
  if (large_area_steps > 0) {
    // The knapsack route should handle the clear majority of large-area
    // steps (it is the guaranteed branch there).
    EXPECT_GE(knapsack_when_large * 10, large_area_steps * 5);
  }
}

// -------------------------------------------------------------- dual search

TEST(DualSearch, SyntheticStepConvergesToThreshold) {
  // A synthetic dual step accepting exactly when guess >= 5.0; the search
  // must bracket 5.0 within (1+eps) and report certified bounds.
  std::vector<MalleableTask> tasks;
  tasks.emplace_back(sequential_profile(1.0, 2));
  const Instance instance(2, std::move(tasks));
  const DualStep step = [&](double guess) {
    DualStepResult result;
    if (guess >= 5.0) {
      Schedule schedule(2, 1);
      schedule.assign(0, 0.0, 1.0, 0, 1);
      result.schedule = std::move(schedule);
    } else {
      result.certified_reject = true;
    }
    return result;
  };
  DualSearchOptions options;
  options.epsilon = 0.01;
  const auto result = dual_search(instance, step, options);
  EXPECT_GE(result.final_guess, 5.0);
  EXPECT_LE(result.final_guess, 5.0 * 1.03);
  EXPECT_GE(result.certified_lower_bound, 5.0 / 1.03);
  EXPECT_EQ(result.gaps, 0);
}

TEST(DualSearch, UncertifiedRejectionsCountAsGaps) {
  std::vector<MalleableTask> tasks;
  tasks.emplace_back(sequential_profile(1.0, 2));
  const Instance instance(2, std::move(tasks));
  int steps = 0;
  const DualStep step = [&](double guess) {
    ++steps;
    DualStepResult result;
    if (guess >= 4.0) {
      Schedule schedule(2, 1);
      schedule.assign(0, 0.0, 1.0, 0, 1);
      result.schedule = std::move(schedule);
    }
    // no certificate on rejection
    return result;
  };
  const auto result = dual_search(instance, step, {});
  EXPECT_GT(result.gaps, 0);
  // Gaps must not inflate the certified bound beyond the static LB (1.0
  // area/2... here max(t(2), work/2) = 1.0 sequential time on 2 procs ->
  // lb = max(1.0, 0.5) = 1.0).
  EXPECT_NEAR(result.certified_lower_bound, makespan_lower_bound(instance), 1e-12);
}

TEST(DualSearch, EscapesZeroStaticLowerBound) {
  // An empty instance has a static lower bound of 0; before the ramp guard,
  // phase 1 could never escape `hi *= 2.0` from 0.0 and a step that only
  // accepts larger guesses exhausted the whole iteration budget and threw.
  const Instance instance(2, {});
  ASSERT_EQ(makespan_lower_bound(instance), 0.0);

  int steps = 0;
  double first_guess = 0.0;
  const DualStep step = [&](double guess) {
    if (steps++ == 0) first_guess = guess;
    DualStepResult result;
    if (guess >= 5.0) result.schedule = Schedule(2, 0);
    return result;
  };
  const auto result = dual_search(instance, step, {});
  EXPECT_EQ(first_guess, 1.0);  // empty-profile fallback seed
  EXPECT_GE(result.final_guess, 5.0);
  EXPECT_LE(result.final_guess, 5.0 * 1.03);
  EXPECT_LE(steps, 16);  // 1, 2, 4, 8 ramp plus the geometric bisection
}

TEST(DualSearch, RampStartEqualsStaticBoundOnRegularInstances) {
  // The guard must not perturb the guess sequence of any real instance:
  // the first guess is the static lower bound itself.
  const auto instance = packed_instance(8, 3);
  std::vector<double> guesses;
  const DualStep step = [&](double guess) {
    guesses.push_back(guess);
    DualStepResult result;
    result.schedule = Schedule(instance.machines(), 0);
    return result;
  };
  static_cast<void>(dual_search(instance, step, {}));
  ASSERT_FALSE(guesses.empty());
  EXPECT_EQ(guesses.front(), makespan_lower_bound(instance));
}

TEST(DualSearch, RejectsBadEpsilon) {
  std::vector<MalleableTask> tasks;
  tasks.emplace_back(sequential_profile(1.0, 2));
  const Instance instance(2, std::move(tasks));
  DualSearchOptions options;
  options.epsilon = 0.0;
  EXPECT_THROW(
      dual_search(instance, [](double) { return DualStepResult{}; }, options),
      std::invalid_argument);
}

TEST(DualSearch, ThrowsWhenNothingAccepted) {
  std::vector<MalleableTask> tasks;
  tasks.emplace_back(sequential_profile(1.0, 2));
  const Instance instance(2, std::move(tasks));
  DualSearchOptions options;
  options.max_iterations = 10;
  EXPECT_THROW(
      dual_search(instance, [](double) { return DualStepResult{}; }, options),
      std::runtime_error);
}

TEST(DualSearch, TighterEpsilonTightensTheBracket) {
  const auto instance = packed_instance(12, 7);
  const DualStep step = [&](double guess) {
    auto outcome = mrt_dual_step(instance, guess);
    DualStepResult result;
    result.schedule = std::move(outcome.schedule);
    result.certified_reject = outcome.certified_reject;
    return result;
  };
  DualSearchOptions coarse;
  coarse.epsilon = 0.2;
  DualSearchOptions fine;
  fine.epsilon = 0.005;
  const auto coarse_result = dual_search(instance, step, coarse);
  const auto fine_result = dual_search(instance, step, fine);
  EXPECT_LE(fine_result.final_guess, coarse_result.final_guess * (1.0 + 1e-9));
  EXPECT_GE(fine_result.iterations, coarse_result.iterations);
}

}  // namespace
}  // namespace malsched
