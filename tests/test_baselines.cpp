// Tests for src/baselines: the Turek/Ludwig two-phase family, the naive
// anchors, and the 3/2-style two-shelf extension.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "baselines/naive.hpp"
#include "baselines/two_phase.hpp"
#include "baselines/two_shelves_32.hpp"
#include "core/mrt_scheduler.hpp"
#include "model/lower_bounds.hpp"
#include "model/speedup_models.hpp"
#include "sched/validate.hpp"
#include "support/math_utils.hpp"
#include "workload/generators.hpp"
#include "support/strings.hpp"

namespace malsched {
namespace {

class TwoPhaseTest
    : public ::testing::TestWithParam<std::tuple<WorkloadFamily, RigidAlgo, int>> {};

TEST_P(TwoPhaseTest, ProducesValidSchedulesAboveTheLowerBound) {
  const auto [family, rigid, seed] = GetParam();
  GeneratorOptions options;
  options.tasks = 30;
  options.machines = 16;
  const auto instance = generate_instance(family, options, static_cast<std::uint64_t>(seed));
  TwoPhaseOptions two_phase;
  two_phase.rigid = rigid;
  const auto result = two_phase_schedule(instance, two_phase);
  const auto report = validate_schedule(result.schedule, instance);
  EXPECT_TRUE(report.ok) << report.str();
  EXPECT_TRUE(geq(result.makespan, makespan_lower_bound(instance)));
  EXPECT_GT(result.candidates_tried, 0);
  EXPECT_GT(result.best_threshold, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TwoPhaseTest,
    ::testing::Combine(::testing::Values(WorkloadFamily::kUniform, WorkloadFamily::kBimodal,
                                         WorkloadFamily::kHeavyTail),
                       ::testing::Values(RigidAlgo::kNfdh, RigidAlgo::kFfdh,
                                         RigidAlgo::kListSchedule),
                       ::testing::Values(1, 2)));

TEST(TwoPhase, FullCandidateSetAtLeastAsGoodAsSampled) {
  GeneratorOptions options;
  options.tasks = 15;
  options.machines = 8;
  const auto instance = generate_instance(WorkloadFamily::kUniform, options, 5);
  TwoPhaseOptions sampled;
  sampled.max_candidates = 8;
  TwoPhaseOptions full;
  full.max_candidates = 0;
  const auto sampled_result = two_phase_schedule(instance, sampled);
  const auto full_result = two_phase_schedule(instance, full);
  EXPECT_TRUE(leq(full_result.makespan, sampled_result.makespan * (1.0 + 1e-9)));
  EXPECT_GE(full_result.candidates_tried, sampled_result.candidates_tried);
}

// A threshold below max_i t_i(m) admits no allotment, so the candidate
// budget goes to the thresholds that some allotment meets. On this heavy-tail
// instance (an EXP-T5 draw) 17 distinct profile values reach the longest
// task's t(m); an even subsample of every value tried 1 of them.
TEST(TwoPhase, SpendsTheCandidateBudgetOnFeasibleThresholds) {
  GeneratorOptions options;
  options.tasks = 64;
  options.machines = 32;
  const auto instance = generate_instance(WorkloadFamily::kHeavyTail, options, 9004);
  TwoPhaseOptions full;
  full.max_candidates = 0;
  const auto every = two_phase_schedule(instance, full);
  const auto sampled = two_phase_schedule(instance);
  EXPECT_EQ(every.candidates_tried, 17);
  EXPECT_EQ(sampled.candidates_tried, every.candidates_tried);
  EXPECT_EQ(sampled.makespan, every.makespan);
  EXPECT_EQ(sampled.best_threshold, every.best_threshold);
}

// max_candidates = 1, the registry's lower limit, tries the smallest
// threshold every task meets: max_i t_i(m).
TEST(TwoPhase, OneCandidateIsTheSmallestFeasibleThreshold) {
  GeneratorOptions options;
  options.tasks = 20;
  options.machines = 8;
  const auto instance = generate_instance(WorkloadFamily::kUniform, options, 5);
  double longest = 0.0;
  for (int i = 0; i < instance.size(); ++i) longest = std::max(longest, instance.task(i).time(8));
  TwoPhaseOptions one;
  one.max_candidates = 1;
  const auto result = two_phase_schedule(instance, one);
  EXPECT_EQ(result.candidates_tried, 1);
  EXPECT_DOUBLE_EQ(result.best_threshold, longest);
  EXPECT_TRUE(validate_schedule(result.schedule, instance).ok);
}

TEST(TwoPhase, RigidAlgoNames) {
  EXPECT_EQ(to_string(RigidAlgo::kNfdh), "nfdh");
  EXPECT_EQ(to_string(RigidAlgo::kFfdh), "ffdh");
  EXPECT_EQ(to_string(RigidAlgo::kListSchedule), "list");
}

// -------------------------------------------------------------------- naive

TEST(Naive, LptSequentialValid) {
  GeneratorOptions options;
  options.tasks = 25;
  options.machines = 8;
  const auto instance = generate_instance(WorkloadFamily::kUniform, options, 3);
  const auto schedule = lpt_sequential_schedule(instance);
  EXPECT_TRUE(validate_schedule(schedule, instance).ok);
  for (int i = 0; i < instance.size(); ++i) EXPECT_EQ(schedule.of(i).procs(), 1);
}

TEST(Naive, GangSerializesEverything) {
  GeneratorOptions options;
  options.tasks = 10;
  options.machines = 8;
  const auto instance = generate_instance(WorkloadFamily::kUniform, options, 4);
  const auto schedule = gang_schedule(instance);
  EXPECT_TRUE(validate_schedule(schedule, instance).ok);
  double expected = 0.0;
  for (int i = 0; i < instance.size(); ++i) expected += instance.task(i).time(8);
  EXPECT_NEAR(schedule.makespan(), expected, 1e-9);
}

TEST(Naive, HalfMaxSpeedupValid) {
  GeneratorOptions options;
  options.tasks = 25;
  options.machines = 16;
  const auto instance = generate_instance(WorkloadFamily::kBimodal, options, 5);
  const auto schedule = half_max_speedup_schedule(instance);
  EXPECT_TRUE(validate_schedule(schedule, instance).ok);
}

TEST(Naive, MrtBeatsOrMatchesNaiveOnAdversarialShapes) {
  // A single huge parallel task plus filler: LPT-sequential is terrible,
  // gang wastes the filler's parallelism -- MRT should beat both clearly.
  Instance instance(16);
  instance.add_task(power_law_profile(40.0, 0.95, 16), "huge");
  for (int i = 0; i < 16; ++i) {
    instance.add_task(sequential_profile(1.0, 16), label("f", i));
  }
  const auto mrt = mrt_schedule(instance);
  const auto lpt = lpt_sequential_schedule(instance);
  const auto gang = gang_schedule(instance);
  EXPECT_FALSE(geq(mrt.makespan, lpt.makespan()));
  EXPECT_TRUE(leq(mrt.makespan, gang.makespan() * (1.0 + 1e-9)));
}

// -------------------------------------------------------- 3/2-style shelves

TEST(ThreeHalves, DualStepAcceptsOnlyValidatedSchedules) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto instance = packed_instance(12, seed);
    const auto outcome = three_halves_dual_step(instance, 1.0);
    EXPECT_FALSE(outcome.certified_reject) << "OPT <= 1 by construction";
    if (outcome.schedule) {
      EXPECT_TRUE(validate_schedule(*outcome.schedule, instance).ok);
      EXPECT_TRUE(leq(outcome.schedule->makespan(), 1.5));
    }
  }
}

TEST(ThreeHalves, FullSolveStaysWithinSqrt3Envelope) {
  // The solver falls back to the malleable list step, so even when the 3/2
  // heuristic misses, the end-to-end ratio stays within the sqrt(3) world.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    GeneratorOptions options;
    options.tasks = 20;
    options.machines = 12;
    const auto instance = generate_instance(WorkloadFamily::kUniform, options, seed);
    const auto result = three_halves_schedule(instance, 0.02);
    EXPECT_TRUE(validate_schedule(result.schedule, instance).ok);
    EXPECT_TRUE(geq(result.makespan, result.lower_bound));
    EXPECT_LT(result.ratio, 2.0);
  }
}

TEST(ThreeHalves, AcceptsWhenEverythingFitsTheShortShelf) {
  // All tasks meet d/2 on one processor and there are fewer tasks than
  // machines: the step must accept with a schedule no longer than 1.5 d
  // (after compaction, in fact no longer than d/2).
  Instance instance(8);
  for (int i = 0; i < 6; ++i) instance.add_task(sequential_profile(0.4, 8));
  const auto outcome = three_halves_dual_step(instance, 1.0);
  ASSERT_TRUE(outcome.schedule.has_value());
  EXPECT_TRUE(leq(outcome.schedule->makespan(), 0.5));
}

TEST(ThreeHalves, AcceptsAboveTheOptimumOnPackedInstances) {
  // At the exact optimum the rigid 3/2 structure may not exist; slightly
  // above it (guess 1.5) the heuristic should land some acceptances, each
  // within 1.5 * guess.
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto instance = packed_instance(16, seed);
    const auto outcome = three_halves_dual_step(instance, 1.5);
    if (outcome.schedule) {
      ++accepted;
      EXPECT_TRUE(leq(outcome.schedule->makespan(), 1.5 * 1.5));
    }
  }
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace malsched
