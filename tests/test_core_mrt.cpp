// End-to-end tests of the combined sqrt(3) scheduler (Theorem 3): guarantee,
// gap-freedom, option toggles, and the m_mu estimator.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/canonical.hpp"
#include "core/mmu.hpp"
#include "core/mrt_scheduler.hpp"
#include "model/lower_bounds.hpp"
#include "sched/compaction.hpp"
#include "sched/validate.hpp"
#include "support/cancellation.hpp"
#include "support/math_utils.hpp"
#include "support/statistics.hpp"
#include "workload/generators.hpp"
#include "workload/ocean.hpp"
#include "workload/trace.hpp"

namespace malsched {
namespace {

class MrtEndToEndTest
    : public ::testing::TestWithParam<std::tuple<WorkloadFamily, int, int>> {};

TEST_P(MrtEndToEndTest, GuaranteeHolds) {
  const auto [family, machines, seed] = GetParam();
  GeneratorOptions options;
  options.tasks = machines * 2;
  options.machines = machines;
  const auto instance = generate_instance(family, options, static_cast<std::uint64_t>(seed));

  MrtOptions mrt;
  mrt.search.epsilon = 0.02;
  const auto result = mrt_schedule(instance, mrt);

  const auto report = validate_schedule(result.schedule, instance);
  ASSERT_TRUE(report.ok) << report.str();
  EXPECT_EQ(result.gaps, 0) << "the paper's theorems rule out gaps";
  EXPECT_TRUE(geq(result.makespan, makespan_lower_bound(instance)));
  EXPECT_TRUE(leq(result.ratio, kSqrt3 * (1.0 + mrt.search.epsilon) + 1e-9))
      << "ratio " << result.ratio;
  // Branch accounting covers every dual iteration.
  int counted = 0;
  for (const int count : result.branch_counts) counted += count;
  EXPECT_EQ(counted, result.iterations);
}

INSTANTIATE_TEST_SUITE_P(
    Families, MrtEndToEndTest,
    ::testing::Combine(::testing::Values(WorkloadFamily::kUniform, WorkloadFamily::kBimodal,
                                         WorkloadFamily::kHeavyTail, WorkloadFamily::kStairs,
                                         WorkloadFamily::kPackedOpt1,
                                         WorkloadFamily::kSequentialOnly),
                       ::testing::Values(4, 16, 48), ::testing::Values(1, 2)));

TEST(MrtScheduler, SmallMachineCountsUseTheMalleableListSafetyNet) {
  // m <= 6: even alone, the malleable list branch certifies sqrt(3).
  for (const int machines : {1, 2, 3, 5, 6}) {
    GeneratorOptions options;
    options.tasks = 12;
    options.machines = machines;
    const auto instance = generate_instance(WorkloadFamily::kUniform, options, 9);
    MrtOptions mrt;
    mrt.enable_two_shelf = false;
    mrt.enable_canonical_list = false;
    const auto result = mrt_schedule(instance, mrt);
    EXPECT_EQ(result.gaps, 0);
    EXPECT_TRUE(leq(result.ratio, kSqrt3 * 1.02 + 1e-9));
  }
}

TEST(MrtScheduler, PackedInstancesStayNearOne) {
  // OPT <= 1 by construction, so the absolute makespan must be <= sqrt(3)
  // * (1 + eps) and the search's final guess must be close to 1 or below.
  Summary ratios;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto instance = packed_instance(16, seed);
    const auto result = mrt_schedule(instance);
    EXPECT_TRUE(leq(result.makespan, kSqrt3 * 1.02));
    ratios.add(result.makespan);  // vs the known OPT bound of 1
  }
  EXPECT_LE(ratios.max(), kSqrt3 * 1.02);
}

TEST(MrtScheduler, PickBestBranchNeverWorse) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    GeneratorOptions options;
    options.tasks = 24;
    options.machines = 12;
    const auto instance =
        generate_instance(WorkloadFamily::kUniform, options, seed);
    MrtOptions fast;
    MrtOptions best;
    best.pick_best_branch = true;
    const auto fast_result = mrt_schedule(instance, fast);
    const auto best_result = mrt_schedule(instance, best);
    EXPECT_TRUE(leq(best_result.makespan, fast_result.makespan * (1.0 + 1e-9)));
  }
}

TEST(MrtScheduler, CompactionNeverHurts) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    GeneratorOptions options;
    options.tasks = 30;
    options.machines = 16;
    const auto instance = generate_instance(WorkloadFamily::kBimodal, options, seed);
    MrtOptions with;
    MrtOptions without;
    without.use_compaction = false;
    const auto with_result = mrt_schedule(instance, with);
    const auto without_result = mrt_schedule(instance, without);
    EXPECT_TRUE(leq(with_result.makespan, without_result.makespan * (1.0 + 1e-9)));
  }
}

TEST(MrtScheduler, WorksOnOceanWorkload) {
  OceanOptions ocean;
  ocean.machines = 32;
  const auto instance = ocean_instance(ocean, 11);
  const auto result = mrt_schedule(instance);
  EXPECT_EQ(result.gaps, 0);
  EXPECT_TRUE(leq(result.ratio, kSqrt3 * 1.02 + 1e-9));
  EXPECT_TRUE(validate_schedule(result.schedule, instance).ok);
}

TEST(MrtScheduler, WorksOnTraceWorkload) {
  TraceOptions trace;
  trace.machines = 64;
  trace.jobs = 50;
  const auto instance = trace_snapshot(trace, 13);
  const auto result = mrt_schedule(instance);
  EXPECT_EQ(result.gaps, 0);
  EXPECT_TRUE(leq(result.ratio, kSqrt3 * 1.02 + 1e-9));
}

TEST(MrtScheduler, SingleTaskInstance) {
  Instance instance(4);
  instance.add_task(std::vector<double>{4.0, 2.5, 2.0, 1.75}, "only");
  const auto result = mrt_schedule(instance);
  // One task: optimum is t(m) (monotone) and the scheduler must find it.
  EXPECT_NEAR(result.makespan, 1.75, 1e-9);
}

TEST(MrtScheduler, CreepingSingleTaskKeepsItsBoundBelowTheMakespan) {
  // t(p) = 1 + (p-1)*0.9e-9 rises by less than the validation slack per
  // step. Read as given, t(64) would put the critical-path bound above
  // t(1) = 1, reject d = 1 and certify a bound above the delivered
  // makespan; the stored running minimum keeps all three consistent.
  std::vector<double> creeping(64);
  for (std::size_t p = 0; p < creeping.size(); ++p) {
    creeping[p] = 1.0 + static_cast<double>(p) * 0.9e-9;
  }
  Instance instance(64);
  instance.add_task(creeping, "creeping");
  EXPECT_EQ(instance.task(0).min_procs_for(1.0), 1);
  EXPECT_FALSE(certified_infeasible(instance, canonical_allotment(instance, 1.0)));

  const auto result = mrt_schedule(instance);
  EXPECT_EQ(result.makespan, 1.0);
  EXPECT_LE(result.lower_bound, result.makespan);
}

TEST(MrtScheduler, DualStepProbesItsCancelCheckBeforeAcceptingASchedule) {
  // 40 tasks stay below one CancelCheck stride, so the canonical list's
  // per-task tick never polls; only the step's own probe, after the
  // construction and before compaction and validation, sees the token.
  GeneratorOptions generator;
  generator.tasks = 40;
  generator.machines = 8;
  const auto instance = generate_instance(WorkloadFamily::kUniform, generator, 11);
  const double deadline = instance.total_sequential_work();
  ASSERT_TRUE(mrt_dual_step(instance, deadline).schedule);

  CancelToken token;
  token.cancel();
  MrtOptions options;
  options.search.cancel = CancelCheck(&token, 0.0);
  EXPECT_THROW(static_cast<void>(mrt_dual_step(instance, deadline, options)), CancelledError);
}

// Theorem 3 accepts a construction only within sqrt(3)*d, and the step's
// final validation is the only code that enforces it. On these two steps the
// canonical list, the one construction left on, builds a schedule between
// sqrt(3)*d and 2.5*d, so any looser acceptance bound would take it.
TEST(MrtScheduler, DualStepRefusesASchedulePastSqrt3TimesTheGuess) {
  struct Step {
    WorkloadFamily family;
    std::uint64_t seed;
    double guess_over_lower_bound;
  };
  for (const auto& step : {Step{WorkloadFamily::kStairs, 4, 1.18},
                           Step{WorkloadFamily::kPackedOpt1, 5, 1.30}}) {
    GeneratorOptions generator;
    generator.tasks = 6;
    generator.machines = 32;
    const auto instance = generate_instance(step.family, generator, step.seed);
    const double deadline = step.guess_over_lower_bound * makespan_lower_bound(instance);
    MrtOptions options;
    options.enable_two_shelf = false;
    options.enable_malleable_list = false;
    const auto outcome = mrt_dual_step(instance, deadline, options);
    EXPECT_EQ(outcome.branch, DualBranch::kGap) << to_string(step.family);
    EXPECT_FALSE(outcome.schedule.has_value());

    const auto list = canonical_list_schedule(instance, deadline, options.canonical_list);
    ASSERT_TRUE(list.schedule.has_value()) << to_string(step.family);
    const double makespan = compact_schedule(*list.schedule, instance).makespan();
    EXPECT_GT(makespan, kSqrt3 * deadline) << to_string(step.family);
    EXPECT_LE(makespan, 2.5 * deadline) << to_string(step.family);
  }
}

TEST(MrtScheduler, BranchNamesAreDistinct) {
  for (int b = 0; b < kDualBranchCount; ++b) {
    for (int c = b + 1; c < kDualBranchCount; ++c) {
      EXPECT_NE(to_string(static_cast<DualBranch>(b)), to_string(static_cast<DualBranch>(c)));
    }
  }
}

// ------------------------------------------------------------------- m_mu

TEST(Mmu, EstimatorRunsAndStaysInRange) {
  MmuEstimateOptions options;
  options.trials_per_m = 25;
  options.scan_limit = 12;
  const InstanceFactory factory = [](int machines, std::uint64_t seed) {
    return packed_instance(machines, seed);
  };
  const auto point = estimate_mmu(kMu, factory, options);
  EXPECT_EQ(point.kstar, 6);
  EXPECT_EQ(point.reallocation_width, 4);
  EXPECT_GE(point.empirical_m, 2);
  EXPECT_LE(point.empirical_m, options.scan_limit + 1);
}

TEST(Mmu, CurveCoversGrid) {
  MmuEstimateOptions options;
  options.trials_per_m = 10;
  options.scan_limit = 8;
  const InstanceFactory factory = [](int machines, std::uint64_t seed) {
    return packed_instance(machines, seed);
  };
  const auto curve = mmu_curve({0.78, kMu, 0.95}, factory, options);
  ASSERT_EQ(curve.size(), 3u);
  for (const auto& point : curve) {
    EXPECT_GE(point.empirical_m, 2);
    EXPECT_GE(point.kstar, 1);
  }
}

}  // namespace
}  // namespace malsched
