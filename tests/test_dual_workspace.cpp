// Tests for the DualWorkspace hot path: gamma lookups must match a linear
// scan of the profile at every tolerance boundary; canonical allotments and
// areas must be byte-identical to the naive recomputation; full mrt solves
// and the batch pipeline must keep the digests recorded while the
// recompute-everything path still existed to compare against; the scratch
// reuse must be allocation-free after warm-up; full solves' certified
// bounds must never contradict brute force and must bracket the final guess
// within (1+eps); the dual search must keep its recorded figures; and the
// registry must refuse the options of deleted paths.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "api/scheduler_service.hpp"
#include "api/solve_batch.hpp"
#include "registry/solver_registry.hpp"
#include "core/canonical.hpp"
#include "core/dual_workspace.hpp"
#include "core/mrt_scheduler.hpp"
#include "model/lower_bounds.hpp"
#include "oracles/exact_small.hpp"
#include "sched/validate.hpp"
#include "support/fnv.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace malsched {
namespace {

/// The figures an mrt solve reports, from either entry point.
struct SolveFigures {
  double makespan;
  double lower_bound;
  double ratio;
  double final_guess;
  int iterations;
  int gaps;
  std::array<int, kDualBranchCount> branch_counts;
};

SolveFigures figures_of(const MrtResult& result) {
  return {result.makespan,   result.lower_bound, result.ratio,        result.final_guess,
          result.iterations, result.gaps,        result.branch_counts};
}

SolveFigures figures_of(const SolverResult& result) {
  SolveFigures figures{result.makespan,
                       result.lower_bound,
                       result.ratio,
                       result.stat("final_guess"),
                       static_cast<int>(result.stat("iterations")),
                       static_cast<int>(result.stat("gaps")),
                       {}};
  for (int b = 0; b < kDualBranchCount; ++b) {
    figures.branch_counts[static_cast<std::size_t>(b)] =
        static_cast<int>(result.stat("branch." + to_string(static_cast<DualBranch>(b))));
  }
  return figures;
}

/// FNV-1a (support/fnv.hpp) over the figures and every assignment.
std::uint64_t solve_digest(const SolveFigures& figures, const Schedule& schedule) {
  std::uint64_t hash = fnv::kOffset;
  const auto mix_real = [&hash](double value) { fnv::mix_bytes(hash, &value, sizeof value); };
  const auto mix_int = [&hash](long long value) {
    fnv::mix_u64(hash, static_cast<std::uint64_t>(value));
  };
  mix_real(figures.makespan);
  mix_real(figures.lower_bound);
  mix_real(figures.ratio);
  mix_real(figures.final_guess);
  mix_int(figures.iterations);
  mix_int(figures.gaps);
  for (const int count : figures.branch_counts) mix_int(count);
  for (int t = 0; t < schedule.num_tasks(); ++t) {
    mix_int(schedule.is_assigned(t) ? 1 : 0);
    if (!schedule.is_assigned(t)) continue;
    const auto& assignment = schedule.of(t);
    mix_real(assignment.start);
    mix_real(assignment.duration);
    mix_int(assignment.first_proc);
    mix_int(assignment.num_procs);
    for (const int proc : assignment.scattered) mix_int(proc);
  }
  return hash;
}

// ------------------------------------------------------------ gamma lookups

/// gamma_i(d) by definition: the fewest processors whose time is within
/// `deadline` under the library tolerance, scanning the whole profile.
std::optional<int> linear_min_procs_for(const MalleableTask& task, double deadline) {
  for (int p = 1; p <= task.max_procs(); ++p) {
    if (leq(task.time(p), deadline)) return p;
  }
  return std::nullopt;
}

class WorkspaceFamilyTest
    : public ::testing::TestWithParam<std::tuple<WorkloadFamily, int>> {};

TEST_P(WorkspaceFamilyTest, GammaLookupMatchesLinearScan) {
  const auto [family, seed] = GetParam();
  GeneratorOptions options;
  options.tasks = 24;
  options.machines = 12;
  const auto instance = generate_instance(family, options, static_cast<std::uint64_t>(seed));

  // Deadlines probing every breakpoint exactly, one ulp to each side, and a
  // few scales in between: the binary search the canonical allotment uses
  // must agree with the linear scan everywhere, including at the tolerance
  // boundary.
  std::vector<double> deadlines{0.0};
  for (const auto& task : instance.tasks()) {
    for (const double t : task.profile()) {
      deadlines.push_back(t);
      deadlines.push_back(std::nextafter(t, 0.0));
      deadlines.push_back(std::nextafter(t, 1e300));
      deadlines.push_back(t * 0.5);
      deadlines.push_back(t * (1.0 - 1e-9));
      deadlines.push_back(t * (1.0 + 1e-9));
      deadlines.push_back(t * 2.0);
    }
  }
  for (const double d : deadlines) {
    for (int i = 0; i < instance.size(); ++i) {
      const auto& task = instance.task(i);
      EXPECT_EQ(task.min_procs_for(d), linear_min_procs_for(task, d))
          << "task " << i << " d " << d;
    }
  }
}

TEST_P(WorkspaceFamilyTest, CanonicalAllotmentAndAreaAreByteIdentical) {
  const auto [family, seed] = GetParam();
  GeneratorOptions options;
  options.tasks = 32;
  options.machines = 16;
  const auto instance = generate_instance(family, options, static_cast<std::uint64_t>(seed));
  DualWorkspace workspace(instance);

  const double lb = makespan_lower_bound(instance);
  for (const double factor : {0.3, 0.7, 0.95, 1.0, 1.1, 1.5, 2.5, 6.0}) {
    const double d = lb * factor;
    const auto naive = canonical_allotment(instance, d);
    const auto& fast = workspace.canonical(d);
    ASSERT_EQ(naive.feasible, fast.feasible) << "d " << d;
    EXPECT_EQ(naive.procs, fast.procs) << "d " << d;
    EXPECT_EQ(naive.total_work, fast.total_work) << "d " << d;
    EXPECT_EQ(naive.total_procs, fast.total_procs) << "d " << d;
    if (naive.feasible) {
      EXPECT_EQ(canonical_area(instance, naive), canonical_area(workspace, fast)) << "d " << d;
    }
  }
}

TEST_P(WorkspaceFamilyTest, MrtSolveMatchesRecordedDigest) {
  // Recorded while MrtOptions could still run the search without a
  // workspace, recomputing everything per branch; on every cell of this
  // grid both paths produced these digests.
  static const std::map<std::pair<WorkloadFamily, int>, std::uint64_t> kRecorded{
      {{WorkloadFamily::kUniform, 1}, 0x7f78d4ce818e997cull},
      {{WorkloadFamily::kUniform, 2}, 0x149a7c9fa66940cdull},
      {{WorkloadFamily::kUniform, 3}, 0x97bf2898e384fe1bull},
      {{WorkloadFamily::kBimodal, 1}, 0x05aa3d19faea0720ull},
      {{WorkloadFamily::kBimodal, 2}, 0xcb0a18f5ba5ad9fcull},
      {{WorkloadFamily::kBimodal, 3}, 0x3a605fe61c4a1466ull},
      {{WorkloadFamily::kHeavyTail, 1}, 0xbee577df62b9e9d7ull},
      {{WorkloadFamily::kHeavyTail, 2}, 0xfabfe1c41f968008ull},
      {{WorkloadFamily::kHeavyTail, 3}, 0x1179721dc83e5c94ull},
      {{WorkloadFamily::kStairs, 1}, 0xe6f2ccf5a82581b9ull},
      {{WorkloadFamily::kStairs, 2}, 0xcfdd98410aee5151ull},
      {{WorkloadFamily::kStairs, 3}, 0x1210aef8ff79dd9cull},
      {{WorkloadFamily::kPackedOpt1, 1}, 0x620399844bb331a4ull},
      {{WorkloadFamily::kPackedOpt1, 2}, 0x92395feefc2ba9e7ull},
      {{WorkloadFamily::kPackedOpt1, 3}, 0xe06968c481633912ull},
      {{WorkloadFamily::kSequentialOnly, 1}, 0x0bedd85e4192351full},
      {{WorkloadFamily::kSequentialOnly, 2}, 0x42d65a18d3610e15ull},
      {{WorkloadFamily::kSequentialOnly, 3}, 0xaf3629f04ed3477dull},
  };
  const auto [family, seed] = GetParam();
  GeneratorOptions options;
  options.tasks = 28;
  options.machines = 14;
  const auto instance = generate_instance(family, options, static_cast<std::uint64_t>(seed));

  const auto result = mrt_schedule(instance);
  EXPECT_EQ(solve_digest(figures_of(result), result.schedule), kRecorded.at({family, seed}))
      << to_string(family) << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Families, WorkspaceFamilyTest,
    ::testing::Combine(::testing::Values(WorkloadFamily::kUniform, WorkloadFamily::kBimodal,
                                         WorkloadFamily::kHeavyTail, WorkloadFamily::kStairs,
                                         WorkloadFamily::kPackedOpt1,
                                         WorkloadFamily::kSequentialOnly),
                       ::testing::Values(1, 2, 3)));

TEST(DualWorkspace, HandlesPlateauProfilesAtToleranceBoundaries) {
  // Flat and plateaued profiles put many breakpoints on the same deadline;
  // the binary search must still reproduce the linear scan exactly.
  std::vector<MalleableTask> tasks;
  tasks.emplace_back(std::vector<double>{4.0, 4.0, 4.0, 4.0}, "flat");
  tasks.emplace_back(std::vector<double>{8.0, 4.0, 4.0, 4.0}, "plateau");
  tasks.emplace_back(std::vector<double>{1.0 + 1e-10, 1.0, 1.0 - 1e-13, 0.75}, "near-ties");
  const Instance instance(4, std::move(tasks));
  for (int i = 0; i < instance.size(); ++i) {
    const auto& task = instance.task(i);
    for (const double base : {0.25, 0.5, 1.0 - 1e-13, 1.0, 1.0 + 1e-10, 2.0, 4.0, 8.0, 16.0}) {
      for (const double d : {std::nextafter(base, 0.0), base, std::nextafter(base, 100.0)}) {
        EXPECT_EQ(task.min_procs_for(d), linear_min_procs_for(task, d))
            << "task " << i << " d " << d;
      }
    }
  }
}

// ------------------------------------------------------------- batch solves

TEST(DualWorkspace, BatchResultsMatchNaiveAcrossThreadCounts) {
  // The production fan-out at every thread count must reproduce the
  // digests recorded when each of these jobs also ran without a workspace
  // (both paths agreed at 1, 2 and 8 threads).
  static const std::array<std::uint64_t, 6> kRecorded{
      0x69d2dc21f81805e8ull, 0x8875b604bdfd81adull, 0xef7de37999805a8eull,
      0x00b93cf9f88f859full, 0x0e5a6f1185d126b8ull, 0x41faa6c105b2cf54ull,
  };
  std::vector<SolveRequest> jobs;
  Rng rng(4242);
  for (const auto family : all_workload_families()) {
    GeneratorOptions options;
    options.tasks = 20;
    options.machines = 10;
    jobs.push_back({"mrt", SolverOptions::from_string(""),
                    InstanceHandle::intern(generate_instance(family, options, rng.fork_seed()))});
  }
  ASSERT_EQ(jobs.size(), kRecorded.size());

  for (const unsigned threads : {1u, 2u, 8u}) {
    BatchRunnerOptions options;
    options.threads = threads;
    const auto report = solve_batch(jobs, options);
    ASSERT_EQ(report.errors, 0);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto& result = report.items[i].result;
      ASSERT_TRUE(result);
      EXPECT_EQ(solve_digest(figures_of(*result), result->schedule), kRecorded[i])
          << "job " << i << " at " << threads << " threads";
    }
  }
}

// ------------------------------------------------------- allocation audit

TEST(DualWorkspace, DualStepsAreAllocationFreeAfterWarmUp) {
  GeneratorOptions options;
  options.tasks = 40;
  options.machines = 24;
  const auto instance = generate_instance(WorkloadFamily::kUniform, options, 7);
  DualWorkspace workspace(instance);
  MrtOptions mrt;

  const double lb = makespan_lower_bound(instance);
  const auto sweep = [&] {
    for (const double factor : {0.6, 0.9, 1.0, 1.05, 1.2, 1.6, 2.4, 4.0}) {
      (void)mrt_dual_step(workspace, lb * factor, mrt);
    }
  };
  sweep();  // warm-up populates every scratch buffer
  const auto warmed = workspace.stats();
  sweep();
  sweep();
  const auto after = workspace.stats();
  EXPECT_EQ(after.alloc_events, warmed.alloc_events)
      << "scratch buffers grew after warm-up";
  EXPECT_GT(after.canonical_hits, warmed.canonical_hits);  // branches shared the step's allotment
}

// ------------------------------------------------------ certified bounds

class CertifiedBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(CertifiedBoundTest, CertifiedBoundNeverContradictsBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  for (int trial = 0; trial < 6; ++trial) {
    GeneratorOptions options;
    options.tasks = 4;
    options.machines = 4;
    options.seq_time_lo = 0.5;
    options.seq_time_hi = 4.0;
    const auto instance =
        generate_instance(WorkloadFamily::kUniform, options, rng.fork_seed());
    const auto brute = brute_force_schedule(instance);
    ASSERT_TRUE(brute.has_value());

    const auto result = mrt_schedule(instance);
    // The certified bound claims OPT >= lower_bound; brute force exhibits a
    // schedule of length brute->makespan, so the claim must stay below it.
    EXPECT_TRUE(leq(result.lower_bound, brute->makespan))
        << "certified " << result.lower_bound << " vs OPT " << brute->makespan;
  }
}

TEST_P(CertifiedBoundTest, BracketClosesWithinEpsilon) {
  // The two halves of the sqrt(3)(1+eps) guarantee, checked apart: every
  // accepted schedule is within sqrt(3) of its guess, and the search stops
  // on its (1+eps) rule, not its iteration budget, with the final guess
  // bracketed by the certified bound.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131);
  for (int trial = 0; trial < 8; ++trial) {
    GeneratorOptions options;
    options.tasks = 18;
    options.machines = 10;
    const auto instance =
        generate_instance(WorkloadFamily::kUniform, options, rng.fork_seed());

    const MrtOptions mrt;
    const auto result = mrt_schedule(instance, mrt);
    const auto report = validate_schedule(result.schedule, instance);
    ASSERT_TRUE(report.ok) << report.str();
    ASSERT_EQ(result.gaps, 0);
    EXPECT_LT(result.iterations, mrt.search.max_iterations);
    EXPECT_GE(result.lower_bound, makespan_lower_bound(instance));
    EXPECT_TRUE(leq(result.makespan, kSqrt3 * result.final_guess))
        << "makespan " << result.makespan << " guess " << result.final_guess;
    EXPECT_TRUE(leq(result.lower_bound, result.final_guess))
        << "certified " << result.lower_bound << " guess " << result.final_guess;
    EXPECT_TRUE(leq(result.final_guess, (1.0 + mrt.search.epsilon) * result.lower_bound))
        << "certified " << result.lower_bound << " guess " << result.final_guess;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertifiedBoundTest, ::testing::Values(1, 2, 3));

TEST(DualWorkspace, DualSearchMatchesRecordedFigures) {
  // Recorded before the breakpoint-snapped search was deleted, on the
  // instances that pinned it: a strided-size sequential-only instance
  // (n*m = 10240), a stairs instance (n*m = 8640) and the plateau instance
  // of HandlesPlateauProfilesAtToleranceBoundaries. Any change to the guess
  // sequence of the one search moves these figures.
  struct Pinned {
    int iterations;
    double final_guess;
    double makespan;
    double lower_bound;
  };
  const auto check = [](const Instance& instance, const Pinned& pinned, const char* what) {
    const auto result = mrt_schedule(instance);
    EXPECT_EQ(result.iterations, pinned.iterations) << what;
    EXPECT_EQ(result.final_guess, pinned.final_guess) << what;
    EXPECT_EQ(result.makespan, pinned.makespan) << what;
    EXPECT_EQ(result.lower_bound, pinned.lower_bound) << what;
  };

  GeneratorOptions sequential;
  sequential.tasks = 160;
  sequential.machines = 64;
  check(generate_instance(WorkloadFamily::kSequentialOnly, sequential, 5),
        {1, 7.9673639115778139, 7.9673639115778139, 7.9673639115778139}, "sequential-only");

  GeneratorOptions stairs;
  stairs.tasks = 120;
  stairs.machines = 72;
  check(generate_instance(WorkloadFamily::kStairs, stairs, 3),
        {9, 0.86331140036387688, 0.91561436348159664, 0.85864902108876007}, "stairs");

  std::vector<MalleableTask> tasks;
  tasks.emplace_back(std::vector<double>{4.0, 4.0, 4.0, 4.0}, "flat");
  tasks.emplace_back(std::vector<double>{8.0, 4.0, 4.0, 4.0}, "plateau");
  tasks.emplace_back(std::vector<double>{1.0 + 1e-10, 1.0, 1.0 - 1e-13, 0.75}, "near-ties");
  check(Instance(4, std::move(tasks)), {1, 4.0, 4.0, 4.0}, "plateau");
}

// ------------------------------------------------------------ registry keys

TEST(DualWorkspace, RegistryExposesWorkspaceCounters) {
  GeneratorOptions options;
  options.tasks = 16;
  options.machines = 8;
  const auto instance =
      InstanceHandle::intern(generate_instance(WorkloadFamily::kBimodal, options, 3));
  const auto& registry = SolverRegistry::global();
  for (const char* spec : {"", "pick_best_branch=1", "two_shelf=0,canonical_list=0"}) {
    const auto result =
        registry.solve(SolveRequest("mrt", SolverOptions::from_string(spec), instance));
    EXPECT_GE(result.stat("workspace.canonical_evals", -1.0), 1.0) << spec;
    EXPECT_GE(result.stat("workspace.allocations", -1.0), 0.0) << spec;
  }

  // There is no path without a workspace and no second dual search to
  // select any more: the options that once selected them are unknown, in
  // the registry and through the service.
  ServiceConfig config;
  config.threads = 1;
  SchedulerService service(config);
  for (const auto& [key, value] : {std::pair{"workspace", "0"}, std::pair{"snap", "1"}}) {
    const SolveRequest legacy("mrt", SolverOptions{}.set(key, value), instance);
    EXPECT_THROW(static_cast<void>(registry.solve(legacy)), std::invalid_argument) << key;
    const auto outcome = service.wait(service.submit(legacy));
    EXPECT_EQ(outcome.status, SolveStatus::kError) << key;
    EXPECT_EQ(outcome.error.code, SolveErrorCode::kInvalidOption) << key;
  }
}

}  // namespace
}  // namespace malsched
