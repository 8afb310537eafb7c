// Tests for the DualWorkspace hot path: gamma lookups, canonical
// allotments, areas, full mrt solves, and the batch pipeline must be
// byte-identical to the naive recomputation they replace; the scratch reuse
// must be allocation-free after warm-up; and the breakpoint-snapped dual
// search must stay sound (certified bounds never contradict brute force)
// and keep its recorded figures.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include "api/solve_batch.hpp"
#include "registry/solver_registry.hpp"
#include "core/canonical.hpp"
#include "core/dual_workspace.hpp"
#include "core/mrt_scheduler.hpp"
#include "model/lower_bounds.hpp"
#include "oracles/exact_small.hpp"
#include "sched/validate.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace malsched {
namespace {

void expect_same_schedule(const Schedule& a, const Schedule& b, const std::string& what) {
  ASSERT_EQ(a.num_tasks(), b.num_tasks()) << what;
  ASSERT_EQ(a.machines(), b.machines()) << what;
  for (int t = 0; t < a.num_tasks(); ++t) {
    ASSERT_EQ(a.is_assigned(t), b.is_assigned(t)) << what << " task " << t;
    if (!a.is_assigned(t)) continue;
    const auto& x = a.of(t);
    const auto& y = b.of(t);
    EXPECT_EQ(x.start, y.start) << what << " task " << t;
    EXPECT_EQ(x.duration, y.duration) << what << " task " << t;
    EXPECT_EQ(x.first_proc, y.first_proc) << what << " task " << t;
    EXPECT_EQ(x.num_procs, y.num_procs) << what << " task " << t;
    EXPECT_EQ(x.scattered, y.scattered) << what << " task " << t;
  }
}

// ------------------------------------------------------------ gamma lookups

class WorkspaceFamilyTest
    : public ::testing::TestWithParam<std::tuple<WorkloadFamily, int>> {};

TEST_P(WorkspaceFamilyTest, GammaLookupMatchesProfileBinarySearch) {
  const auto [family, seed] = GetParam();
  GeneratorOptions options;
  options.tasks = 24;
  options.machines = 12;
  const auto instance = generate_instance(family, options, static_cast<std::uint64_t>(seed));
  DualWorkspace workspace(instance);

  // Deadlines probing every breakpoint exactly, one ulp to each side, and a
  // few scales in between: the workspace must agree with the naive binary
  // search everywhere, including at the tolerance boundary.
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
      const auto naive = instance.task(i).min_procs_for(d);
      const auto fast = workspace.min_procs_for(i, d);
      ASSERT_EQ(naive.has_value(), fast.has_value()) << "task " << i << " d " << d;
      if (naive) {
        EXPECT_EQ(*naive, *fast) << "task " << i << " d " << d;
      }
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

TEST_P(WorkspaceFamilyTest, MrtSolveIsByteIdenticalToLegacyPath) {
  const auto [family, seed] = GetParam();
  GeneratorOptions options;
  options.tasks = 28;
  options.machines = 14;
  const auto instance = generate_instance(family, options, static_cast<std::uint64_t>(seed));

  MrtOptions legacy;
  legacy.use_workspace = false;
  MrtOptions fast;
  fast.use_workspace = true;

  const auto a = mrt_schedule(instance, legacy);
  const auto b = mrt_schedule(instance, fast);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.ratio, b.ratio);
  EXPECT_EQ(a.final_guess, b.final_guess);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.gaps, b.gaps);
  EXPECT_EQ(a.branch_counts, b.branch_counts);
  expect_same_schedule(a.schedule, b.schedule, to_string(family));
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
  // the workspace lookup must still reproduce the naive search exactly.
  std::vector<MalleableTask> tasks;
  tasks.emplace_back(std::vector<double>{4.0, 4.0, 4.0, 4.0}, "flat");
  tasks.emplace_back(std::vector<double>{8.0, 4.0, 4.0, 4.0}, "plateau");
  tasks.emplace_back(std::vector<double>{1.0 + 1e-10, 1.0, 1.0 - 1e-13, 0.75}, "near-ties");
  const Instance instance(4, std::move(tasks));
  DualWorkspace workspace(instance);
  for (int i = 0; i < instance.size(); ++i) {
    for (const double base : {0.25, 0.5, 1.0 - 1e-13, 1.0, 1.0 + 1e-10, 2.0, 4.0, 8.0, 16.0}) {
      for (const double d : {std::nextafter(base, 0.0), base, std::nextafter(base, 100.0)}) {
        const auto naive = instance.task(i).min_procs_for(d);
        const auto fast = workspace.min_procs_for(i, d);
        ASSERT_EQ(naive.has_value(), fast.has_value()) << "task " << i << " d " << d;
        if (naive) {
          EXPECT_EQ(*naive, *fast) << "task " << i << " d " << d;
        }
      }
    }
  }
}

// ------------------------------------------------------------- batch solves

TEST(DualWorkspace, BatchResultsMatchNaiveAcrossThreadCounts) {
  // The production fan-out: the default (workspace) mrt config must produce
  // the same schedules and bounds as the workspace=0 recomputation, on every
  // thread count.
  std::vector<InstanceHandle> instances;
  Rng rng(4242);
  for (const auto family : all_workload_families()) {
    GeneratorOptions options;
    options.tasks = 20;
    options.machines = 10;
    instances.push_back(
        InstanceHandle::intern(generate_instance(family, options, rng.fork_seed())));
  }

  std::vector<SolveRequest> jobs;
  for (const auto& instance : instances) {
    jobs.push_back({"mrt", SolverOptions::from_string(""), instance});
    jobs.push_back({"mrt", SolverOptions::from_string("workspace=0"), instance});
  }

  std::vector<BatchReport> reports;
  for (const unsigned threads : {1u, 2u, 8u}) {
    BatchRunnerOptions options;
    options.threads = threads;
    reports.push_back(solve_batch(jobs, options));
  }
  for (const auto& report : reports) {
    ASSERT_EQ(report.errors, 0);
    for (std::size_t i = 0; i < jobs.size(); i += 2) {
      const auto& fast = report.items[i].result;
      const auto& naive = report.items[i + 1].result;
      ASSERT_TRUE(fast && naive);
      EXPECT_EQ(fast->makespan, naive->makespan) << "job " << i;
      EXPECT_EQ(fast->lower_bound, naive->lower_bound) << "job " << i;
      EXPECT_EQ(fast->ratio, naive->ratio) << "job " << i;
      expect_same_schedule(fast->schedule, naive->schedule, "batch job " + std::to_string(i));
    }
    // Byte-identical across thread counts as well (the exec guarantee).
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(report.items[i].result->makespan, reports[0].items[i].result->makespan);
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

// ------------------------------------------------------------ snapped search

class SnappedSearchTest : public ::testing::TestWithParam<int> {};

TEST_P(SnappedSearchTest, StaysSoundAndWithinTheGuarantee) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131);
  long long default_iterations = 0;
  long long snapped_iterations = 0;
  for (int trial = 0; trial < 8; ++trial) {
    GeneratorOptions options;
    options.tasks = 18;
    options.machines = 10;
    const auto instance =
        generate_instance(WorkloadFamily::kUniform, options, rng.fork_seed());

    MrtOptions plain;
    MrtOptions snapped;
    snapped.snap_to_breakpoints = true;
    const auto a = mrt_schedule(instance, plain);
    const auto b = mrt_schedule(instance, snapped);
    default_iterations += a.iterations;
    snapped_iterations += b.iterations;

    const auto report = validate_schedule(b.schedule, instance);
    ASSERT_TRUE(report.ok) << report.str();
    EXPECT_GE(b.lower_bound, makespan_lower_bound(instance) - 1e-12);
    EXPECT_TRUE(leq(b.makespan, kSqrt3 * (1.0 + plain.search.epsilon) * b.lower_bound * 1.02))
        << "ratio " << b.ratio;
    EXPECT_EQ(b.gaps, 0);
    // Both searches bracket the same optimum within (1+eps) of each other.
    EXPECT_TRUE(leq(b.final_guess, a.final_guess * (1.0 + plain.search.epsilon) * 1.01));
  }
  // The analytic Property-2 prefilter skips the ramp's certified rejections;
  // across a batch the snapped search must not need more dual steps.
  EXPECT_LE(snapped_iterations, default_iterations + 4);
}

TEST_P(SnappedSearchTest, CertifiedBoundNeverContradictsBruteForce) {
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

    MrtOptions snapped;
    snapped.snap_to_breakpoints = true;
    const auto result = mrt_schedule(instance, snapped);
    // The certified bound claims OPT >= lower_bound; brute force exhibits a
    // schedule of length brute->makespan, so the claim must stay below it.
    EXPECT_TRUE(leq(result.lower_bound, brute->makespan))
        << "certified " << result.lower_bound << " vs OPT " << brute->makespan;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnappedSearchTest, ::testing::Values(1, 2, 3));

TEST(DualWorkspace, SnappedSolvesMatchRecordedFigures) {
  // snap=1 steers its guesses by merged_breakpoints(), which the workspace
  // builds from the profiles on first use. These figures were recorded when
  // the domain came from an index built up front; any drift in the domain
  // moves the guess sequence and shows here.
  struct Pinned {
    int iterations;
    double final_guess;
    double makespan;
    double lower_bound;
    std::size_t domain;
  };
  const auto check = [](const Instance& instance, const Pinned& pinned, const char* what) {
    MrtOptions snapped;
    snapped.snap_to_breakpoints = true;
    const auto result = mrt_schedule(instance, snapped);
    EXPECT_EQ(result.iterations, pinned.iterations) << what;
    EXPECT_EQ(result.final_guess, pinned.final_guess) << what;
    EXPECT_EQ(result.makespan, pinned.makespan) << what;
    EXPECT_EQ(result.lower_bound, pinned.lower_bound) << what;
    DualWorkspace workspace(instance);
    EXPECT_EQ(workspace.merged_breakpoints().size(), pinned.domain) << what;
  };

  // n*m = 10240 > 8192: the domain is strided, and every row is non-strict
  // (a sequential profile's thresholds are all equal).
  GeneratorOptions sequential;
  sequential.tasks = 160;
  sequential.machines = 64;
  check(generate_instance(WorkloadFamily::kSequentialOnly, sequential, 5),
        {1, 7.9673639115778139, 7.9673639115778139, 7.9673639115778139, 160}, "sequential-only");

  // n*m = 8640 > 8192: strictly decreasing rows, sampled every other entry.
  GeneratorOptions stairs;
  stairs.tasks = 120;
  stairs.machines = 72;
  check(generate_instance(WorkloadFamily::kStairs, stairs, 3),
        {4, 0.86481516009396886, 0.91912258593177676, 0.85959619099409501, 4320}, "stairs");

  // The plateau instance of HandlesPlateauProfilesAtToleranceBoundaries.
  std::vector<MalleableTask> tasks;
  tasks.emplace_back(std::vector<double>{4.0, 4.0, 4.0, 4.0}, "flat");
  tasks.emplace_back(std::vector<double>{8.0, 4.0, 4.0, 4.0}, "plateau");
  tasks.emplace_back(std::vector<double>{1.0 + 1e-10, 1.0, 1.0 - 1e-13, 0.75}, "near-ties");
  check(Instance(4, std::move(tasks)), {1, 4.0, 4.0, 4.0, 6}, "plateau");
}

// ------------------------------------------------------------ registry keys

TEST(DualWorkspace, RegistryExposesWorkspaceCounters) {
  GeneratorOptions options;
  options.tasks = 16;
  options.machines = 8;
  const auto instance =
      InstanceHandle::intern(generate_instance(WorkloadFamily::kBimodal, options, 3));
  const auto& registry = SolverRegistry::global();
  const auto fast = registry.solve(SolveRequest("mrt", {}, instance));
  EXPECT_GE(fast.stat("workspace.canonical_evals", -1.0), 1.0);
  EXPECT_GE(fast.stat("workspace.allocations", -1.0), 0.0);
  const auto legacy =
      registry.solve(SolveRequest("mrt", SolverOptions::from_string("workspace=0"), instance));
  EXPECT_EQ(legacy.stat("workspace.canonical_evals", -1.0), -1.0);
  EXPECT_EQ(fast.makespan, legacy.makespan);
  EXPECT_EQ(fast.lower_bound, legacy.lower_bound);
}

}  // namespace
}  // namespace malsched
