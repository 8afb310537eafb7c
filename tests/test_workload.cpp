// Tests for src/workload: every generator family yields valid monotonic
// instances, the packed family certifies OPT <= 1, and the domain workloads
// (ocean, trace) are deterministic per seed.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/canonical.hpp"
#include "model/instance_handle.hpp"
#include "model/instance_io.hpp"
#include "model/lower_bounds.hpp"
#include "model/monotonize.hpp"
#include "support/math_utils.hpp"
#include "workload/generators.hpp"
#include "workload/ocean.hpp"
#include "workload/trace.hpp"

namespace malsched {
namespace {

class GeneratorFamilyTest
    : public ::testing::TestWithParam<std::tuple<WorkloadFamily, int, int, int>> {};

TEST_P(GeneratorFamilyTest, ProducesValidInstances) {
  const auto [family, tasks, machines, seed] = GetParam();
  GeneratorOptions options;
  options.tasks = tasks;
  options.machines = machines;
  const auto instance = generate_instance(family, options, static_cast<std::uint64_t>(seed));
  EXPECT_EQ(instance.machines(), machines);
  EXPECT_GT(instance.size(), 0);
  if (family != WorkloadFamily::kPackedOpt1) {
    EXPECT_EQ(instance.size(), tasks);
  }
  for (int i = 0; i < instance.size(); ++i) {
    const MalleableTask task = instance.task(i);
    EXPECT_TRUE(is_monotonic_profile(task.profile()));
    EXPECT_FALSE(task.name().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneratorFamilyTest,
    ::testing::Combine(::testing::Values(WorkloadFamily::kUniform, WorkloadFamily::kBimodal,
                                         WorkloadFamily::kHeavyTail, WorkloadFamily::kStairs,
                                         WorkloadFamily::kPackedOpt1,
                                         WorkloadFamily::kSequentialOnly),
                       ::testing::Values(5, 40), ::testing::Values(4, 32),
                       ::testing::Values(1, 2)));

TEST(Generators, DeterministicPerSeed) {
  GeneratorOptions options;
  for (const auto family : all_workload_families()) {
    const auto a = generate_instance(family, options, 123);
    const auto b = generate_instance(family, options, 123);
    const auto c = generate_instance(family, options, 124);
    EXPECT_EQ(instance_to_string(a), instance_to_string(b)) << to_string(family);
    EXPECT_NE(instance_to_string(a), instance_to_string(c)) << to_string(family);
  }
}

TEST(Generators, EveryFamilyRoundTripsThroughTextToEqualContent) {
  // Written and read back, each generator's instance is the same content: the
  // same fingerprint, a deep compare that holds, and an equal handle.
  GeneratorOptions options;
  options.tasks = 24;
  options.machines = 12;
  std::vector<std::pair<std::string, Instance>> instances;
  for (const auto family : all_workload_families()) {
    instances.emplace_back(to_string(family), generate_instance(family, options, 61));
  }
  instances.emplace_back("ocean", ocean_instance(OceanOptions{}, 61));
  instances.emplace_back("trace", trace_snapshot(TraceOptions{}, 61));
  for (const auto& [family, instance] : instances) {
    const auto original = InstanceHandle::intern(instance);
    const Instance read_back = instance_from_string(instance_to_string(instance));
    EXPECT_TRUE(read_back == instance) << family;
    const auto round_trip = InstanceHandle::intern(read_back);
    EXPECT_EQ(round_trip.fingerprint(), original.fingerprint()) << family;
    EXPECT_TRUE(round_trip == original) << family;
  }
}

TEST(Generators, FamilyNamesDistinct) {
  const auto families = all_workload_families();
  for (std::size_t a = 0; a < families.size(); ++a) {
    for (std::size_t b = a + 1; b < families.size(); ++b) {
      EXPECT_NE(to_string(families[a]), to_string(families[b]));
    }
  }
}

TEST(PackedInstance, CertifiesOptAtMostOne) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    for (const int machines : {2, 5, 16, 33}) {
      const auto instance = packed_instance(machines, seed);
      // Lower bounds cannot exceed the built-in schedule of length 1.
      EXPECT_TRUE(leq(makespan_lower_bound(instance), 1.0)) << "m=" << machines;
      // Property 2 at deadline 1 must pass (necessary for OPT <= 1).
      const auto allotment = canonical_allotment(instance, 1.0);
      ASSERT_TRUE(allotment.feasible);
      EXPECT_TRUE(leq(allotment.total_work, static_cast<double>(machines)));
    }
  }
}

TEST(PackedInstance, CoversTheWholeMachine) {
  // The guillotine cells partition the m x 1 rectangle exactly. Each cell's
  // native work is h * width, and the profile's work is non-decreasing in
  // p, so at full width w_i(m) >= h * width; summing over cells gives
  // sum_i w_i(m) >= m * 1. (The canonical work can be *smaller* than m --
  // beta < 1 lets cells shrink below their native width -- so the full-
  // width work is the right invariant to pin the coverage.)
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const int machines = 12;
    const auto instance = packed_instance(machines, seed);
    double full_width_work = 0.0;
    for (int i = 0; i < instance.size(); ++i) full_width_work += instance.task(i).work(machines);
    EXPECT_TRUE(geq(full_width_work, static_cast<double>(machines)));
  }
}

TEST(PackedInstance, TargetTaskCountHonoredApproximately) {
  const auto instance = packed_instance(16, 3, 24);
  EXPECT_GE(instance.size(), 12);
  EXPECT_LE(instance.size(), 25);
  EXPECT_THROW(packed_instance(0, 1), std::invalid_argument);
}

// -------------------------------------------------------------------- ocean

TEST(Ocean, ValidAndStructured) {
  OceanOptions options;
  options.machines = 32;
  const auto instance = ocean_instance(options, 7);
  EXPECT_GE(instance.size(), options.base_grid * options.base_grid);
  for (int i = 0; i < instance.size(); ++i) {
    const MalleableTask task = instance.task(i);
    EXPECT_TRUE(is_monotonic_profile(task.profile()));
    EXPECT_EQ(task.name().rfind("blk-", 0), 0u) << task.name();
  }
}

TEST(Ocean, RefinementGrowsTaskCount) {
  OceanOptions none;
  none.machines = 16;
  none.refine_prob = 0.0;
  OceanOptions lots;
  lots.machines = 16;
  lots.refine_prob = 0.9;
  const auto flat = ocean_instance(none, 5);
  const auto refined = ocean_instance(lots, 5);
  EXPECT_EQ(flat.size(), none.base_grid * none.base_grid);
  EXPECT_GT(refined.size(), flat.size());
}

TEST(Ocean, DeterministicPerSeed) {
  OceanOptions options;
  EXPECT_EQ(instance_to_string(ocean_instance(options, 9)),
            instance_to_string(ocean_instance(options, 9)));
}

// -------------------------------------------------------------------- trace

TEST(Trace, ValidJobsWithPlateaus) {
  TraceOptions options;
  options.machines = 32;
  options.jobs = 40;
  const auto instance = trace_snapshot(options, 21);
  EXPECT_EQ(instance.size(), 40);
  for (int i = 0; i < instance.size(); ++i) {
    const MalleableTask task = instance.task(i);
    EXPECT_TRUE(is_monotonic_profile(task.profile()));
  }
}

TEST(Trace, ParallelismCapRespected) {
  TraceOptions options;
  options.machines = 32;
  options.jobs = 30;
  options.max_parallelism_cap = 4;
  const auto instance = trace_snapshot(options, 22);
  for (int i = 0; i < instance.size(); ++i) {
    const MalleableTask task = instance.task(i);
    // Beyond the cap the profile must be flat.
    EXPECT_NEAR(task.time(5), task.time(32), task.time(5) * 1e-9);
  }
}

TEST(Trace, DeterministicPerSeed) {
  TraceOptions options;
  EXPECT_EQ(instance_to_string(trace_snapshot(options, 4)),
            instance_to_string(trace_snapshot(options, 4)));
  EXPECT_NE(instance_to_string(trace_snapshot(options, 4)),
            instance_to_string(trace_snapshot(options, 5)));
}

}  // namespace
}  // namespace malsched
