// Tests for the two list algorithms of Section 3: the Malleable List
// Algorithm (Theorem 1) and the Canonical List Algorithm (Theorem 2 with the
// appendix's reallocation rule), and recorded digests of the contiguous list
// placements at the benchmark's scale.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/canonical.hpp"
#include "core/canonical_list.hpp"
#include "core/malleable_list.hpp"
#include "model/lower_bounds.hpp"
#include "model/speedup_models.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/validate.hpp"
#include "support/fnv.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace malsched {
namespace {

// ------------------------------------------------------- malleable list 3.1

TEST(MalleableList, GuaranteeFormula) {
  EXPECT_NEAR(malleable_list_guarantee(1), 1.0, 1e-12);
  EXPECT_NEAR(malleable_list_guarantee(3), 1.5, 1e-12);
  EXPECT_NEAR(malleable_list_guarantee(6), 2.0 - 2.0 / 7.0, 1e-12);
  // Below sqrt(3) up to m = 6, above from m = 7 (the paper's small-m regime).
  EXPECT_TRUE(leq(malleable_list_guarantee(6), kSqrt3));
  EXPECT_FALSE(leq(malleable_list_guarantee(7), kSqrt3));
}

TEST(MalleableList, RejectsWithCertificateOnly) {
  // Overloaded instance: rejection must fire (area certificate).
  Instance instance(2);
  for (int i = 0; i < 12; ++i) instance.add_task(sequential_profile(1.0, 2));
  EXPECT_FALSE(malleable_list_schedule(instance, 1.0).has_value());
  EXPECT_TRUE(malleable_list_schedule(instance, 6.0).has_value());
}

class MalleableListPackedTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MalleableListPackedTest, Theorem1BoundOnPackedInstances) {
  // Packed instances admit a schedule of length 1, so the algorithm at
  // deadline 1 must not reject and must deliver <= (2 - 2/(m+1)) * 1.
  const auto [machines, seed] = GetParam();
  const auto instance = packed_instance(machines, static_cast<std::uint64_t>(seed));
  const auto schedule = malleable_list_schedule(instance, 1.0);
  ASSERT_TRUE(schedule.has_value()) << "Property 2 cannot reject an OPT<=1 instance";
  const auto report = validate_schedule(*schedule, instance);
  ASSERT_TRUE(report.ok) << report.str();
  EXPECT_TRUE(leq(schedule->makespan(), malleable_list_guarantee(machines)))
      << "makespan " << schedule->makespan() << " m " << machines;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MalleableListPackedTest,
                         ::testing::Combine(::testing::Values(2, 3, 4, 6, 8, 12, 16),
                                            ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8)));

TEST(MalleableList, ParallelTasksAllStartAtZero) {
  // Theorem 1's structural property on OPT<=1 instances: every task alloted
  // >= 2 processors starts at time 0, and they fit side by side.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const int machines = 10;
    const auto instance = packed_instance(machines, seed);
    const auto schedule = malleable_list_schedule(instance, 1.0);
    ASSERT_TRUE(schedule.has_value());
    long long parallel_procs = 0;
    for (int i = 0; i < instance.size(); ++i) {
      const auto& assignment = schedule->of(i);
      if (assignment.procs() >= 2) {
        EXPECT_NEAR(assignment.start, 0.0, 1e-12) << "seed " << seed << " task " << i;
        parallel_procs += assignment.procs();
      }
    }
    EXPECT_LE(parallel_procs, machines);
  }
}

// ------------------------------------------------------- canonical list 3.2

TEST(CanonicalList, KstarValues) {
  // k/(k+1) < mu: at mu = sqrt(3)/2 ~ 0.866, k* = 6 (6/7 ~ .857, 7/8 = .875).
  EXPECT_EQ(kstar(kMu), 6);
  EXPECT_EQ(kstar(0.75), 2);   // 2/3 < .75, 3/4 = .75 not strictly below
  EXPECT_EQ(kstar(0.8), 3);    // 3/4 < .8, 4/5 = .8 not below
  EXPECT_EQ(kstar(0.95), 18);  // 18/19 ~ .947 < .95, 19/20 = .95 not below
  EXPECT_THROW(static_cast<void>(kstar(0.5)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(kstar(1.0)), std::invalid_argument);
}

TEST(CanonicalList, ReallocationWidth) {
  EXPECT_EQ(reallocation_width(kMu), 4);  // ceil((6+1)/2)
  EXPECT_EQ(reallocation_width(0.8), 2);  // ceil((3+1)/2)
}

TEST(CanonicalList, RejectsOnlyWithCertificate) {
  Instance instance(2);
  for (int i = 0; i < 12; ++i) instance.add_task(sequential_profile(1.0, 2));
  EXPECT_FALSE(canonical_list_schedule(instance, 1.0).schedule.has_value());
}

class CanonicalListPackedTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CanonicalListPackedTest, AlwaysFeasibleAndTheorem2BoundWhenApplicable) {
  const auto [machines, seed] = GetParam();
  const auto instance = packed_instance(machines, static_cast<std::uint64_t>(seed));
  const auto outcome = canonical_list_schedule(instance, 1.0);
  ASSERT_TRUE(outcome.schedule.has_value());
  const auto report = validate_schedule(*outcome.schedule, instance);
  ASSERT_TRUE(report.ok) << report.str();
  // Theorem 2: with the area hypothesis and m >= m_mu = 8, the bound is
  // 2*mu = sqrt(3).
  if (outcome.area_condition && machines >= 8) {
    EXPECT_TRUE(leq(outcome.schedule->makespan(), kSqrt3))
        << "W=" << outcome.canonical_area << " m=" << machines << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CanonicalListPackedTest,
                         ::testing::Combine(::testing::Values(8, 10, 12, 16, 24),
                                            ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)));

TEST(CanonicalList, OutcomeDiagnosticsConsistent) {
  const auto instance = packed_instance(12, 5);
  const auto outcome = canonical_list_schedule(instance, 1.0);
  ASSERT_TRUE(outcome.schedule.has_value());
  const auto allotment = canonical_allotment(instance, 1.0);
  EXPECT_NEAR(outcome.canonical_area, canonical_area(instance, allotment), 1e-12);
  EXPECT_EQ(outcome.area_condition,
            leq(outcome.canonical_area, kMu * 12.0));
}

TEST(CanonicalList, WithoutReallocationStillValid) {
  CanonicalListOptions options;
  options.use_reallocation = false;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto instance = packed_instance(12, seed);
    const auto outcome = canonical_list_schedule(instance, 1.0, options);
    ASSERT_TRUE(outcome.schedule.has_value());
    EXPECT_TRUE(validate_schedule(*outcome.schedule, instance).ok);
    EXPECT_FALSE(outcome.reallocated);
  }
}

TEST(CanonicalList, ReallocationFiresOnEngineeredInstance) {
  // m = 12: two canonical-width-4 tall tasks occupy processors 0..7 at time
  // 0, leaving 4 idle; the next task has canonical width 6, so it cannot
  // start at 0 -- the reallocation rule must squeeze it onto the 4 idle
  // processors (khat = 4 at mu = sqrt(3)/2) instead of stacking it on top.
  const auto width_profile = [](int width, double height, int machines) {
    // t(p) = height * width / p for p >= width (work constant), and strictly
    // above 1 for p < width so the canonical allotment is exactly `width`.
    std::vector<double> profile(static_cast<std::size_t>(machines));
    for (int p = 1; p <= machines; ++p) {
      profile[static_cast<std::size_t>(p) - 1] =
          height * static_cast<double>(width) / static_cast<double>(p);
    }
    return profile;
  };

  // Heights keep the total canonical work (4*.86 + 4*.85 + 6*.84 = 11.88)
  // below m = 12 so Property 2 does not reject, while the sort order places
  // the two width-4 tasks first and leaves exactly 4 idle processors --
  // fewer than the wide task's 6, triggering the reallocation.
  Instance instance(12);
  instance.add_task(width_profile(4, 0.86, 12), "tall1");
  instance.add_task(width_profile(4, 0.85, 12), "tall2");
  instance.add_task(width_profile(6, 0.84, 12), "wide");
  const auto outcome = canonical_list_schedule(instance, 1.0);
  ASSERT_TRUE(outcome.schedule.has_value());
  EXPECT_TRUE(outcome.reallocated);
  // The squeezed task still meets the sqrt(3) bound.
  EXPECT_TRUE(leq(outcome.schedule->makespan(), kSqrt3));
}

// ---------------------------------------------- placements at bench scale

/// FNV-1a (support/fnv.hpp) over every assignment of `schedule`, mixed into
/// `hash`.
void mix_schedule(std::uint64_t& hash, const Schedule& schedule) {
  for (const auto& assignment : schedule.assignments()) {
    fnv::mix_u64(hash, static_cast<std::uint64_t>(assignment.task));
    fnv::mix_bytes(hash, &assignment.start, sizeof assignment.start);
    fnv::mix_bytes(hash, &assignment.duration, sizeof assignment.duration);
    fnv::mix_u64(hash, static_cast<std::uint64_t>(assignment.first_proc));
    fnv::mix_u64(hash, static_cast<std::uint64_t>(assignment.num_procs));
  }
}

struct PlacementDigests {
  std::uint64_t canonical_list;  ///< canonical_list_schedule at both deadlines
  std::uint64_t paper_rule;      ///< list_schedule, under §3.2's placement rule
};

class PlacementScaleTest
    : public ::testing::TestWithParam<std::tuple<WorkloadFamily, int, int>> {};

TEST_P(PlacementScaleTest, SchedulesMatchRecordedDigests) {
  // Benchmark-sized instances (solve-large draws 1000-2000 tasks x 256
  // machines; 100 machines keeps m off a power of two). The canonical list
  // runs at 1.2 and 1.5 times the static lower bound, where every one of
  // these instances is accepted; list_schedule places the canonical
  // allotment at 1.2x in canonical-list priority order, then a seeded
  // allotment of 1-16 processors in a seeded order, so wide windows are
  // placed too. Recorded before processor availability moved into a min
  // tree; a placement change at scale fails here.
  static const std::map<WorkloadFamily, PlacementDigests> kRecorded{
      {WorkloadFamily::kSequentialOnly, {0xc61a3157736d6a21ull, 0x418451f7b42ce8ceull}},
      {WorkloadFamily::kUniform, {0x5dc040588608788dull, 0xec039c25659f2004ull}},
      {WorkloadFamily::kHeavyTail, {0xd7e1b16882cccdb9ull, 0xa35c4bca0b27b441ull}},
      {WorkloadFamily::kBimodal, {0x5998c5bcd5158548ull, 0x73225ccadf68bdd2ull}},
      {WorkloadFamily::kStairs, {0x1efe4250dc587186ull, 0x295619575ba39d1eull}},
  };
  const auto [family, tasks, machines] = GetParam();
  GeneratorOptions options;
  options.tasks = tasks;
  options.machines = machines;
  const auto instance = generate_instance(family, options, 1);
  const double lb = makespan_lower_bound(instance);

  PlacementDigests digests{fnv::kOffset, fnv::kOffset};
  for (const double factor : {1.2, 1.5}) {
    const auto outcome = canonical_list_schedule(instance, lb * factor);
    ASSERT_TRUE(outcome.schedule.has_value()) << to_string(family) << " x" << factor;
    mix_schedule(digests.canonical_list, *outcome.schedule);
  }

  const auto allotment = canonical_allotment(instance, lb * 1.2).procs;
  Rng rng(static_cast<std::uint64_t>(tasks) * 31 + static_cast<std::uint64_t>(machines));
  std::vector<int> seeded_allotment(allotment.size());
  for (auto& p : seeded_allotment) p = static_cast<int>(rng.uniform_int(1, 16));
  std::vector<int> seeded_order(allotment.size());
  const auto perm = rng.permutation(seeded_order.size());
  for (std::size_t i = 0; i < perm.size(); ++i) seeded_order[i] = static_cast<int>(perm[i]);
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> runs{
      {allotment, order_by_decreasing_alloted_time(instance, allotment)},
      {seeded_allotment, seeded_order}};
  for (const auto& [procs, order] : runs) {
    const auto paper = list_schedule(instance, procs, order);
    ASSERT_TRUE(validate_schedule(paper, instance).ok) << to_string(family);
    mix_schedule(digests.paper_rule, paper);
  }

  const auto& recorded = kRecorded.at(family);
  EXPECT_EQ(digests.canonical_list, recorded.canonical_list) << to_string(family);
  EXPECT_EQ(digests.paper_rule, recorded.paper_rule) << to_string(family);
}

INSTANTIATE_TEST_SUITE_P(
    BenchmarkScale, PlacementScaleTest,
    ::testing::Values(std::make_tuple(WorkloadFamily::kSequentialOnly, 1500, 256),
                      std::make_tuple(WorkloadFamily::kUniform, 1500, 256),
                      std::make_tuple(WorkloadFamily::kHeavyTail, 1500, 256),
                      std::make_tuple(WorkloadFamily::kBimodal, 512, 100),
                      std::make_tuple(WorkloadFamily::kStairs, 512, 100)));

}  // namespace
}  // namespace malsched
