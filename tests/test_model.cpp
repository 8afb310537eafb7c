// Tests for src/model: the malleable task abstraction, monotonicity
// enforcement, speedup models, instances, serialization and lower bounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "model/instance.hpp"
#include "model/instance_handle.hpp"
#include "model/instance_io.hpp"
#include "model/lower_bounds.hpp"
#include "model/malleable_task.hpp"
#include "model/monotonize.hpp"
#include "model/speedup_models.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"

namespace malsched {
namespace {

/// A one-task instance on as many machines as `times` has entries (at least
/// one): the per-task tests read its task(0) view.
Instance one_task(const std::vector<double>& times, std::string_view name = {}) {
  Instance instance(std::max(1, static_cast<int>(times.size())));
  instance.add_task(times, name);
  return instance;
}

std::vector<double> stored_profile(const MalleableTask& task) {
  return {task.profile().begin(), task.profile().end()};
}

// -------------------------------------------------------------- validation

TEST(MalleableTask, AcceptsMonotonicProfile) {
  EXPECT_NO_THROW(one_task({4.0, 2.5, 2.0, 1.8}));
}

TEST(MalleableTask, RejectsEmptyProfile) {
  EXPECT_THROW(one_task({}), std::invalid_argument);
}

TEST(MalleableTask, RejectsNonPositiveTimes) {
  EXPECT_THROW(one_task({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(one_task({-1.0}), std::invalid_argument);
}

TEST(MalleableTask, RejectsIncreasingTime) {
  // t(2) > t(1): more processors may never slow the task down.
  EXPECT_THROW(one_task({1.0, 1.5}), std::invalid_argument);
}

TEST(MalleableTask, RejectsSuperLinearSpeedup) {
  // t = {4, 1}: work drops from 4 to 2 -- super-linear speedup.
  EXPECT_THROW(one_task({4.0, 1.0}), std::invalid_argument);
}

TEST(MalleableTask, ValidateReportsProblemLocation) {
  const auto problem = MalleableTask::validate(std::vector<double>{4.0, 1.0});
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("p=2"), std::string::npos);
}

TEST(MalleableTask, AccessorsAndBounds) {
  const Instance instance = one_task({6.0, 3.5, 3.0}, "t");
  const MalleableTask task = instance.task(0);
  EXPECT_EQ(task.max_procs(), 3);
  EXPECT_DOUBLE_EQ(task.seq_time(), 6.0);
  EXPECT_DOUBLE_EQ(task.time(2), 3.5);
  EXPECT_DOUBLE_EQ(task.work(2), 7.0);
  EXPECT_NEAR(task.speedup(3), 2.0, 1e-12);
  EXPECT_EQ(task.name(), "t");
  EXPECT_THROW(static_cast<void>(task.time(0)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(task.time(4)), std::out_of_range);
}

TEST(MalleableTask, MinProcsForMatchesLinearScan) {
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 40));
    std::vector<double> profile(static_cast<std::size_t>(m));
    double t = rng.uniform(5.0, 10.0);
    for (int p = 0; p < m; ++p) {
      profile[static_cast<std::size_t>(p)] = t;
      // keep work monotone: t(p+1) >= t(p)*p/(p+1)
      const double lo = t * static_cast<double>(p + 1) / static_cast<double>(p + 2);
      t = rng.uniform(lo, t);
    }
    const Instance instance = one_task(profile);
    const MalleableTask task = instance.task(0);
    const double deadline = rng.uniform(0.5, 12.0);
    const auto fast = task.min_procs_for(deadline);
    // Linear reference.
    std::optional<int> slow;
    for (int p = 1; p <= m; ++p) {
      if (leq(task.time(p), deadline)) {
        slow = p;
        break;
      }
    }
    EXPECT_EQ(fast, slow) << "deadline " << deadline;
  }
}

TEST(MalleableTask, MinProcsForUnreachableDeadline) {
  const Instance instance = one_task({4.0, 2.5});
  const MalleableTask task = instance.task(0);
  EXPECT_FALSE(task.min_procs_for(1.0).has_value());
  EXPECT_EQ(task.min_procs_for(2.5).value(), 2);
  EXPECT_EQ(task.min_procs_for(100.0).value(), 1);
}

TEST(MalleableTask, StoresTheRunningMinimumOfItsProfile) {
  // Each step rises by 0.9e-9 relative, inside the 1e-9 validation slack:
  // the profile is accepted and stored as its running minimum, so the
  // stored t is exactly non-increasing and gamma reads t(1).
  std::vector<double> creeping(64);
  for (std::size_t p = 0; p < creeping.size(); ++p) {
    creeping[p] = 1.0 + static_cast<double>(p) * 0.9e-9;
  }
  ASSERT_FALSE(MalleableTask::validate(creeping).has_value());
  const Instance creeping_instance = one_task(creeping);
  const MalleableTask task = creeping_instance.task(0);
  EXPECT_EQ(stored_profile(task), std::vector<double>(64, 1.0));
  EXPECT_EQ(task.min_procs_for(1.0), 1);

  // A dip below earlier times is kept; only the rises are floored.
  const Instance dipping = one_task({2.0, 1.0, 1.0 + 0.9e-9, 0.75, 0.75 * (1.0 + 0.9e-9)});
  EXPECT_EQ(stored_profile(dipping.task(0)), (std::vector<double>{2.0, 1.0, 1.0, 0.75, 0.75}));
  EXPECT_EQ(dipping.task(0).min_procs_for(1.0), 2);

  // A non-increasing profile is stored as given.
  const std::vector<double> profile{4.0, 2.5, 2.5, 2.0, 1.8};
  EXPECT_EQ(stored_profile(one_task(profile).task(0)), profile);
}

// -------------------------------------------------------------- monotonize

TEST(Monotonize, OutputAlwaysValid) {
  Rng rng(202);
  for (int trial = 0; trial < 300; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 32));
    std::vector<double> raw(static_cast<std::size_t>(m));
    for (auto& t : raw) t = rng.uniform(0.1, 10.0);
    const auto repaired = monotonize(raw);
    EXPECT_TRUE(is_monotonic_profile(repaired));
  }
}

TEST(Monotonize, FixedPointOnValidProfiles) {
  const std::vector<double> valid{8.0, 4.5, 3.2, 3.2};
  EXPECT_EQ(monotonize(valid), valid);
}

TEST(Monotonize, Idempotent) {
  Rng rng(203);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> raw(16);
    for (auto& t : raw) t = rng.uniform(0.1, 10.0);
    const auto once = monotonize(raw);
    EXPECT_EQ(monotonize(once), once);
  }
}

TEST(Monotonize, RepairsKnownShape) {
  // Super-linear dip at p=2 gets raised to keep work constant.
  const auto repaired = monotonize({4.0, 1.0});
  EXPECT_DOUBLE_EQ(repaired[0], 4.0);
  EXPECT_DOUBLE_EQ(repaired[1], 2.0);  // work 4 preserved
}

TEST(Monotonize, RejectsBadInput) {
  EXPECT_THROW(monotonize({}), std::invalid_argument);
  EXPECT_THROW(monotonize({1.0, -2.0}), std::invalid_argument);
}

// ---------------------------------------------------------- speedup models

struct ModelCase {
  SpeedupModel model;
  double shape;
};

class SpeedupModelTest : public ::testing::TestWithParam<ModelCase> {};

// ctest lists each case under its name plus its printed GetParam(); gtest's
// default printer dumps the struct's bytes, padding included, which vary by
// build. Both come from the model and the shape instead ("amdahl_0p2").
void PrintTo(const ModelCase& c, std::ostream* os) {
  *os << to_string(c.model) << ' ' << c.shape;
}

std::string model_case_name(const ::testing::TestParamInfo<ModelCase>& info) {
  std::ostringstream name;
  name << to_string(info.param.model) << '_' << info.param.shape;
  std::string out = name.str();
  std::replace(out.begin(), out.end(), '-', '_');
  std::replace(out.begin(), out.end(), '.', 'p');
  return out;
}

TEST_P(SpeedupModelTest, ProducesValidMonotonicProfiles) {
  const auto [model, shape] = GetParam();
  for (const int m : {1, 2, 7, 32, 100}) {
    for (const double seq : {0.5, 3.0, 40.0}) {
      const auto profile = make_profile(model, seq, shape, m);
      ASSERT_EQ(static_cast<int>(profile.size()), m);
      EXPECT_TRUE(is_monotonic_profile(profile)) << to_string(model) << " m=" << m;
      EXPECT_NEAR(profile.front(), seq, seq * 1e-9) << "t(1) must be the sequential time";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, SpeedupModelTest,
    ::testing::Values(ModelCase{SpeedupModel::kAmdahl, 0.0}, ModelCase{SpeedupModel::kAmdahl, 0.2},
                      ModelCase{SpeedupModel::kAmdahl, 1.0},
                      ModelCase{SpeedupModel::kPowerLaw, 0.0},
                      ModelCase{SpeedupModel::kPowerLaw, 0.5},
                      ModelCase{SpeedupModel::kPowerLaw, 1.0},
                      ModelCase{SpeedupModel::kCommOverhead, 0.0},
                      ModelCase{SpeedupModel::kCommOverhead, 0.05},
                      ModelCase{SpeedupModel::kCommOverhead, 1.0},
                      ModelCase{SpeedupModel::kStaircase, 0.0},
                      ModelCase{SpeedupModel::kLinear, 0.0},
                      ModelCase{SpeedupModel::kSequential, 0.0}),
    model_case_name);

TEST(SpeedupModels, AmdahlFormula) {
  const auto profile = amdahl_profile(10.0, 0.5, 4);
  EXPECT_NEAR(profile[3], 10.0 * (0.5 + 0.5 / 4.0), 1e-12);
}

TEST(SpeedupModels, LinearIsPerfect) {
  const auto profile = linear_profile(8.0, 8);
  EXPECT_DOUBLE_EQ(profile[7], 1.0);
}

TEST(SpeedupModels, SequentialIsFlat) {
  const auto profile = sequential_profile(3.0, 5);
  for (const double t : profile) EXPECT_DOUBLE_EQ(t, 3.0);
}

TEST(SpeedupModels, StaircasePlateausBetweenPowersOfTwo) {
  const auto profile = staircase_profile(8.0, 8);
  EXPECT_DOUBLE_EQ(profile[2], profile[1]);  // p=3 same as p=2
  EXPECT_LT(profile[3], profile[2]);         // p=4 improves
}

TEST(SpeedupModels, CommOverheadMonotonizedPastTurningPoint) {
  // With a large overhead the raw formula would increase; the profile
  // must stay non-increasing anyway.
  const auto profile = comm_overhead_profile(2.0, 0.5, 16);
  for (std::size_t p = 1; p < profile.size(); ++p) {
    EXPECT_LE(profile[p], profile[p - 1] * (1 + 1e-12));
  }
}

TEST(SpeedupModels, RejectsBadParameters) {
  EXPECT_THROW(amdahl_profile(1.0, -0.1, 4), std::invalid_argument);
  EXPECT_THROW(amdahl_profile(1.0, 1.1, 4), std::invalid_argument);
  EXPECT_THROW(power_law_profile(1.0, 2.0, 4), std::invalid_argument);
  EXPECT_THROW(comm_overhead_profile(1.0, -1.0, 4), std::invalid_argument);
  EXPECT_THROW(linear_profile(0.0, 4), std::invalid_argument);
  EXPECT_THROW(linear_profile(1.0, 0), std::invalid_argument);
}

TEST(SpeedupModels, Names) {
  EXPECT_EQ(to_string(SpeedupModel::kAmdahl), "amdahl");
  EXPECT_EQ(to_string(SpeedupModel::kStaircase), "staircase");
}

// ---------------------------------------------------------------- instance

TEST(Instance, ValidatesProfileCoverage) {
  Instance instance(3);
  instance.add_task(std::vector<double>{3.0, 2.0, 1.5}, "kept");
  EXPECT_THROW(instance.add_task(std::vector<double>{2.0, 1.5}), std::invalid_argument);
  EXPECT_THROW(instance.add_task(std::vector<double>{1.0, 1.5, 1.5}), std::invalid_argument);
  // A rejected task leaves no trace in the arrays.
  EXPECT_EQ(instance.size(), 1);
  EXPECT_EQ(instance.times().size(), 3u);
  EXPECT_EQ(instance.task(0).name(), "kept");
}

TEST(Instance, RejectsBadMachineCount) {
  EXPECT_THROW(Instance(0), std::invalid_argument);
}

TEST(Instance, TaskOutsideTheInstanceThrows) {
  Instance instance(2);
  instance.add_task(std::vector<double>{2.0, 1.5});
  EXPECT_NO_THROW(static_cast<void>(instance.task(0)));
  EXPECT_THROW(static_cast<void>(instance.task(1)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(instance.task(-1)), std::out_of_range);
}

TEST(Instance, EveryProfileLiesInOneContiguousArray) {
  // Profiles of different lengths (a profile may cover more than m), back
  // to back in times(), each view pointing at its own slice.
  Instance instance(2);
  instance.add_task(std::vector<double>{4.0, 3.0}, "a");
  instance.add_task(std::vector<double>{6.0, 3.5, 3.0, 2.5}, "bb");
  instance.add_task(std::vector<double>{2.0, 1.5, 1.2});
  ASSERT_EQ(instance.offsets().size(), 4u);
  EXPECT_EQ(instance.offsets().back(), instance.times().size());
  EXPECT_EQ(instance.times().size(), 9u);
  for (int i = 0; i < instance.size(); ++i) {
    const MalleableTask task = instance.task(i);
    const auto slot = static_cast<std::size_t>(i);
    EXPECT_EQ(task.profile().data(), instance.times().data() + instance.offsets()[slot]);
    EXPECT_EQ(task.profile().size(), instance.offsets()[slot + 1] - instance.offsets()[slot]);
    EXPECT_EQ(task.seq_time(), instance.seq_times()[slot]);
    EXPECT_EQ(task.seq_time(), task.time(1));
  }
  EXPECT_EQ(instance.task(1).name(), "bb");
  EXPECT_EQ(instance.task(2).name(), "");
}

TEST(Instance, CopyOwnsIndependentStorage) {
  auto original = std::make_unique<Instance>(3);
  original->add_task(std::vector<double>{4.0, 2.5, 2.0}, "a");
  original->add_task(std::vector<double>{3.0, 1.6, 1.2}, "b");
  const Instance copy = *original;
  EXPECT_TRUE(copy == *original);
  EXPECT_NE(copy.times().data(), original->times().data());
  EXPECT_NE(copy.task(0).name().data(), original->task(0).name().data());
  // Growing and then freeing the original leaves the copy intact (a copy
  // sharing any array would read freed memory here under ASan).
  original->add_task(std::vector<double>{1.0, 0.6, 0.5}, "c");
  original.reset();
  ASSERT_EQ(copy.size(), 2);
  EXPECT_EQ(copy.task(1).name(), "b");
  EXPECT_EQ(copy.task(1).time(3), 1.2);
  EXPECT_EQ(copy.seq_times()[0], 4.0);
}

TEST(Instance, ContentEqualityKeepsTaskBoundaries) {
  // The same concatenated profiles or names, split at different task
  // boundaries, are different content; the offset arrays tell them apart.
  const auto split = [](std::vector<double> first, std::vector<double> second,
                        std::string_view first_name, std::string_view second_name) {
    Instance instance(1);
    instance.add_task(first, first_name);
    instance.add_task(second, second_name);
    return instance;
  };
  EXPECT_FALSE(split({4.0, 3.0}, {2.0}, "", "") == split({4.0}, {3.0, 2.0}, "", ""));
  EXPECT_FALSE(split({4.0}, {2.0}, "ab", "c") == split({4.0}, {2.0}, "a", "bc"));
  EXPECT_TRUE(split({4.0}, {2.0}, "ab", "c") == split({4.0}, {2.0}, "ab", "c"));
  EXPECT_FALSE(split({4.0}, {2.0}, "a", "b") == split({4.0}, {2.5}, "a", "b"));
  // Same tasks on another machine count.
  Instance wider(1);
  wider.add_task(std::vector<double>{4.0, 3.0});
  Instance narrower(2);
  narrower.add_task(std::vector<double>{4.0, 3.0});
  EXPECT_FALSE(wider == narrower);
}

TEST(Instance, TotalSequentialWork) {
  Instance instance(4);
  instance.add_task(sequential_profile(2.0, 4));
  instance.add_task(sequential_profile(3.0, 4));
  EXPECT_DOUBLE_EQ(instance.total_sequential_work(), 5.0);
  EXPECT_EQ(instance.size(), 2);
  EXPECT_EQ(instance.machines(), 4);
}

// -------------------------------------------------------------- instance io

TEST(InstanceIo, RoundTripsExactly) {
  Instance original(6);
  original.add_task(amdahl_profile(3.14159, 0.123, 6), "alpha");
  original.add_task(power_law_profile(2.71828, 0.77, 6));

  const auto text = instance_to_string(original);
  const Instance copy = instance_from_string(text);

  ASSERT_EQ(copy.size(), original.size());
  ASSERT_EQ(copy.machines(), original.machines());
  for (int i = 0; i < original.size(); ++i) {
    EXPECT_EQ(copy.task(i).name(), original.task(i).name());
    for (int p = 1; p <= original.machines(); ++p) {
      EXPECT_DOUBLE_EQ(copy.task(i).time(p), original.task(i).time(p));
    }
  }
}

TEST(InstanceIo, RejectsMissingHeader) {
  std::istringstream in("not-a-header v1\nm 4\n");
  EXPECT_THROW(read_instance(in), std::runtime_error);
}

TEST(InstanceIo, RejectsShortTaskLine) {
  // The second input claims 2e9 machines in 40 bytes: the reader must fail
  // on the missing values, not allocate m times per task (16 GB) first.
  for (const char* text : {"malsched-instance v1\nm 3\ntask a 1.0 0.9\n",
                           "malsched-instance v1\nm 2000000000\ntask a 1\n"}) {
    std::istringstream in(text);
    EXPECT_THROW(read_instance(in), std::runtime_error) << text;
  }
}

TEST(InstanceIo, RejectsExtraValuesOnATaskLine) {
  // Values are read as tokens, m per task: a surplus value must surface as
  // an error, not shift into the next task's record.
  std::istringstream in("malsched-instance v1\nm 2\ntask a 1.0 0.6 0.5\ntask b 1.0 0.6\n");
  EXPECT_THROW(read_instance(in), std::runtime_error);
}

TEST(InstanceIo, WideProfileRoundTripsExactly) {
  // An honest machine count in the thousands: every one of the m values per
  // task is read back, in order, as the reader grows each profile.
  constexpr int kMachines = 4096;
  Instance original(kMachines);
  original.add_task(amdahl_profile(9.5, 0.01, kMachines), "wide");
  original.add_task(power_law_profile(4.0, 0.9, kMachines));

  const Instance copy = instance_from_string(instance_to_string(original));

  ASSERT_EQ(copy.machines(), kMachines);
  ASSERT_EQ(copy.size(), original.size());
  for (int i = 0; i < original.size(); ++i) {
    EXPECT_EQ(copy.task(i).name(), original.task(i).name());
    for (int p = 1; p <= kMachines; ++p) {
      ASSERT_DOUBLE_EQ(copy.task(i).time(p), original.task(i).time(p))
          << "task " << i << ", p " << p;
    }
  }
}

TEST(InstanceIo, WriteRefusesContentThatWouldNotReadBack) {
  // A name with whitespace splits into two tokens, a name "-" reads back
  // unnamed, and a profile longer than m is cut to m: each would read back
  // as other content, or not at all, so nothing is written.
  const auto refused = [](const Instance& instance) {
    std::ostringstream out;
    EXPECT_THROW(write_instance(out, instance), std::invalid_argument);
    EXPECT_TRUE(out.str().empty()) << "wrote before refusing: " << out.str();
  };
  for (const char* name : {"a b", "tab\there", "line\nbreak", "-"}) {
    Instance instance(2);
    instance.add_task(std::vector<double>{2.0, 1.5}, "fine");
    instance.add_task(std::vector<double>{2.0, 1.5}, name);
    refused(instance);
  }
  Instance longer(2);
  longer.add_task(std::vector<double>{4.0, 3.0, 2.5});
  refused(longer);

  // Dashes inside a name and empty names are fine.
  Instance fine(2);
  fine.add_task(std::vector<double>{2.0, 1.5}, "a-b");
  fine.add_task(std::vector<double>{2.0, 1.5});
  EXPECT_TRUE(instance_from_string(instance_to_string(fine)) == fine);
}

TEST(InstanceIo, RejectsNonMonotoneProfile) {
  std::istringstream in("malsched-instance v1\nm 2\ntask a 1.0 2.0\n");
  EXPECT_THROW(read_instance(in), std::runtime_error);
}

// ------------------------------------------------------------- lower bounds

TEST(LowerBounds, AreaAndCriticalPath) {
  Instance instance(2);
  instance.add_task(sequential_profile(6.0, 2));           // crit 6, work 6
  instance.add_task(std::vector<double>{4.0, 2.0});        // crit 2, work 4
  EXPECT_DOUBLE_EQ(area_lower_bound(instance), 5.0);
  EXPECT_DOUBLE_EQ(critical_path_lower_bound(instance), 6.0);
  EXPECT_DOUBLE_EQ(makespan_lower_bound(instance), 6.0);
}

TEST(LowerBounds, AreaDominatesWhenLoadIsHigh) {
  Instance instance(2);
  for (int i = 0; i < 10; ++i) instance.add_task(sequential_profile(1.0, 2));
  EXPECT_DOUBLE_EQ(makespan_lower_bound(instance), 5.0);
}

// ---------------------------------------------------------- InstanceHandle

namespace {

Instance handle_instance(double scale = 1.0) {
  Instance instance(3);
  instance.add_task(std::vector<double>{4.0 * scale, 2.5 * scale, 2.0 * scale}, "a");
  instance.add_task(std::vector<double>{3.0 * scale, 1.6 * scale, 1.2 * scale}, "b");
  return instance;
}

}  // namespace

TEST(InstanceHandle, InternComputesFingerprintAndBoundExactlyOnce) {
  const auto before = InstanceHandle::content_hashes();
  const auto handle = InstanceHandle::intern(handle_instance());
  EXPECT_EQ(InstanceHandle::content_hashes(), before + 1);

  EXPECT_TRUE(handle.valid());
  EXPECT_NE(handle.fingerprint(), 0u);
  EXPECT_DOUBLE_EQ(handle.static_lower_bound(), makespan_lower_bound(handle.instance()));

  // Reading identity off the handle never re-hashes; copies share it.
  const InstanceHandle copy = handle;
  EXPECT_EQ(copy.fingerprint(), handle.fingerprint());
  EXPECT_EQ(&copy.instance(), &handle.instance());
  EXPECT_EQ(InstanceHandle::content_hashes(), before + 1);
}

TEST(InstanceHandle, ContentIdentitySurvivesSeparateInterns) {
  const auto hits_before = InstanceHandle::intern_table_hits();
  const auto a = InstanceHandle::intern(handle_instance());
  const auto b = InstanceHandle::intern(handle_instance());       // same content
  const auto c = InstanceHandle::intern(handle_instance(2.0));    // different
  // v2.1 process-wide intern table: the second intern of live equal content
  // shares the first allocation instead of making its own.
  EXPECT_EQ(&a.instance(), &b.instance());
  EXPECT_GE(InstanceHandle::intern_table_hits(), hits_before + 1);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_TRUE(a == b);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  EXPECT_FALSE(a == c);
}

TEST(InstanceHandle, InternTableHoldsWeakReferencesOnly) {
  // Entries die with their last handle: a re-intern after the handles are
  // gone is a MISS (fresh allocation).
  Instance probe = handle_instance(3.5);
  const void* first_allocation = nullptr;
  {
    const auto a = InstanceHandle::intern(probe);
    first_allocation = &a.instance();
    EXPECT_GE(InstanceHandle::intern_table_size(), 1u);
  }
  const auto hits_before = InstanceHandle::intern_table_hits();
  const auto b = InstanceHandle::intern(probe);
  EXPECT_EQ(InstanceHandle::intern_table_hits(), hits_before)
      << "a dead entry must not count as a hit";
  EXPECT_TRUE(b.valid());
  static_cast<void>(first_allocation);  // dead; only proves the scope ended
}

TEST(InstanceHandle, InternTableStaysWithinTwiceItsLiveEntries) {
  // Distinct content interned and dropped at once leaves a dead entry under
  // a fingerprint no probe revisits. The table sweeps every dead entry once
  // it holds twice what its last sweep left (with a small floor), so with
  // kLive handles held it never holds much more than 2 * kLive entries,
  // however many distinct contents went through it.
  constexpr std::size_t kLive = 100;
  constexpr std::size_t kChurn = 10000;
  const auto content = [](std::size_t k) {
    Instance instance(1);
    instance.add_task(std::vector<double>{1.0 + static_cast<double>(k)}, "churn");
    return instance;
  };
  const std::size_t held_before = InstanceHandle::intern_table_size();
  std::vector<InstanceHandle> live;
  for (std::size_t k = 0; k < kLive; ++k) live.push_back(InstanceHandle::intern(content(k)));
  std::size_t most = 0;
  for (std::size_t k = kLive; k < kLive + kChurn; ++k) {
    static_cast<void>(InstanceHandle::intern(content(k)));
    most = std::max(most, InstanceHandle::intern_table_size());
  }
  EXPECT_LT(most, 2 * (kLive + held_before + 1) + 64) << "dead entries piled up";
  EXPECT_GE(InstanceHandle::intern_table_size(), kLive);
  // No sweep dropped a live entry: each held content is still found.
  const auto hits_before = InstanceHandle::intern_table_hits();
  for (std::size_t k = 0; k < kLive; ++k) {
    EXPECT_EQ(&InstanceHandle::intern(content(k)).instance(), &live[k].instance());
  }
  EXPECT_EQ(InstanceHandle::intern_table_hits(), hits_before + kLive);
}

TEST(InstanceHandle, InternOfASharedInstanceKeepsItsAllocation) {
  // Content nobody else has interned is adopted, not copied: the handle
  // co-owns the caller's allocation, and the weak intern table adds no
  // owner of its own.
  const auto shared = std::make_shared<const Instance>(handle_instance(4.25));
  const auto handle = InstanceHandle::intern(shared);
  EXPECT_EQ(&handle.instance(), shared.get());
  EXPECT_EQ(shared.use_count(), 2);
  EXPECT_DOUBLE_EQ(handle.static_lower_bound(), makespan_lower_bound(*shared));
}

TEST(InstanceHandle, TaskNamesContributeToTheFingerprint) {
  // Bit-pattern hashing: renaming a task changes the fingerprint even when
  // every number is identical.
  Instance renamed(3);
  renamed.add_task(std::vector<double>{4.0, 2.5, 2.0}, "a2");
  renamed.add_task(std::vector<double>{3.0, 1.6, 1.2}, "b");
  const auto base = InstanceHandle::intern(handle_instance());
  const auto other = InstanceHandle::intern(std::move(renamed));
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  EXPECT_FALSE(base == other);

  // Word-stream boundaries: the same doubles split {4,3},{2} or {4},{3,2},
  // and the same bytes split "ab"+"c" or "a"+"bc", must not alias. The
  // length word before each profile and each name keeps them apart.
  const auto split = [](std::vector<double> first, std::vector<double> second,
                        std::string_view first_name, std::string_view second_name) {
    Instance instance(1);
    instance.add_task(first, first_name);
    instance.add_task(second, second_name);
    return InstanceHandle::intern(std::move(instance));
  };
  const auto profiles_43_2 = split({4.0, 3.0}, {2.0}, "", "");
  const auto profiles_4_32 = split({4.0}, {3.0, 2.0}, "", "");
  EXPECT_NE(profiles_43_2.fingerprint(), profiles_4_32.fingerprint());
  EXPECT_FALSE(profiles_43_2 == profiles_4_32);
  const auto names_ab_c = split({4.0}, {2.0}, "ab", "c");
  const auto names_a_bc = split({4.0}, {2.0}, "a", "bc");
  EXPECT_NE(names_ab_c.fingerprint(), names_a_bc.fingerprint());
  EXPECT_FALSE(names_ab_c == names_a_bc);
}

TEST(InstanceHandle, EmptyHandleAndNullInternAreRejected) {
  const InstanceHandle empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(static_cast<bool>(empty));
  EXPECT_EQ(empty.fingerprint(), 0u);
  EXPECT_THROW(static_cast<void>(empty.instance()), std::logic_error);
  EXPECT_THROW(static_cast<void>(InstanceHandle::intern(std::shared_ptr<const Instance>{})),
               std::invalid_argument);

  // Two empties are the same (no) content; an empty equals nothing real.
  EXPECT_TRUE(empty == InstanceHandle{});
  EXPECT_FALSE(empty == InstanceHandle::intern(handle_instance()));
}

}  // namespace
}  // namespace malsched
