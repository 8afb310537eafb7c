// Tests for src/sched: schedule representation, the validator (including
// negative cases), the window kernel and the availability tree, the
// contiguous list scheduler with the paper's tie rule, compaction, the
// processor chains against the bucket sweep and start-order compaction they
// replaced, the Gantt renderer and the brute-force oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "model/lower_bounds.hpp"
#include "model/speedup_models.hpp"
#include "oracles/exact_small.hpp"
#include "oracles/schedule_oracles.hpp"
#include "sched/compaction.hpp"
#include "sched/gantt.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/processor_chains.hpp"
#include "sched/schedule.hpp"
#include "sched/sliding.hpp"
#include "sched/validate.hpp"
#include "support/fnv.hpp"
#include "support/math_utils.hpp"
#include "support/radix_sort.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace malsched {
namespace {

Instance tiny_instance() {
  Instance tasks(3);
  tasks.add_task(std::vector<double>{4.0, 2.0, 1.5}, "a");
  tasks.add_task(std::vector<double>{3.0, 1.6, 1.2}, "b");
  tasks.add_task(sequential_profile(1.0, 3), "c");
  return tasks;
}

// ----------------------------------------------------------------- schedule

TEST(Schedule, AssignAndQuery) {
  Schedule schedule(4, 2);
  schedule.assign(0, 0.0, 2.0, 1, 2);
  EXPECT_TRUE(schedule.is_assigned(0));
  EXPECT_FALSE(schedule.is_assigned(1));
  EXPECT_FALSE(schedule.complete());
  schedule.assign(1, 2.0, 1.0, 0, 1);
  EXPECT_TRUE(schedule.complete());
  EXPECT_DOUBLE_EQ(schedule.makespan(), 3.0);
  EXPECT_EQ(schedule.of(0).first_proc, 1);
  EXPECT_EQ(schedule.of(0).procs(), 2);
}

TEST(Schedule, RejectsDoubleAssignment) {
  Schedule schedule(2, 1);
  schedule.assign(0, 0.0, 1.0, 0, 1);
  EXPECT_THROW(schedule.assign(0, 1.0, 1.0, 0, 1), std::logic_error);
}

TEST(Schedule, RejectsBadGeometry) {
  Schedule schedule(2, 1);
  EXPECT_THROW(schedule.assign(0, 0.0, 1.0, 1, 2), std::logic_error);   // spills over
  EXPECT_THROW(schedule.assign(0, 0.0, 1.0, std::numeric_limits<int>::max(), 1),
               std::logic_error);  // its end overflows int
  EXPECT_THROW(schedule.assign(0, -0.1, 1.0, 0, 1), std::logic_error);  // negative start
  EXPECT_THROW(schedule.assign(0, std::nan(""), 1.0, 0, 1), std::logic_error);  // NaN start
  EXPECT_THROW(schedule.assign(0, 0.0, 0.0, 0, 1), std::logic_error);   // zero duration
  EXPECT_THROW(schedule.assign(5, 0.0, 1.0, 0, 1), std::logic_error);   // bad task id
}

TEST(Schedule, AssignAcceptsExactlyTheIntervalsInsideTheMachine) {
  // assign is the only bounds check a placement meets (the validator trusts
  // it), so every (first_proc, num_procs) pair near the machine's edges and
  // at the int extremes is tried: an interval is recorded iff it is
  // nonempty and lies in 0 .. m - 1, and a refused one leaves nothing.
  constexpr int kMin = std::numeric_limits<int>::min();
  constexpr int kMax = std::numeric_limits<int>::max();
  for (int m = 1; m <= 6; ++m) {
    std::vector<int> values{kMin, kMin + 1, -m, -1, kMax - m, kMax - 1, kMax};
    for (int v = 0; v <= m + 1; ++v) values.push_back(v);
    for (const int first : values) {
      for (const int count : values) {
        const bool inside = first >= 0 && count >= 1 &&
                            static_cast<long long>(first) + count <= static_cast<long long>(m);
        const std::string label = "m " + std::to_string(m) + " first " +
                                  std::to_string(first) + " count " + std::to_string(count);
        Schedule schedule(m, 1);
        if (inside) {
          ASSERT_NO_THROW(schedule.assign(0, 0.0, 1.0, first, count)) << label;
          EXPECT_EQ(schedule.of(0).first_proc, first) << label;
          EXPECT_EQ(schedule.of(0).procs(), count) << label;
          EXPECT_TRUE(schedule.complete()) << label;
        } else {
          ASSERT_THROW(schedule.assign(0, 0.0, 1.0, first, count), std::logic_error) << label;
          EXPECT_FALSE(schedule.is_assigned(0)) << label;
          EXPECT_FALSE(schedule.complete()) << label;
          schedule.assign(0, 0.0, 1.0, 0, m);
          EXPECT_EQ(schedule.of(0).procs(), m) << label;
        }
      }
    }
  }
}

TEST(Schedule, AssignmentIsAFlatRecord) {
  // The dual step writes one Assignment per task and copies whole arrays of
  // them; no member may own memory.
  static_assert(std::is_trivially_copyable_v<Assignment>);
  static_assert(sizeof(Assignment) <= 32);
  Schedule schedule(4, 2);
  schedule.assign(1, 0.5, 2.0, 1, 3);
  const Assignment copy = schedule.of(1);
  EXPECT_EQ(copy.task, 1);
  EXPECT_EQ(copy.first_proc, 1);
  EXPECT_EQ(copy.procs(), 3);
  EXPECT_EQ(copy.end(), 2.5);
  EXPECT_EQ(schedule.assignments()[0].task, -1);
  EXPECT_EQ(schedule.assignments()[0].procs(), 0);
}

// ---------------------------------------------------------------- validator

TEST(Validator, AcceptsFeasibleSchedule) {
  const auto instance = tiny_instance();
  Schedule schedule(3, 3);
  schedule.assign(0, 0.0, 2.0, 0, 2);
  schedule.assign(1, 0.0, 3.0, 2, 1);
  schedule.assign(2, 2.0, 1.0, 0, 1);
  EXPECT_TRUE(validate_schedule(schedule, instance).ok);
}

TEST(Validator, DetectsMissingTask) {
  const auto instance = tiny_instance();
  Schedule schedule(3, 3);
  schedule.assign(0, 0.0, 2.0, 0, 2);
  const auto report = validate_schedule(schedule, instance);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.str().find("not scheduled"), std::string::npos);
}

TEST(Validator, DetectsProcessorOverlap) {
  const auto instance = tiny_instance();
  Schedule schedule(3, 3);
  schedule.assign(0, 0.0, 2.0, 0, 2);
  schedule.assign(1, 1.0, 1.6, 1, 2);  // overlaps task 0 on processor 1
  schedule.assign(2, 4.0, 1.0, 0, 1);
  const auto report = validate_schedule(schedule, instance);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.str().find("overlap"), std::string::npos);
}

TEST(Validator, DetectsDurationMismatch) {
  const auto instance = tiny_instance();
  Schedule schedule(3, 3);
  schedule.assign(0, 0.0, 9.0, 0, 2);  // t_0(2) is 2.0, not 9.0
  schedule.assign(1, 0.0, 3.0, 2, 1);
  schedule.assign(2, 3.0, 1.0, 2, 1);
  const auto report = validate_schedule(schedule, instance);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.str().find("duration"), std::string::npos);
}

TEST(Validator, EnforcesMakespanBound) {
  const auto instance = tiny_instance();
  Schedule schedule(3, 3);
  schedule.assign(0, 0.0, 2.0, 0, 2);
  schedule.assign(1, 0.0, 3.0, 2, 1);
  schedule.assign(2, 2.0, 1.0, 0, 1);
  ValidationOptions bounded;
  bounded.makespan_bound = 2.5;
  EXPECT_FALSE(validate_schedule(schedule, instance, bounded).ok);
  bounded.makespan_bound = 3.0;
  EXPECT_TRUE(validate_schedule(schedule, instance, bounded).ok);
}

TEST(Validator, MachineCountMismatch) {
  const auto instance = tiny_instance();
  Schedule schedule(4, 3);
  EXPECT_FALSE(validate_schedule(schedule, instance).ok);
}

// ------------------------------------------------------------------ sliding

TEST(Sliding, WindowMaxKnownCase) {
  const std::vector<double> values{1.0, 3.0, 2.0, 5.0, 4.0};
  const auto maxima = sliding_window_max(values, 2);
  EXPECT_EQ(maxima, (std::vector<double>{3.0, 3.0, 5.0, 5.0}));
  const auto full = sliding_window_max(values, 5);
  EXPECT_EQ(full, (std::vector<double>{5.0}));
}

// Availability-like vector of `m` entries above `floor`, with planted ties:
// exact duplicates of the floor, near-ties inside the approx_eq tolerance
// (x(1 +- 5e-10), +-2e-12), values just outside it, and runs of them so
// wider windows tie too. floor == 0 plants zeros.
std::vector<double> planted_avail(int m, double floor, Rng& rng) {
  const double unit = std::max(floor, 1.0);
  const std::vector<double> near{floor,
                                 floor,
                                 floor * (1.0 + 5e-10),
                                 floor * (1.0 - 5e-10),
                                 floor + 2e-12,
                                 std::max(floor - 2e-12, 0.0),
                                 floor + 1.5e-9 * unit,
                                 floor + 3.5e-9 * unit,
                                 floor + 5e-9 * unit};
  std::vector<double> values(static_cast<std::size_t>(m));
  for (auto& v : values) v = floor + rng.uniform(0.0, 10.0) * unit;
  const auto pick_near = [&] {
    return near[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(near.size()) - 1))];
  };
  for (int plant = 0; plant < 1 + m / 8; ++plant) {
    const auto at = static_cast<std::size_t>(rng.uniform_int(0, m - 1));
    const auto length = static_cast<std::size_t>(rng.uniform_int(1, std::max(1, m / 4)));
    for (std::size_t j = at; j < std::min(values.size(), at + length); ++j) {
      values[j] = pick_near();
    }
  }
  return values;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(Sliding, WindowKernelMatchesBruteForceOnPlantedTies) {
  // The reference takes every window's max, then their min, then the first
  // (leftmost) or last (rightmost) window in scan order that approx_eq's it;
  // the kernel must reproduce (earliest, column) and every window max bit
  // for bit.
  Rng rng(20260314);
  for (const int m : {1, 2, 3, 7, 16, 64, 256}) {
    for (const double floor : {0.0, 0.75, 1.0, 37.5, 1e6}) {
      const auto values = planted_avail(m, floor, rng);
      std::vector<double> buffer(values.size());
      for (int width = 1; width <= m; ++width) {
        std::vector<double> ready;
        for (int s = 0; s + width <= m; ++s) {
          double top = values[static_cast<std::size_t>(s)];
          for (int j = s + 1; j < s + width; ++j) {
            top = std::max(top, values[static_cast<std::size_t>(j)]);
          }
          ready.push_back(top);
        }
        double earliest = ready.front();
        for (const double r : ready) earliest = std::min(earliest, r);
        int leftmost = -1;
        int rightmost = -1;
        for (int s = 0; s < static_cast<int>(ready.size()); ++s) {
          if (!approx_eq(ready[static_cast<std::size_t>(s)], earliest)) continue;
          if (leftmost < 0) leftmost = s;
          rightmost = s;
        }

        const auto where = [&] {
          return "m=" + std::to_string(m) + " floor=" + std::to_string(floor) +
                 " width=" + std::to_string(width);
        };
        const auto windows = window_maxima(values, width, buffer);
        ASSERT_EQ(windows.ready.size(), ready.size()) << where();
        for (std::size_t s = 0; s < ready.size(); ++s) {
          ASSERT_EQ(bits(windows.ready[s]), bits(ready[s])) << where() << " s=" << s;
        }
        EXPECT_EQ(bits(windows.earliest), bits(earliest)) << where();
        EXPECT_EQ(tied_window(windows, true), leftmost) << where();
        EXPECT_EQ(tied_window(windows, false), rightmost) << where();

        const auto maxima = sliding_window_max(values, width);
        ASSERT_EQ(maxima.size(), ready.size()) << where();
        for (std::size_t s = 0; s < ready.size(); ++s) {
          EXPECT_EQ(bits(maxima[s]), bits(ready[s])) << where() << " s=" << s;
        }
      }
    }
  }
}

TEST(Sliding, AvailabilityTreeMatchesLinearScanUnderFills) {
  // The tree starts idle, takes a planted availability vector one point fill
  // at a time, then random point and range fills (exact and near ties of the
  // current minimum, a new minimum, or fresh values). After every fill its
  // leaves, earliest() and tied_leaf() must equal a linear scan bit for bit:
  // the min, then the first (last) leaf that approx_eq's it.
  Rng rng(20261018);
  for (const int m : {1, 2, 3, 5, 7, 16, 31, 64, 100, 255, 256, 257}) {
    for (const double floor : {0.0, 1.0, 37.5, 1e6}) {
      const auto planted = planted_avail(m, floor, rng);
      std::vector<double> storage(AvailabilityTree::storage_size(m));
      AvailabilityTree tree(storage, m);
      std::vector<double> values(static_cast<std::size_t>(m), 0.0);
      int fills = 0;
      const auto check = [&] {
        const auto where = [&] {
          return "m=" + std::to_string(m) + " floor=" + std::to_string(floor) +
                 " fill=" + std::to_string(fills);
        };
        double earliest = values.front();
        for (const double v : values) earliest = std::min(earliest, v);
        int leftmost = -1;
        int rightmost = -1;
        for (int s = 0; s < m; ++s) {
          if (!approx_eq(values[static_cast<std::size_t>(s)], earliest)) continue;
          if (leftmost < 0) leftmost = s;
          rightmost = s;
        }
        const auto leaves = tree.leaves();
        ASSERT_EQ(leaves.size(), values.size()) << where();
        for (std::size_t j = 0; j < values.size(); ++j) {
          ASSERT_EQ(bits(leaves[j]), bits(values[j])) << where() << " leaf " << j;
        }
        ASSERT_EQ(bits(tree.earliest()), bits(earliest)) << where();
        ASSERT_EQ(tree.tied_leaf(true), leftmost) << where();
        ASSERT_EQ(tree.tied_leaf(false), rightmost) << where();
      };
      const auto fill = [&](int first, int width, double time) {
        tree.fill(first, width, time);
        std::fill_n(values.begin() + first, width, time);
        ++fills;
      };

      check();
      if (HasFatalFailure()) return;
      for (int j = 0; j < m; ++j) {
        fill(j, 1, planted[static_cast<std::size_t>(j)]);
        check();
        if (HasFatalFailure()) return;
      }
      for (int round = 0; round < 2 * m + 8; ++round) {
        double earliest = values.front();
        for (const double v : values) earliest = std::min(earliest, v);
        const double unit = std::max(earliest, 1.0);
        const std::vector<double> times{earliest,
                                        earliest * (1.0 + 5e-10),
                                        earliest * (1.0 - 5e-10),
                                        earliest + 2e-12,
                                        earliest + 1.5e-9 * unit,
                                        earliest + 3.5e-9 * unit,
                                        earliest + 5e-9 * unit,
                                        earliest * 0.5,
                                        earliest + rng.uniform(0.0, 10.0) * unit};
        const double time = times[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(times.size()) - 1))];
        const int width = rng.uniform_int(0, 1) == 0
                              ? 1
                              : static_cast<int>(rng.uniform_int(1, std::max(1, m / 3)));
        const int first = static_cast<int>(rng.uniform_int(0, m - width));
        fill(first, width, time);
        check();
        if (HasFatalFailure()) return;
      }
    }
  }
}

// ----------------------------------------------------------- list scheduler

TEST(ListScheduler, PaperTieRuleLeftmostAtZeroRightmostLater) {
  // Two 1-proc tasks of equal length on 3 processors, then a third: the
  // first two start at 0 on the leftmost free columns; the third starts
  // later and must go to the rightmost tied column.
  Instance instance(3);
  instance.add_task(sequential_profile(2.0, 3));
  instance.add_task(sequential_profile(2.0, 3));
  instance.add_task(sequential_profile(2.0, 3));
  instance.add_task(sequential_profile(1.0, 3));
  const std::vector<int> allotment{1, 1, 1, 1};
  const std::vector<int> order{0, 1, 2, 3};
  const auto schedule = list_schedule(instance, allotment, order);
  EXPECT_EQ(schedule.of(0).first_proc, 0);
  EXPECT_EQ(schedule.of(1).first_proc, 1);
  EXPECT_EQ(schedule.of(2).first_proc, 2);
  // Task 3 ties on all three processors at t=2 -> rightmost.
  EXPECT_DOUBLE_EQ(schedule.of(3).start, 2.0);
  EXPECT_EQ(schedule.of(3).first_proc, 2);
}

TEST(ListScheduler, WideTaskStartingLaterTakesTheRightmostTiedWindow) {
  // The same rule on windows wider than one processor. Two 2-processor
  // tasks fill 4 processors from the left at time 0; the third ties on all
  // three windows at t=2 and takes the rightmost, so the 1-processor task
  // after it ties on processors 0 and 1 at t=2 and takes processor 1.
  Instance instance(4);
  instance.add_task(sequential_profile(2.0, 4));
  instance.add_task(sequential_profile(2.0, 4));
  instance.add_task(sequential_profile(1.0, 4));
  instance.add_task(sequential_profile(1.0, 4));
  const std::vector<int> allotment{2, 2, 2, 1};
  const std::vector<int> order{0, 1, 2, 3};
  const auto schedule = list_schedule(instance, allotment, order);
  EXPECT_EQ(schedule.of(0).first_proc, 0);
  EXPECT_EQ(schedule.of(1).first_proc, 2);
  EXPECT_DOUBLE_EQ(schedule.of(2).start, 2.0);
  EXPECT_EQ(schedule.of(2).first_proc, 2);
  EXPECT_DOUBLE_EQ(schedule.of(3).start, 2.0);
  EXPECT_EQ(schedule.of(3).first_proc, 1);
  EXPECT_TRUE(validate_schedule(schedule, instance).ok);
}

TEST(ListScheduler, ValidatesInputs) {
  const auto instance = tiny_instance();
  const std::vector<int> bad_allotment{0, 1, 1};
  const std::vector<int> order{0, 1, 2};
  EXPECT_THROW(list_schedule(instance, bad_allotment, order), std::invalid_argument);
  const std::vector<int> allotment{1, 1, 1};
  const std::vector<int> bad_order{0, 0, 2};
  EXPECT_THROW(list_schedule(instance, allotment, bad_order), std::invalid_argument);
  const std::vector<int> short_order{0, 1};
  EXPECT_THROW(list_schedule(instance, allotment, short_order), std::invalid_argument);
}

class ListSchedulerRandomTest
    : public ::testing::TestWithParam<std::tuple<WorkloadFamily, int>> {};

TEST_P(ListSchedulerRandomTest, RandomAllotmentsAlwaysFeasible) {
  const auto [family, seed] = GetParam();
  GeneratorOptions options;
  options.tasks = 25;
  options.machines = 12;
  const auto instance = generate_instance(family, options, static_cast<std::uint64_t>(seed));
  Rng rng(static_cast<std::uint64_t>(seed) * 31 + 7);

  std::vector<int> allotment(static_cast<std::size_t>(instance.size()));
  for (auto& p : allotment) p = static_cast<int>(rng.uniform_int(1, instance.machines()));
  std::vector<int> order(static_cast<std::size_t>(instance.size()));
  const auto perm = rng.permutation(order.size());
  for (std::size_t i = 0; i < perm.size(); ++i) order[i] = static_cast<int>(perm[i]);

  const auto report = validate_schedule(list_schedule(instance, allotment, order), instance);
  EXPECT_TRUE(report.ok) << report.str();
}

INSTANTIATE_TEST_SUITE_P(
    Families, ListSchedulerRandomTest,
    ::testing::Combine(::testing::Values(WorkloadFamily::kUniform, WorkloadFamily::kBimodal,
                                         WorkloadFamily::kHeavyTail, WorkloadFamily::kStairs),
                       ::testing::Values(1, 2, 3)));

TEST(ListScheduler, OrderHelpers) {
  const auto instance = tiny_instance();
  const auto by_seq = order_by_decreasing_seq_time(instance);
  EXPECT_EQ(by_seq, (std::vector<int>{0, 1, 2}));
  const std::vector<int> allotment{3, 1, 1};  // t0(3)=1.5, t1(1)=3, t2(1)=1
  const auto by_alloted = order_by_decreasing_alloted_time(instance, allotment);
  EXPECT_EQ(by_alloted, (std::vector<int>{1, 0, 2}));
}

// --------------------------------------------------------------- compaction

TEST(Compaction, NeverIncreasesMakespanAndStaysValid) {
  Rng rng(707);
  GeneratorOptions options;
  options.tasks = 30;
  options.machines = 10;
  for (int seed = 0; seed < 10; ++seed) {
    const auto instance =
        generate_instance(WorkloadFamily::kUniform, options, static_cast<std::uint64_t>(seed));
    std::vector<int> allotment(static_cast<std::size_t>(instance.size()));
    for (auto& p : allotment) p = static_cast<int>(rng.uniform_int(1, instance.machines()));
    std::vector<int> order(static_cast<std::size_t>(instance.size()));
    const auto perm = rng.permutation(order.size());
    for (std::size_t i = 0; i < perm.size(); ++i) order[i] = static_cast<int>(perm[i]);
    const auto schedule = list_schedule(instance, allotment, order);
    const auto compacted = compact_schedule(schedule, instance);
    EXPECT_TRUE(validate_schedule(compacted, instance).ok);
    EXPECT_TRUE(leq(compacted.makespan(), schedule.makespan()));
  }
}

TEST(Compaction, ClosesArtificialGap) {
  Instance instance(2);
  instance.add_task(sequential_profile(1.0, 2), "a");
  instance.add_task(sequential_profile(1.0, 2), "b");
  Schedule loose(2, 2);
  loose.assign(0, 0.0, 1.0, 0, 1);
  loose.assign(1, 5.0, 1.0, 0, 1);  // pointless idle gap
  const auto tight = compact_schedule(loose, instance);
  EXPECT_DOUBLE_EQ(tight.makespan(), 2.0);
}

TEST(Compaction, EqualStartsKeepTheLowerTaskFirst) {
  // Both tasks claim processor 0 at time 0; compaction takes equal starts
  // in task order, so task 0 keeps time 0 and task 1 follows it.
  Instance instance(1);
  instance.add_task(sequential_profile(1.0, 1), "a");
  instance.add_task(sequential_profile(2.0, 1), "b");
  Schedule stacked(1, 2);
  stacked.assign(1, 0.0, 2.0, 0, 1);
  stacked.assign(0, 0.0, 1.0, 0, 1);
  const auto compacted = compact_schedule(stacked, instance);
  EXPECT_DOUBLE_EQ(compacted.of(0).start, 0.0);
  EXPECT_DOUBLE_EQ(compacted.of(1).start, 1.0);
}

TEST(Compaction, SignedZeroStartsAboveTheRadixCutoffKeepTheLowerTaskFirst) {
  // More tasks than the radix sort's cutoff, from which compaction once
  // radix-sorted all starts: tasks 0 and 1 share processor 0, one starting
  // at -0.0 and the other at +0.0. The two zeros are equal starts, so task 0
  // goes first either way round; the rest fill processor 1.
  const int n = static_cast<int>(kRadixSortCutoff) + 8;
  Instance instance(2);
  for (int i = 0; i < n; ++i) instance.add_task(sequential_profile(i == 1 ? 2.0 : 1.0, 2));
  for (const auto& [start0, start1] : {std::pair{-0.0, 0.0}, std::pair{0.0, -0.0}}) {
    Schedule stacked(2, n);
    stacked.assign(0, start0, 1.0, 0, 1);
    stacked.assign(1, start1, 2.0, 0, 1);
    for (int i = 2; i < n; ++i) stacked.assign(i, 2.0 * i, 1.0, 1, 1);
    const auto compacted = compact_schedule(stacked, instance);
    EXPECT_EQ(compacted.of(0).start, 0.0) << "task 0 at " << start0;
    EXPECT_EQ(compacted.of(1).start, 1.0) << "task 0 at " << start0;
    EXPECT_EQ(compacted.of(n - 1).start, static_cast<double>(n - 3));
    EXPECT_TRUE(validate_schedule(compacted, instance).ok);
  }
}

TEST(Compaction, RejectsAnUnassignedTask) {
  const auto instance = tiny_instance();
  Schedule partial(3, 3);
  partial.assign(0, 0.0, 2.0, 0, 2);
  partial.assign(2, 2.0, 1.0, 0, 1);
  EXPECT_THROW(static_cast<void>(compact_schedule(partial, instance)), std::logic_error);
}

/// FNV-1a over every placement of `schedule`: task, start and duration
/// bits, first processor and processor count.
std::uint64_t placement_digest(const Schedule& schedule) {
  std::uint64_t hash = fnv::kOffset;
  for (const auto& assignment : schedule.assignments()) {
    fnv::mix_u64(hash, static_cast<std::uint64_t>(assignment.task));
    fnv::mix_bytes(hash, &assignment.start, sizeof assignment.start);
    fnv::mix_bytes(hash, &assignment.duration, sizeof assignment.duration);
    fnv::mix_u64(hash, static_cast<std::uint64_t>(assignment.first_proc));
    fnv::mix_u64(hash, static_cast<std::uint64_t>(assignment.num_procs));
  }
  return hash;
}

TEST(Compaction, JitteredListScheduleMatchesRecordedDigests) {
  // Digests recorded by running this test source against the library in
  // which a schedule could also hold non-contiguous processor sets and
  // every placement loop branched on the form. A list schedule is already
  // compact, so compaction returns it unchanged; a copy with every start
  // delayed by up to three durations, which overlaps and whose order
  // differs on some processors, compacts to another feasible schedule.
  GeneratorOptions options;
  options.tasks = 60;
  options.machines = 12;
  const auto instance = generate_instance(WorkloadFamily::kBimodal, options, 31);
  Rng rng(3131);
  std::vector<int> allotment(static_cast<std::size_t>(instance.size()));
  for (auto& p : allotment) p = static_cast<int>(rng.uniform_int(1, 5));
  const auto perm = rng.permutation(allotment.size());
  const std::vector<int> order(perm.begin(), perm.end());
  const auto schedule = list_schedule(instance, allotment, order);
  Schedule jittered(schedule.machines(), schedule.num_tasks());
  for (const auto& assignment : schedule.assignments()) {
    jittered.assign(assignment.task,
                    assignment.start + rng.uniform(0.0, 3.0) * assignment.duration,
                    assignment.duration, assignment.first_proc, assignment.num_procs);
  }
  const auto compacted = compact_schedule(schedule, instance);
  const auto recompacted = compact_schedule(jittered, instance);

  for (const Schedule* s : {&schedule, &compacted, &recompacted}) {
    EXPECT_TRUE(validate_schedule(*s, instance).ok);
  }
  EXPECT_EQ(placement_digest(compacted), placement_digest(schedule));
  EXPECT_EQ(placement_digest(schedule), 0xd72105d2dee97ed8ull);
  EXPECT_EQ(placement_digest(recompacted), 0x511ab03c4b365671ull);
}

// --------------------------------------------------------- processor chains

/// A seeded random schedule with the cases the chain order must get right:
/// equal starts, -0.0 beside +0.0, back-to-back tasks, overlaps inside the
/// library tolerance and real overlaps; with `clean`, only the first four,
/// so the schedule is feasible. m = 1 gets 150 tasks, so its one chain
/// takes the long-chain sort.
struct RandomSchedule {
  Instance instance;
  Schedule schedule;
};

RandomSchedule random_schedule(int machines, Rng& rng, bool clean) {
  const int n = machines == 1 ? 150 : std::min(20 + 2 * machines, 600);
  constexpr std::array<double, 4> kSeqTimes{1.0, 2.0, 0.5, 1.5};
  Instance tasks(machines);
  for (int i = 0; i < n; ++i) {
    const double seq = kSeqTimes[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    tasks.add_task(rng.bernoulli(0.5) ? linear_profile(seq, machines)
                                      : amdahl_profile(seq, 0.25, machines));
  }
  RandomSchedule out{std::move(tasks), Schedule(machines, n)};
  const auto signed_zero = [&] { return rng.bernoulli(0.5) ? -0.0 : 0.0; };
  std::vector<double> avail(static_cast<std::size_t>(machines), 0.0);
  std::vector<double> starts;
  for (const auto index : rng.permutation(static_cast<std::size_t>(n))) {
    const int task = static_cast<int>(index);
    const int width = rng.bernoulli(0.6)
                          ? 1
                          : static_cast<int>(rng.uniform_int(1, std::min(machines, 8)));
    const auto first = static_cast<std::size_t>(rng.uniform_int(0, machines - width));
    const auto last = first + static_cast<std::size_t>(width);
    double ready = 0.0;
    for (std::size_t p = first; p < last; ++p) ready = std::max(ready, avail[p]);
    const double duration = out.instance.task(task).time(width);

    auto kind = rng.uniform_int(0, 9);
    if (clean && kind >= 7) kind = 0;
    double start = ready;
    if (kind <= 3) {
      if (ready == 0.0) start = signed_zero();  // back to back
    } else if (kind == 4) {
      start = ready + 0.25;  // idle gap
    } else if (kind <= 6) {
      start = std::max(0.0, ready - 0.4 * kRelEps * std::max(ready, 1.0));  // within tolerance
    } else if (kind == 7) {
      start = 0.5 * ready;  // a real overlap once ready > 0
    } else if (kind == 8 && !starts.empty()) {
      start = starts[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(starts.size()) - 1))];  // an equal start
    } else {
      start = signed_zero();
    }
    out.schedule.assign(task, start, duration, static_cast<int>(first), width);
    for (std::size_t p = first; p < last; ++p) avail[p] = std::max(avail[p], start + duration);
    starts.push_back(start);
  }
  return out;
}

class ProcessorChainsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ProcessorChainsPropertyTest, MatchTheBucketSweepAndTheStartOrderCompaction) {
  const int machines = GetParam();
  Rng rng(static_cast<std::uint64_t>(9000 + machines));
  int valid = 0;
  int invalid = 0;
  for (int round = 0; round < 24; ++round) {
    const bool clean = round % 3 == 0;
    const auto [instance, schedule] = random_schedule(machines, rng, clean);
    const std::string label = "m " + std::to_string(machines) + " round " + std::to_string(round);

    // Each chain lists its processor's placements by (start, task), -0.0
    // equal to +0.0, each entry carrying its task's start and end.
    const ProcessorChains chains(schedule);
    std::size_t entries = 0;
    for (int p = 0; p < machines; ++p) {
      const auto chain = chains.chain(p);
      entries += chain.size();
      for (std::size_t k = 0; k < chain.size(); ++k) {
        const auto& assignment = schedule.of(chain[k].task);
        ASSERT_LE(assignment.first_proc, p) << label;
        ASSERT_LT(p, assignment.first_proc + assignment.num_procs) << label;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(chain[k].start),
                  std::bit_cast<std::uint64_t>(assignment.start))
            << label;
        ASSERT_EQ(chain[k].end, assignment.end()) << label;
        if (k == 0) continue;
        const auto& prev = chain[k - 1];
        ASSERT_TRUE(prev.start < chain[k].start ||
                    (prev.start == chain[k].start && prev.task < chain[k].task))
            << label << " processor " << p << " entry " << k;
      }
    }
    std::size_t incidences = 0;
    for (const auto& assignment : schedule.assignments()) {
      incidences += static_cast<std::size_t>(assignment.procs());
    }
    EXPECT_EQ(entries, incidences) << label;

    const bool ok = validate_schedule(schedule, instance).ok;
    EXPECT_EQ(ok, bucket_sweep_valid(schedule, instance)) << label;
    if (clean) {
      EXPECT_TRUE(ok) << label;
    }
    (ok ? valid : invalid) += 1;

    const auto compacted = compact_schedule(schedule, instance);
    const auto reference = start_order_compaction(schedule);
    for (int task = 0; task < schedule.num_tasks(); ++task) {
      const auto& got = compacted.of(task);
      const auto& want = reference.of(task);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.start), std::bit_cast<std::uint64_t>(want.start))
          << label << " task " << task;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.duration),
                std::bit_cast<std::uint64_t>(want.duration))
          << label << " task " << task;
      ASSERT_EQ(got.first_proc, want.first_proc) << label << " task " << task;
      ASSERT_EQ(got.num_procs, want.num_procs) << label << " task " << task;
    }
    EXPECT_TRUE(validate_schedule(compacted, instance).ok) << label;
    EXPECT_TRUE(bucket_sweep_valid(compacted, instance)) << label;
  }
  EXPECT_GT(valid, 0);
  EXPECT_GT(invalid, 0);
}

INSTANTIATE_TEST_SUITE_P(Machines, ProcessorChainsPropertyTest,
                         ::testing::Values(1, 2, 7, 64, 257));

// -------------------------------------------------------------------- gantt

TEST(Gantt, RendersGridAndLegend) {
  Schedule schedule(3, 3);
  schedule.assign(0, 0.0, 2.0, 0, 2);
  schedule.assign(1, 0.0, 3.0, 2, 1);
  schedule.assign(2, 2.0, 1.0, 0, 1);
  std::ostringstream out;
  render_gantt(out, schedule);
  const auto text = out.str();
  EXPECT_NE(text.find("P0"), std::string::npos);
  EXPECT_NE(text.find("legend:"), std::string::npos);
  EXPECT_NE(text.find('A'), std::string::npos);
}

TEST(Gantt, PaintsEachIntervalAndElidesRowsPastTheLimit) {
  // Exact output: each task paints its own processors' rows over its time
  // cells; with max_rows = 3 on 5 processors, task 1 shows on its one
  // visible row and task 3, wholly past the cut, only in the legend.
  Schedule schedule(5, 4);
  schedule.assign(0, 0.0, 2.0, 0, 2);
  schedule.assign(1, 0.0, 4.0, 2, 2);
  schedule.assign(2, 2.0, 2.0, 0, 1);
  schedule.assign(3, 0.0, 1.0, 4, 1);
  GanttOptions options;
  options.width = 8;
  options.max_rows = 3;
  std::ostringstream out;
  render_gantt(out, schedule, options);
  EXPECT_EQ(out.str(),
            "time 0  4.000\n"
            "P0   |AAAACCCC|\n"
            "P1   |AAAA....|\n"
            "P2   |BBBBBBBB|\n"
            "     (2 more processors elided)\n"
            "legend: A=t0(p2) B=t1(p2) C=t2(p1) D=t3(p1)\n");
}

TEST(Gantt, EmptyScheduleDoesNotCrash) {
  const Schedule schedule(3, 3);
  std::ostringstream out;
  render_gantt(out, schedule);
  EXPECT_NE(out.str().find("empty"), std::string::npos);
}

// -------------------------------------------------------------- brute force

TEST(BruteForce, FindsOptimumOnTinyInstance) {
  // One big malleable task + two unit tasks on 2 machines.
  Instance instance(2);
  instance.add_task(std::vector<double>{2.0, 1.0});
  instance.add_task(sequential_profile(1.0, 2));
  instance.add_task(sequential_profile(1.0, 2));
  const auto result = brute_force_schedule(instance);
  ASSERT_TRUE(result.has_value());
  // OPT = 2: run the big task on both procs (1.0), then the two units.
  EXPECT_NEAR(result->makespan, 2.0, 1e-12);
  EXPECT_TRUE(validate_schedule(result->schedule, instance).ok);
}

TEST(BruteForce, RespectsBudget) {
  GeneratorOptions options;
  options.tasks = 8;
  options.machines = 16;
  const auto instance = generate_instance(WorkloadFamily::kUniform, options, 1);
  EXPECT_FALSE(brute_force_schedule(instance, 1000).has_value());
}

class BruteForceRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(BruteForceRandomTest, ReturnsAValidScheduleNoShorterThanTheLowerBound) {
  // The oracle's answers feed the dual-approximation soundness checks, so
  // they must themselves be feasible: complete, contiguous, and never below
  // the area/critical-path bound that no schedule can beat.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 6100);
  for (int trial = 0; trial < 10; ++trial) {
    GeneratorOptions options;
    options.tasks = static_cast<int>(rng.uniform_int(1, 4));
    options.machines = static_cast<int>(rng.uniform_int(1, 3));
    const auto families = all_workload_families();
    const auto family = families[static_cast<std::size_t>(trial) % families.size()];
    const auto seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1000));
    const auto instance = generate_instance(family, options, seed);
    const auto result = brute_force_schedule(instance);
    ASSERT_TRUE(result.has_value());
    const auto report = validate_schedule(result->schedule, instance);
    EXPECT_TRUE(report.ok) << report.str();
    EXPECT_DOUBLE_EQ(result->makespan, result->schedule.makespan());
    EXPECT_TRUE(geq(result->makespan, makespan_lower_bound(instance)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BruteForceRandomTest, ::testing::Values(1, 2, 3));

TEST(BruteForce, EmptyInstance) {
  const Instance instance(2);
  const auto result = brute_force_schedule(instance);
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->makespan, 0.0);
}

}  // namespace
}  // namespace malsched
