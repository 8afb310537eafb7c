#pragma once

#include <span>
#include <vector>

#include "model/instance.hpp"
#include "sched/schedule.hpp"

/// Greedy list scheduling for rigid (fixed-allotment) parallel tasks.
///
/// This is the scheduling phase shared by Sections 3.1 and 3.2 of the paper:
/// tasks are taken in a priority order and each is started as early as the
/// current schedule allows on its allotted number of processors.
///
/// Placement follows the paper's §3.2 convention: among the earliest
/// feasible windows of contiguous processors the task goes to the
/// *leftmost* ones when it can start at time 0 and to the *rightmost* ones
/// otherwise ("this convention asserts the contiguous nature of the
/// schedule").
///
/// Cost per task (sched/sliding.hpp): O(log m) to place a sequential task,
/// read off a min tree over processor availability; O(m) for a wider one,
/// through the window kernel; and O(width + log m) to record the placement
/// in the tree.
namespace malsched {

/// Schedules every task of `instance` with `allotment[i]` processors in the
/// given priority `order` (a permutation of task indices), under §3.2's
/// placement rule.
/// Throws std::invalid_argument on malformed allotments or order.
[[nodiscard]] Schedule list_schedule(const Instance& instance, std::span<const int> allotment,
                                     std::span<const int> order);

/// Priority order sorting task indices by non-increasing key; ties keep the
/// lower index first (deterministic runs).
[[nodiscard]] std::vector<int> order_by_decreasing(std::span<const double> keys);

/// Order by non-increasing execution time under the given allotment -- the
/// canonical list priority of §3.2.
[[nodiscard]] std::vector<int> order_by_decreasing_alloted_time(const Instance& instance,
                                                                std::span<const int> allotment);

/// Order by non-increasing *sequential* time t_i(1) -- the malleable list
/// priority of §3.1.
[[nodiscard]] std::vector<int> order_by_decreasing_seq_time(const Instance& instance);

}  // namespace malsched
