#include "sched/compaction.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/radix_sort.hpp"

namespace malsched {

Schedule compact_schedule(const Schedule& schedule, const Instance& instance) {
  const auto& assignments = schedule.assignments();
  const std::size_t n = assignments.size();
  // (start, task) entries in task order, then as many of the sort's
  // scratch: the stable sort keeps the lower task index first among equal
  // starts, -0.0 and +0.0 being equal.
  std::vector<KeyedIndex> entries(2 * n);
  for (std::size_t task = 0; task < n; ++task) {
    if (assignments[task].task == -1) {
      throw std::logic_error("compact_schedule: task " + std::to_string(task) +
                             " not assigned");
    }
    entries[task] = {ascending_key(assignments[task].start), static_cast<int>(task)};
  }
  const std::span<KeyedIndex> by_start(entries.data(), n);
  sort_by_key(by_start, {entries.data() + n, n});

  Schedule compacted(schedule.machines(), schedule.num_tasks());
  std::vector<double> avail(static_cast<std::size_t>(schedule.machines()), 0.0);
  for (const auto& entry : by_start) {
    const int task = entry.index;
    const auto& assignment = assignments[static_cast<std::size_t>(task)];
    double start = 0.0;
    assignment.for_each_processor(
        [&](int p) { start = std::max(start, avail[static_cast<std::size_t>(p)]); });
    assignment.for_each_processor(
        [&](int p) { avail[static_cast<std::size_t>(p)] = start + assignment.duration; });
    if (assignment.contiguous()) {
      compacted.assign(task, start, assignment.duration, assignment.first_proc,
                       assignment.num_procs);
    } else {
      compacted.assign_scattered(task, start, assignment.duration, assignment.scattered);
    }
  }
  // The instance parameter pins the schedule/instance pairing at the call
  // site (and allows future duration re-derivation); only geometry is used.
  (void)instance;
  return compacted;
}

}  // namespace malsched
