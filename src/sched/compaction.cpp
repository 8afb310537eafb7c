#include "sched/compaction.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace malsched {

Schedule compact_schedule(const Schedule& schedule, const Instance& instance) {
  const auto& assignments = schedule.assignments();
  // Flat (start, task) keys: their lexicographic order keeps the lower task
  // index first among equal starts.
  std::vector<std::pair<double, int>> by_start(assignments.size());
  for (std::size_t task = 0; task < assignments.size(); ++task) {
    if (assignments[task].task == -1) {
      throw std::logic_error("compact_schedule: task " + std::to_string(task) +
                             " not assigned");
    }
    by_start[task] = {assignments[task].start, static_cast<int>(task)};
  }
  std::sort(by_start.begin(), by_start.end());

  Schedule compacted(schedule.machines(), schedule.num_tasks());
  std::vector<double> avail(static_cast<std::size_t>(schedule.machines()), 0.0);
  for (const auto& key : by_start) {
    const int task = key.second;
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
