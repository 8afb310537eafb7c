#include "oracles/schedule_oracles.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "support/math_utils.hpp"
#include "support/radix_sort.hpp"

namespace malsched {

bool bucket_sweep_valid(const Schedule& schedule, const Instance& instance,
                        const ValidationOptions& options) {
  if (schedule.machines() != instance.machines() || schedule.num_tasks() != instance.size()) {
    return false;
  }
  const auto& assignments = schedule.assignments();
  for (int i = 0; i < instance.size(); ++i) {
    const auto& assignment = assignments[static_cast<std::size_t>(i)];
    if (assignment.task == -1) return false;
    if (!approx_eq(assignment.duration, instance.task(i).time(assignment.procs()))) return false;
    if (assignment.start < -kAbsEps) return false;
  }

  const auto machines = static_cast<std::size_t>(instance.machines());
  std::vector<std::size_t> bucket_end(machines + 1, 0);
  for (const auto& assignment : assignments) {
    for (int p = assignment.first_proc; p < assignment.first_proc + assignment.num_procs; ++p) {
      ++bucket_end[static_cast<std::size_t>(p) + 1];
    }
  }
  for (std::size_t p = 0; p < machines; ++p) bucket_end[p + 1] += bucket_end[p];
  std::vector<int> on_proc(bucket_end.back());
  std::vector<std::size_t> cursor(bucket_end.begin(), bucket_end.end() - 1);
  for (int i = 0; i < instance.size(); ++i) {
    const auto& assignment = assignments[static_cast<std::size_t>(i)];
    for (int p = assignment.first_proc; p < assignment.first_proc + assignment.num_procs; ++p) {
      on_proc[cursor[static_cast<std::size_t>(p)]++] = i;
    }
  }
  bool ok = true;
  for (std::size_t p = 0; p < machines; ++p) {
    const auto begin = on_proc.begin() + static_cast<std::ptrdiff_t>(bucket_end[p]);
    const auto end = on_proc.begin() + static_cast<std::ptrdiff_t>(bucket_end[p + 1]);
    std::sort(begin, end, [&](int a, int b) {
      return assignments[static_cast<std::size_t>(a)].start <
             assignments[static_cast<std::size_t>(b)].start;
    });
    for (auto it = begin; it != end && it + 1 != end; ++it) {
      const auto& prev = assignments[static_cast<std::size_t>(*it)];
      const auto& next = assignments[static_cast<std::size_t>(*(it + 1))];
      if (!leq(prev.end(), next.start)) ok = false;
    }
  }
  if (options.makespan_bound > 0.0 && !leq(schedule.makespan(), options.makespan_bound)) {
    ok = false;
  }
  return ok;
}

Schedule start_order_compaction(const Schedule& schedule) {
  const auto& assignments = schedule.assignments();
  const std::size_t n = assignments.size();
  std::vector<KeyedIndex> entries(2 * n);
  for (std::size_t task = 0; task < n; ++task) {
    entries[task] = {ascending_key(assignments[task].start), static_cast<int>(task)};
  }
  const std::span<KeyedIndex> by_start(entries.data(), n);
  sort_by_key(by_start, {entries.data() + n, n});

  Schedule compacted(schedule.machines(), schedule.num_tasks());
  std::vector<double> avail(static_cast<std::size_t>(schedule.machines()), 0.0);
  for (const auto& entry : by_start) {
    const auto& assignment = assignments[static_cast<std::size_t>(entry.index)];
    const auto first = static_cast<std::size_t>(assignment.first_proc);
    const auto last = first + static_cast<std::size_t>(assignment.num_procs);
    double start = 0.0;
    for (std::size_t p = first; p < last; ++p) start = std::max(start, avail[p]);
    for (std::size_t p = first; p < last; ++p) avail[p] = start + assignment.duration;
    compacted.assign(entry.index, start, assignment.duration, assignment.first_proc,
                     assignment.num_procs);
  }
  return compacted;
}

}  // namespace malsched
