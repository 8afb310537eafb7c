#include "sched/compaction.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/processor_chains.hpp"

namespace malsched {

Schedule compact_schedule(const Schedule& schedule, const Instance& instance) {
  const auto& assignments = schedule.assignments();
  const std::size_t n = assignments.size();
  for (std::size_t task = 0; task < n; ++task) {
    if (assignments[task].task == -1) {
      throw std::logic_error("compact_schedule: task " + std::to_string(task) +
                             " not assigned");
    }
  }
  const ProcessorChains chains(schedule);
  const auto offsets = chains.offsets();
  const auto entries = chains.entries();
  const auto machines = static_cast<std::size_t>(schedule.machines());

  // cursor[p]: chain p's first unplaced entry; avail[p]: when processor p
  // frees up, i.e. the compacted end of the entry before the cursor.
  // heads[t]: how many of its chains task t heads; it is ready once it
  // heads all of them, because then every task before it on each of its
  // processors is placed. All chains follow one order, (start, task), so no
  // two tasks wait on each other and every task becomes ready (Schedule
  // admits no NaN start, which would break that order).
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<double> avail(machines, 0.0);
  std::vector<int> heads(n, 0);
  std::vector<int> ready;
  ready.reserve(n);
  const auto head_arrives = [&](std::size_t p) {
    if (cursor[p] == offsets[p + 1]) return;
    const int task = entries[cursor[p]].task;
    if (++heads[static_cast<std::size_t>(task)] ==
        assignments[static_cast<std::size_t>(task)].num_procs) {
      ready.push_back(task);
    }
  };
  for (std::size_t p = 0; p < machines; ++p) head_arrives(p);

  Schedule compacted(schedule.machines(), schedule.num_tasks());
  while (!ready.empty()) {
    const int task = ready.back();
    ready.pop_back();
    const auto& assignment = assignments[static_cast<std::size_t>(task)];
    const auto first = static_cast<std::size_t>(assignment.first_proc);
    const auto last = first + static_cast<std::size_t>(assignment.num_procs);
    double start = 0.0;
    for (std::size_t p = first; p < last; ++p) start = std::max(start, avail[p]);
    const double end = start + assignment.duration;
    for (std::size_t p = first; p < last; ++p) {
      avail[p] = end;
      ++cursor[p];
      head_arrives(p);
    }
    compacted.assign(task, start, assignment.duration, assignment.first_proc,
                     assignment.num_procs);
  }
  // The instance parameter pins the schedule/instance pairing at the call
  // site (and allows future duration re-derivation); only geometry is used.
  (void)instance;
  return compacted;
}

}  // namespace malsched
