#include "sched/schedule.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace malsched {

Schedule::Schedule(int machines, int num_tasks)
    : machines_(machines),
      num_tasks_(num_tasks),
      assignments_(static_cast<std::size_t>(std::max(0, num_tasks))) {
  if (machines < 1) throw std::invalid_argument("Schedule: machines must be >= 1");
  if (num_tasks < 0) throw std::invalid_argument("Schedule: negative task count");
}

void Schedule::assign(int task, double start, double duration, int first_proc, int num_procs) {
  if (task < 0 || task >= num_tasks_) {
    throw std::logic_error("Schedule::assign: task index out of range");
  }
  if (assignments_[static_cast<std::size_t>(task)].task != -1) {
    throw std::logic_error("Schedule::assign: task " + std::to_string(task) +
                           " assigned twice");
  }
  if (!(start >= 0.0) || !(duration > 0.0)) {
    throw std::logic_error("Schedule::assign: start must be >= 0 and duration positive");
  }
  // Written so no sum can overflow: first_proc >= 0 once the second test
  // passes, so machines_ - first_proc cannot.
  if (num_procs < 1 || first_proc < 0 || num_procs > machines_ - first_proc) {
    throw std::logic_error("Schedule::assign: processor interval outside the machine");
  }
  assignments_[static_cast<std::size_t>(task)] =
      Assignment{start, duration, task, first_proc, num_procs};
  ++assigned_count_;
}

bool Schedule::is_assigned(int task) const {
  return assignments_.at(static_cast<std::size_t>(task)).task != -1;
}

const Assignment& Schedule::of(int task) const {
  const auto& assignment = assignments_.at(static_cast<std::size_t>(task));
  if (assignment.task == -1) {
    throw std::logic_error("Schedule::of: task " + std::to_string(task) + " not assigned");
  }
  return assignment;
}

double Schedule::makespan() const noexcept {
  double latest = 0.0;
  for (const auto& assignment : assignments_) {
    if (assignment.task != -1) latest = std::max(latest, assignment.end());
  }
  return latest;
}

}  // namespace malsched
