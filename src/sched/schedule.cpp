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

void Schedule::check_common(int task, double start, double duration) const {
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
}

void Schedule::assign(int task, double start, double duration, int first_proc, int num_procs) {
  check_common(task, start, duration);
  if (num_procs < 1 || first_proc < 0 || first_proc + num_procs > machines_) {
    throw std::logic_error("Schedule::assign: processor interval outside the machine");
  }
  assignments_[static_cast<std::size_t>(task)] =
      Assignment{start, duration, task, first_proc, num_procs, Assignment::kContiguous};
  ++assigned_count_;
}

void Schedule::assign_scattered(int task, double start, double duration,
                                std::vector<int> processors) {
  check_common(task, start, duration);
  if (processors.empty()) {
    throw std::logic_error("Schedule::assign_scattered: empty processor set");
  }
  std::sort(processors.begin(), processors.end());
  if (processors.front() < 0 || processors.back() >= machines_ ||
      std::adjacent_find(processors.begin(), processors.end()) != processors.end()) {
    throw std::logic_error("Schedule::assign_scattered: bad processor set");
  }
  assignments_[static_cast<std::size_t>(task)] =
      Assignment{start, duration, task, processors.front(), static_cast<int>(processors.size()),
                 static_cast<int>(scattered_procs_.size())};
  scattered_procs_.insert(scattered_procs_.end(), processors.begin(), processors.end());
  ++assigned_count_;
}

std::vector<int> Schedule::processor_list(const Assignment& assignment) const {
  std::vector<int> procs;
  procs.reserve(static_cast<std::size_t>(assignment.num_procs));
  for_each_processor(assignment, [&](int p) { procs.push_back(p); });
  return procs;
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
