#include "sched/validate.hpp"

#include <algorithm>
#include <sstream>

#include "support/math_utils.hpp"

namespace malsched {

std::string ValidationReport::str() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) out << '\n';
    out << errors[i];
  }
  return out.str();
}

ValidationReport validate_schedule(const Schedule& schedule, const Instance& instance,
                                   const ValidationOptions& options) {
  ValidationReport report;
  if (schedule.machines() != instance.machines()) {
    report.fail("machine count mismatch between schedule and instance");
    return report;
  }
  if (schedule.num_tasks() != instance.size()) {
    report.fail("task count mismatch between schedule and instance");
    return report;
  }

  // Read in place: the loop below fails the report on any unassigned task,
  // so every later read finds a placement.
  const auto& assignments = schedule.assignments();
  for (int i = 0; i < instance.size(); ++i) {
    const auto& assignment = assignments[static_cast<std::size_t>(i)];
    if (assignment.task == -1) {
      report.fail("task " + std::to_string(i) + " is not scheduled");
      continue;
    }
    const int procs = assignment.procs();
    if (procs < 1 || procs > instance.machines()) {
      report.fail("task " + std::to_string(i) + ": processor count " + std::to_string(procs) +
                  " outside [1, m]");
      continue;
    }
    if (options.require_contiguous && !assignment.contiguous()) {
      report.fail("task " + std::to_string(i) + ": scattered placement where contiguity required");
    }
    const double expected = instance.task(i).time(procs);
    if (!approx_eq(assignment.duration, expected)) {
      report.fail("task " + std::to_string(i) + ": recorded duration " +
                  std::to_string(assignment.duration) + " != t(" + std::to_string(procs) +
                  ") = " + std::to_string(expected));
    }
    if (assignment.start < -kAbsEps) {
      report.fail("task " + std::to_string(i) + ": negative start time");
    }
    // Contiguous placements need no materialized processor list: the
    // interval endpoints carry the same information (this validator runs on
    // every accepted dual-search step, so it stays allocation-lean).
    const int first = assignment.contiguous() ? assignment.first_proc
                                              : assignment.scattered.front();
    const int last = assignment.contiguous() ? assignment.first_proc + assignment.num_procs - 1
                                             : assignment.scattered.back();
    if (first < 0 || last >= instance.machines()) {
      report.fail("task " + std::to_string(i) + ": processor index outside the machine");
    }
  }
  if (!report.ok) return report;

  // Pairwise overlap: two tasks sharing a processor must be time-disjoint.
  // Sweep per processor keeps this O(total_procs log + collisions); the
  // (processor, task) incidence lives in one flat bucket-sorted array.
  const auto machines = static_cast<std::size_t>(instance.machines());
  std::vector<std::size_t> bucket_end(machines + 1, 0);
  for (const auto& assignment : assignments) {
    assignment.for_each_processor([&](int p) { ++bucket_end[static_cast<std::size_t>(p) + 1]; });
  }
  for (std::size_t p = 0; p < machines; ++p) bucket_end[p + 1] += bucket_end[p];
  std::vector<int> on_proc(bucket_end.back());
  {
    std::vector<std::size_t> cursor(bucket_end.begin(), bucket_end.end() - 1);
    for (int i = 0; i < instance.size(); ++i) {
      assignments[static_cast<std::size_t>(i)].for_each_processor(
          [&](int p) { on_proc[cursor[static_cast<std::size_t>(p)]++] = i; });
    }
  }
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
      if (!leq(prev.end(), next.start)) {
        report.fail("tasks " + std::to_string(prev.task) + " and " + std::to_string(next.task) +
                    " overlap on processor " + std::to_string(p));
      }
    }
  }

  if (options.makespan_bound > 0.0 && !leq(schedule.makespan(), options.makespan_bound)) {
    report.fail("makespan " + std::to_string(schedule.makespan()) + " exceeds bound " +
                std::to_string(options.makespan_bound));
  }
  return report;
}

bool is_valid_schedule(const Schedule& schedule, const Instance& instance) {
  return validate_schedule(schedule, instance).ok;
}

}  // namespace malsched
