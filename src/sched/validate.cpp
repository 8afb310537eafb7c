#include "sched/validate.hpp"

#include <sstream>

#include "sched/processor_chains.hpp"
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
  const auto seq_times = instance.seq_times();
  const auto times = instance.times();
  const auto offsets = instance.offsets();
  for (int i = 0; i < instance.size(); ++i) {
    const auto& assignment = assignments[static_cast<std::size_t>(i)];
    if (assignment.task == -1) {
      report.fail("task " + std::to_string(i) + " is not scheduled");
      continue;
    }
    // Schedule::assign records only intervals inside its machine, whose
    // processor count matches the instance's: procs lies in [1, m], which
    // every profile covers. A one-processor placement, most of a list
    // schedule's, reads t(1) from the dense t(1) array rather than from its
    // profile.
    const int procs = assignment.procs();
    const auto task = static_cast<std::size_t>(i);
    const double expected = procs == 1 ? seq_times[task]
                                       : times[offsets[task] + static_cast<std::size_t>(procs) - 1];
    if (!approx_eq(assignment.duration, expected)) {
      report.fail("task " + std::to_string(i) + ": recorded duration " +
                  std::to_string(assignment.duration) + " != t(" + std::to_string(procs) +
                  ") = " + std::to_string(expected));
    }
    if (assignment.start < -kAbsEps) {
      report.fail("task " + std::to_string(i) + ": negative start time");
    }
  }
  if (!report.ok) return report;

  // Pairwise overlap: two tasks sharing a processor must be time-disjoint.
  // Each processor's chain lists its tasks by start, so checking adjacent
  // pairs suffices.
  const ProcessorChains chains(schedule);
  for (int p = 0; p < instance.machines(); ++p) {
    const auto chain = chains.chain(p);
    for (std::size_t k = 1; k < chain.size(); ++k) {
      if (!leq(chain[k - 1].end, chain[k].start)) {
        report.fail("tasks " + std::to_string(chain[k - 1].task) + " and " +
                    std::to_string(chain[k].task) + " overlap on processor " + std::to_string(p));
      }
    }
  }

  if (options.makespan_bound > 0.0 && !leq(schedule.makespan(), options.makespan_bound)) {
    report.fail("makespan " + std::to_string(schedule.makespan()) + " exceeds bound " +
                std::to_string(options.makespan_bound));
  }
  return report;
}

}  // namespace malsched
