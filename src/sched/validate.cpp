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
    const int procs = assignment.procs();
    if (procs < 1 || procs > instance.machines()) {
      report.fail("task " + std::to_string(i) + ": processor count " + std::to_string(procs) +
                  " outside [1, m]");
      continue;
    }
    if (options.require_contiguous && !assignment.contiguous()) {
      report.fail("task " + std::to_string(i) + ": scattered placement where contiguity required");
    }
    // A one-processor placement, most of a list schedule's, reads t(1) from
    // the dense t(1) array rather than from its profile; procs <= m, which
    // every profile covers.
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
    // Contiguous placements need no materialized processor list: the
    // interval endpoints carry the same information.
    const auto scattered = schedule.scattered(assignment);
    const int first = assignment.contiguous() ? assignment.first_proc : scattered.front();
    const int last = assignment.contiguous() ? assignment.first_proc + assignment.num_procs - 1
                                             : scattered.back();
    if (first < 0 || last >= instance.machines()) {
      report.fail("task " + std::to_string(i) + ": processor index outside the machine");
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

bool is_valid_schedule(const Schedule& schedule, const Instance& instance) {
  return validate_schedule(schedule, instance).ok;
}

}  // namespace malsched
