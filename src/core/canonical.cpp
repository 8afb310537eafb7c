#include "core/canonical.hpp"

#include <span>
#include <vector>

#include "core/dual_workspace.hpp"
#include "sched/list_scheduler.hpp"
#include "support/math_utils.hpp"

namespace malsched {

CanonicalAllotment canonical_allotment(const Instance& instance, double deadline) {
  CanonicalAllotment result;
  result.deadline = deadline;
  result.feasible = true;
  result.procs.reserve(static_cast<std::size_t>(instance.size()));
  for (int i = 0; i < instance.size(); ++i) {
    const MalleableTask task = instance.task(i);
    const auto gamma = task.min_procs_for(deadline);
    if (!gamma || *gamma > instance.machines()) {
      result.feasible = false;
      result.procs.clear();
      result.total_work = 0.0;
      result.total_procs = 0;
      return result;
    }
    result.procs.push_back(*gamma);
    result.total_work += task.work(*gamma);
    result.total_procs += *gamma;
  }
  return result;
}

bool certified_infeasible(const Instance& instance, const CanonicalAllotment& allotment) {
  if (!allotment.feasible) return true;
  const double budget = static_cast<double>(instance.machines()) * allotment.deadline;
  return !leq(allotment.total_work, budget);
}

bool property1_holds(const MalleableTask& task, int gamma, double deadline) {
  if (gamma < 2) return true;
  const double bound =
      static_cast<double>(gamma - 1) / static_cast<double>(gamma) * deadline;
  return task.time(gamma) > bound - kAbsEps;
}

namespace {

/// Definition 1's stacking sum, shared by both canonical_area overloads:
/// `times[i]` must equal t_i(procs[i]) and `order` must list the tasks by
/// non-increasing time with ties on the lower index (order_by_decreasing's
/// order), or the fractional cut lands on the wrong task.
double stacked_area(std::span<const int> order, std::span<const int> procs,
                    std::span<const double> times, int machines) {
  double area = 0.0;
  long long procs_used = 0;
  for (const int i : order) {
    const int gamma = procs[static_cast<std::size_t>(i)];
    const double time = times[static_cast<std::size_t>(i)];
    if (procs_used + gamma >= machines) {
      // Task k of Definition 1: only the slice up to processor m counts.
      area += static_cast<double>(machines - procs_used) * time;
      return area;
    }
    area += static_cast<double>(gamma) * time;
    procs_used += gamma;
  }
  return area;  // stacking never filled the first m processors
}

}  // namespace

double canonical_area(const Instance& instance, const CanonicalAllotment& allotment) {
  if (!allotment.feasible) return 0.0;

  // The reference order: the list scheduler's stable sort on decreasing
  // time (ties keep the lower task index first), which the workspace
  // reproduces with its radix kernel (support/radix_sort.hpp).
  std::vector<double> times(static_cast<std::size_t>(instance.size()));
  for (int i = 0; i < instance.size(); ++i) {
    times[static_cast<std::size_t>(i)] =
        instance.task(i).time(allotment.procs[static_cast<std::size_t>(i)]);
  }
  return stacked_area(order_by_decreasing(times), allotment.procs, times, instance.machines());
}

double canonical_area(DualWorkspace& workspace, const CanonicalAllotment& allotment) {
  if (!allotment.feasible) return 0.0;
  const auto order = workspace.canonical_order();
  return stacked_area(order, allotment.procs, workspace.canonical_times(),
                      workspace.instance().machines());
}

double area_threshold(const Instance& instance, double deadline) {
  return kMu * static_cast<double>(instance.machines()) * deadline;
}

}  // namespace malsched
