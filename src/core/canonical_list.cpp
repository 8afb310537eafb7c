#include "core/canonical_list.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/canonical.hpp"
#include "core/dual_workspace.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/sliding.hpp"
#include "support/math_utils.hpp"

namespace malsched {

int kstar(double mu) {
  if (!(mu > 0.5) || !(mu < 1.0)) {
    throw std::invalid_argument("kstar: mu must lie in (1/2, 1)");
  }
  // Largest k with k/(k+1) strictly below mu; walk down from a safe upper
  // bound so borderline ratios (e.g. mu = 0.8, k = 4) are not admitted
  // through floating-point noise in mu/(1-mu).
  auto k = static_cast<int>(mu / (1.0 - mu)) + 1;
  while (k > 1 &&
         !(static_cast<double>(k) / static_cast<double>(k + 1) < mu - 1e-12)) {
    --k;
  }
  return k;
}

int reallocation_width(double mu) { return (kstar(mu) + 2) / 2; }

namespace {

/// Leftmost window of `width` processors that are all still idle at time 0,
/// or -1 when none exists.
int find_idle_window(const std::vector<double>& avail, int width) {
  int run = 0;
  for (int j = 0; j < static_cast<int>(avail.size()); ++j) {
    run = avail[static_cast<std::size_t>(j)] == 0.0 ? run + 1 : 0;
    if (run >= width) return j - width + 1;
  }
  return -1;
}

/// List scheduling with the appendix's one-shot reallocation: the first
/// task forced off the first level may instead be squeezed, narrower, onto
/// processors still idle at time 0. All working storage is the workspace's
/// scratch, so a warmed-up step runs allocation-free.
Schedule reallocation_schedule(const Instance& instance, std::span<const int> allotment,
                               std::span<const int> order, int khat, bool& reallocated,
                               CanonicalListScratch& scratch, const CancelCheck& cancel) {
  const int machines = instance.machines();
  Schedule schedule(machines, instance.size());
  auto& avail = scratch.avail;
  detail::resize_counted(avail, static_cast<std::size_t>(machines), scratch.alloc_events);
  std::fill(avail.begin(), avail.end(), 0.0);
  detail::resize_counted(scratch.window, avail.size(), scratch.alloc_events);
  bool reallocation_considered = false;
  reallocated = false;

  for (const int task : order) {
    cancel.tick();
    const int procs = allotment[static_cast<std::size_t>(task)];
    const double duration = instance.task(task).time(procs);

    const auto windows = window_maxima(avail, procs, scratch.window);
    const double earliest = windows.earliest;
    const bool starts_at_zero = approx_eq(earliest, 0.0);

    if (!starts_at_zero && !reallocation_considered) {
      reallocation_considered = true;  // the rule applies only to the first such task
      const int width = std::min(procs, khat);
      const int idle =
          static_cast<int>(std::count(avail.begin(), avail.end(), 0.0));
      const int column = find_idle_window(avail, width);
      if (idle >= khat && column >= 0) {
        // Work monotonicity bounds the squeezed time by (procs/width)*t(procs)
        // <= 2*t(procs) since width >= ceil(procs/2) whenever procs <= k*+1.
        const double squeezed = instance.task(task).time(width);
        schedule.assign(task, 0.0, squeezed, column, width);
        for (int j = column; j < column + width; ++j) {
          avail[static_cast<std::size_t>(j)] = squeezed;
        }
        reallocated = true;
        continue;
      }
    }

    // Paper tie rule: leftmost window when starting at 0, rightmost after.
    const int column = tied_window(windows, starts_at_zero);
    schedule.assign(task, earliest, duration, column, procs);
    for (int j = column; j < column + procs; ++j) {
      avail[static_cast<std::size_t>(j)] = earliest + duration;
    }
  }
  return schedule;
}

}  // namespace

CanonicalListOutcome canonical_list_schedule(const Instance& instance, double deadline,
                                             const CanonicalListOptions& options) {
  DualWorkspace workspace(instance);
  return canonical_list_schedule(workspace, deadline, options);
}

CanonicalListOutcome canonical_list_schedule(DualWorkspace& workspace, double deadline,
                                             const CanonicalListOptions& options) {
  const Instance& instance = workspace.instance();
  CanonicalListOutcome outcome;
  const auto& canonical = workspace.canonical(deadline);
  if (certified_infeasible(instance, canonical)) return outcome;

  outcome.canonical_area = canonical_area(workspace, canonical);
  outcome.area_condition =
      leq(outcome.canonical_area, options.mu * static_cast<double>(instance.machines()) *
                                      deadline);

  // Decreasing t_i(gamma_i), ties on the lower index: computed at most once
  // per dual step and shared with canonical_area.
  const auto order = workspace.canonical_order();
  const auto& allotment = canonical.procs;

  if (!options.use_reallocation) {
    outcome.schedule = list_schedule(instance, allotment, order);
    return outcome;
  }

  outcome.schedule = reallocation_schedule(instance, allotment, order,
                                           reallocation_width(options.mu), outcome.reallocated,
                                           workspace.list_scratch(), options.cancel);
  return outcome;
}

}  // namespace malsched
