#include "core/mrt_scheduler.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "core/canonical.hpp"
#include "core/dual_workspace.hpp"
#include "core/malleable_list.hpp"
#include "packing/shelf.hpp"
#include "sched/compaction.hpp"
#include "sched/validate.hpp"
#include "support/math_utils.hpp"

namespace malsched {

std::string to_string(DualBranch branch) {
  switch (branch) {
    case DualBranch::kRejected:
      return "rejected";
    case DualBranch::kSingleShelf:
      return "single-shelf";
    case DualBranch::kTwoShelfKnapsack:
      return "two-shelf-knapsack";
    case DualBranch::kTwoShelfTrivial:
      return "two-shelf-trivial";
    case DualBranch::kCanonicalList:
      return "canonical-list";
    case DualBranch::kMalleableList:
      return "malleable-list";
    case DualBranch::kGap:
      return "gap";
  }
  return "unknown";
}

namespace {

/// Accepts `schedule` iff it is feasible and no longer than sqrt(3)*d
/// (after optional compaction). Every acceptance in the dual step funnels
/// through here, so no bound is ever claimed without a validated schedule.
std::optional<Schedule> accept_if_within_bound(Schedule schedule, const Instance& instance,
                                               double deadline, const MrtOptions& options) {
  if (options.use_compaction) schedule = compact_schedule(schedule, instance);
  ValidationOptions validation;
  validation.makespan_bound = kSqrt3 * deadline;
  if (!validate_schedule(schedule, instance, validation).ok) return std::nullopt;
  return schedule;
}

/// Step 2 of the dual algorithm: everything side by side at time 0.
std::optional<Schedule> single_shelf_schedule(const Instance& instance,
                                              const CanonicalAllotment& canonical) {
  ShelfAllocator shelf(instance.machines());
  Schedule schedule(instance.machines(), instance.size());
  for (int i = 0; i < instance.size(); ++i) {
    const int gamma = canonical.procs[static_cast<std::size_t>(i)];
    const auto column = shelf.allocate(gamma);
    if (!column) return std::nullopt;
    schedule.assign(i, 0.0, instance.task(i).time(gamma), *column, gamma);
  }
  return schedule;
}

}  // namespace

MrtDualOutcome mrt_dual_step(const Instance& instance, double deadline,
                             const MrtOptions& options) {
  DualWorkspace workspace(instance);
  return mrt_dual_step(workspace, deadline, options);
}

MrtDualOutcome mrt_dual_step(DualWorkspace& workspace, double deadline,
                             const MrtOptions& options) {
  const Instance& instance = workspace.instance();
  // One canonical allotment per step: the branches below re-request the same
  // deadline and hit the workspace cache instead of recomputing.
  const auto& canonical = workspace.canonical(deadline);
  MrtDualOutcome outcome;
  if (certified_infeasible(instance, canonical)) {
    outcome.branch = DualBranch::kRejected;
    outcome.certified_reject = true;
    return outcome;
  }

  outcome.canonical_area = canonical_area(workspace, canonical);
  outcome.area_condition = leq(outcome.canonical_area, area_threshold(instance, deadline));

  struct Attempt {
    DualBranch branch;
    Schedule schedule;
  };
  std::vector<Attempt> accepted;
  const auto consider = [&](DualBranch branch, std::optional<Schedule> schedule) {
    if (!schedule) return false;
    // Compaction and validation of a large schedule outlast a deadline's
    // slack, so the step probes once more before paying for them.
    options.search.cancel.poll();
    auto checked = accept_if_within_bound(std::move(*schedule), instance, deadline, options);
    if (!checked) return false;
    accepted.push_back({branch, std::move(*checked)});
    return true;
  };
  const auto done = [&] { return !accepted.empty() && !options.pick_best_branch; };

  if (canonical.total_procs <= instance.machines()) {
    consider(DualBranch::kSingleShelf, single_shelf_schedule(instance, canonical));
  }

  // Theorem 3's regime split: the list route is guaranteed for small W, the
  // knapsack route for large W. Try the guaranteed one first, fall back to
  // the other, then to the small-m malleable list algorithm.
  const auto try_two_shelf = [&] {
    if (!options.enable_two_shelf || done()) return;
    auto result = two_shelf_schedule(workspace, deadline);
    if (result.schedule) {
      const auto branch = result.used_trivial ? DualBranch::kTwoShelfTrivial
                                              : DualBranch::kTwoShelfKnapsack;
      consider(branch, std::move(result.schedule));
    }
  };
  const auto try_canonical_list = [&] {
    if (!options.enable_canonical_list || done()) return;
    auto result = canonical_list_schedule(workspace, deadline, options.canonical_list);
    consider(DualBranch::kCanonicalList, std::move(result.schedule));
  };

  if (outcome.area_condition) {
    try_canonical_list();
    try_two_shelf();
  } else {
    try_two_shelf();
    try_canonical_list();
  }
  if (options.enable_malleable_list && !done()) {
    consider(DualBranch::kMalleableList, malleable_list_schedule(instance, deadline));
  }

  if (accepted.empty()) {
    outcome.branch = DualBranch::kGap;
    return outcome;
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < accepted.size(); ++i) {
    if (accepted[i].schedule.makespan() < accepted[best].schedule.makespan()) best = i;
  }
  outcome.branch = accepted[best].branch;
  outcome.schedule = std::move(accepted[best].schedule);
  return outcome;
}

MrtResult mrt_schedule(const Instance& instance, const MrtOptions& options) {
  std::array<int, kDualBranchCount> branch_counts{};
  DualWorkspace workspace(instance);
  const DualStep step = [&](double guess) {
    auto outcome = mrt_dual_step(workspace, guess, options);
    ++branch_counts[static_cast<std::size_t>(outcome.branch)];
    DualStepResult result;
    result.schedule = std::move(outcome.schedule);
    result.certified_reject = outcome.certified_reject;
    return result;
  };

  auto search = dual_search(instance, step, options.search);
  const auto stats = workspace.stats();
  return MrtResult{std::move(search.schedule),
                   search.makespan,
                   search.certified_lower_bound,
                   search.ratio,
                   search.final_guess,
                   search.iterations,
                   search.gaps,
                   branch_counts,
                   stats.alloc_events,
                   stats.canonical_evals};
}

}  // namespace malsched
