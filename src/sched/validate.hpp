#pragma once

#include <string>
#include <vector>

#include "model/instance.hpp"
#include "sched/schedule.hpp"

/// The single source of truth for schedule feasibility.
///
/// Every algorithm in this library validates its output before claiming a
/// bound; a schedule is never reported without passing these checks.
namespace malsched {

struct ValidationReport {
  bool ok{true};
  std::vector<std::string> errors;

  void fail(std::string message) {
    ok = false;
    errors.push_back(std::move(message));
  }

  /// All errors joined by newlines (empty when ok).
  [[nodiscard]] std::string str() const;
};

struct ValidationOptions {
  /// Reject schedules longer than this bound (<= 0 disables the check).
  double makespan_bound{0.0};
};

/// Checks that `schedule` is a complete, feasible schedule of `instance`:
///   * every task placed; Schedule::assign admits nothing but an interval
///     of >= 1 processors inside the machine, once per task, so neither
///     contiguity nor processor bounds need a check here,
///   * recorded duration equals t_i(procs) from the instance's flat profile
///     array (t(1) from its dense t(1) array),
///   * no two tasks share a processor at the same time: adjacent pairs of
///     every processor chain (sched/processor_chains.hpp), the same chains
///     compaction propagates along,
///   * the makespan bound when one is set.
[[nodiscard]] ValidationReport validate_schedule(const Schedule& schedule,
                                                 const Instance& instance,
                                                 const ValidationOptions& options = {});

}  // namespace malsched
