#pragma once

#include <optional>

#include "model/instance.hpp"
#include "sched/schedule.hpp"

/// Extension: a 3/2-style two-shelf dual step in the spirit of the paper's
/// successor work (Mounie, Rapine & Trystram later tightened sqrt(3) to
/// 3/2 + eps with shelves of length d and d/2).
///
/// This implementation keeps the knapsack skeleton: choose which tasks run
/// in the long shelf (deadline d, canonical allotment) so as to minimize
/// total work -- equivalently, a max-knapsack on the work saved -- then
/// place the rest in the short shelf (deadline d/2). It accepts only when
/// both shelves fit and the schedule validates at 3/2*d; it deliberately
/// omits the successor paper's transformation rules, so unlike the core
/// sqrt(3) algorithm it is *heuristic*: its dual step may fail on instances
/// with OPT <= d. mrt-style search with this step reports honest measured
/// ratios (bench_paper's EXP-T5 compares them).
namespace malsched {

struct ThreeHalvesOutcome {
  std::optional<Schedule> schedule;  ///< length <= 1.5*d when present
  bool certified_reject{false};
};

/// One dual step at `deadline`.
[[nodiscard]] ThreeHalvesOutcome three_halves_dual_step(const Instance& instance,
                                                        double deadline);

/// Full solve: dichotomic search with the 3/2 step, falling back to the
/// paper's malleable list step so the search always terminates.
struct ThreeHalvesResult {
  Schedule schedule;
  double makespan;
  double lower_bound;
  double ratio;
};
[[nodiscard]] ThreeHalvesResult three_halves_schedule(const Instance& instance,
                                                      double epsilon = 0.01);

}  // namespace malsched
