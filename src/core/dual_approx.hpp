#pragma once

#include <functional>
#include <optional>

#include "model/instance.hpp"
#include "sched/schedule.hpp"
#include "support/cancellation.hpp"

/// The dual-approximation framework of Hochbaum & Shmoys used in Section 2.2.
///
/// A rho-dual approximation, given a guess d, either returns a schedule of
/// length at most rho*d or certifies that no schedule of length d exists.
/// Dichotomic search over d converts it into a rho*(1+eps)-approximation.
///
/// This driver is deliberately defensive about *soundness*: a rejection only
/// tightens the reported lower bound when it carries a certificate
/// (Property 2). An uncertified rejection -- a "gap", which the paper's
/// theorems rule out but a reconstruction bug could introduce -- still
/// steers the search, yet is counted separately and never inflates the
/// certified bound, so the reported ratio stays honest.
namespace malsched {

/// Outcome of one dual step at guess d.
struct DualStepResult {
  /// Accepted schedule (feasible, length <= rho*d); empty means rejection.
  std::optional<Schedule> schedule;
  /// True when the rejection carries an OPT > d certificate.
  bool certified_reject{false};
};

/// A dual algorithm: guess -> accept-or-reject.
using DualStep = std::function<DualStepResult(double guess)>;

/// Hard cap on dual steps per search (exponential ramp-up + bisection).
inline constexpr int kMaxDualSteps = 200;

struct DualSearchOptions {
  /// Terminate when hi <= (1+epsilon) * lo.
  double epsilon{0.01};
  /// Cooperative cancellation/deadline probe, polled once per dual step
  /// (each step is expensive, so no striding). Unarmed by default: the
  /// search then behaves byte-identically to a check-free build.
  CancelCheck cancel;
};

struct DualSearchResult {
  Schedule schedule;                  ///< best accepted schedule
  double makespan;                    ///< its measured length
  double certified_lower_bound;       ///< max of static LB and certified rejections
  double ratio;                       ///< makespan / certified_lower_bound
  double final_guess;                 ///< smallest accepted guess
  int iterations;
  int gaps;                           ///< uncertified rejections encountered
};

/// Runs exponential ramp-up from the static lower bound followed by
/// geometric bisection -- the library's one dual-search loop (mrt and
/// two_shelves_32 both drive it). The guesses ignore where the canonical
/// allotment changes: the first guess is accepted outright on many
/// instances, and steering by breakpoints measured slower on the
/// benchmark's mixed pools. `step` must accept for every sufficiently large
/// guess (all algorithms in this library do: at d = sum of sequential times
/// a trivial schedule fits); throws std::runtime_error if no guess is
/// accepted within kMaxDualSteps.
[[nodiscard]] DualSearchResult dual_search(const Instance& instance, const DualStep& step,
                                           const DualSearchOptions& options = {});

}  // namespace malsched
