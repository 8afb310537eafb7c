#include "core/dual_approx.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "model/lower_bounds.hpp"

namespace malsched {

namespace {

/// The phase-1 ramp seed: the static lower bound when positive, otherwise
/// the smallest profile time (and 1.0 for an empty instance). The guard
/// matters because a zero seed can never escape the `hi *= 2` ramp -- a
/// degenerate empty instance with a picky step used to burn the whole
/// iteration budget at guess 0 and throw.
double dual_ramp_start(const Instance& instance, double static_lb) {
  if (static_lb > 0.0) return static_lb;
  double smallest = std::numeric_limits<double>::infinity();
  for (const auto& task : instance.tasks()) {
    for (const double t : task.profile()) smallest = std::min(smallest, t);
  }
  return std::isfinite(smallest) ? smallest : 1.0;
}

}  // namespace

DualSearchResult dual_search(const Instance& instance, const DualStep& step,
                             const DualSearchOptions& options) {
  if (!(options.epsilon > 0.0)) {
    throw std::invalid_argument("dual_search: epsilon must be positive");
  }
  const double static_lb = makespan_lower_bound(instance);

  double certified_lb = static_lb;
  int iterations = 0;
  int gaps = 0;
  double final_guess = 0.0;

  std::optional<Schedule> best;
  double best_makespan = 0.0;
  const auto record_accept = [&](Schedule schedule) {
    const double makespan = schedule.makespan();
    if (!best || makespan < best_makespan) {
      best = std::move(schedule);
      best_makespan = makespan;
    }
  };
  const auto record_reject = [&](double guess, bool certified) {
    if (certified) {
      certified_lb = std::max(certified_lb, guess);
    } else {
      ++gaps;
    }
  };

  // Phase 1: ramp the guess up from the static lower bound until accepted.
  // dual_ramp_start guards the degenerate zero-bound case (empty instance),
  // where `hi *= 2.0` could never escape 0.0; for every non-degenerate
  // instance it equals static_lb, leaving the guess sequence untouched.
  double lo = static_lb;
  double hi = dual_ramp_start(instance, static_lb);
  bool have_hi = false;
  while (iterations < options.max_iterations && !have_hi) {
    options.cancel.poll();
    ++iterations;
    auto outcome = step(hi);
    if (outcome.schedule) {
      record_accept(std::move(*outcome.schedule));
      have_hi = true;
      final_guess = hi;
    } else {
      record_reject(hi, outcome.certified_reject);
      lo = hi;
      hi *= 2.0;
    }
  }
  if (!have_hi) {
    throw std::runtime_error("dual_search: no guess accepted within the iteration budget");
  }

  // Phase 2: geometric bisection of [lo, hi]; hi always carries an accepted
  // schedule, lo sits below every accepted guess seen so far.
  while (iterations < options.max_iterations && hi > lo * (1.0 + options.epsilon)) {
    options.cancel.poll();
    ++iterations;
    const double mid = std::sqrt(lo * hi);
    auto outcome = step(mid);
    if (outcome.schedule) {
      record_accept(std::move(*outcome.schedule));
      hi = mid;
      final_guess = mid;
    } else {
      record_reject(mid, outcome.certified_reject);
      lo = mid;
    }
  }

  const double ratio = certified_lb > 0.0 ? best_makespan / certified_lb : 1.0;
  return DualSearchResult{std::move(*best), best_makespan, certified_lb,
                          ratio,            final_guess,   iterations,
                          gaps};
}

}  // namespace malsched
