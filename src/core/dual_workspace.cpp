#include "core/dual_workspace.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "model/lower_bounds.hpp"
#include "support/math_utils.hpp"

namespace malsched {

namespace {

/// Deadline threshold of one profile entry: leq(a, .) is monotone
/// non-decreasing on [0, inf) (its right side d + kRelEps*max(a, d, 1) +
/// kAbsEps is), so the accepting deadlines form a half-line starting near
/// d* = a - kRelEps*max(a, 1) - kAbsEps (at the boundary d is within an ulp
/// of a, so the comparison scale max(a, d, 1) resolves to max(a, 1)). Exact
/// up to a few ulps of float rounding -- ample for the snap domain, which
/// only steers guesses that are then evaluated with the real predicates.
inline double leq_threshold(double a) {
  const double c = a >= 1.0 ? a * (1.0 - kRelEps) - kAbsEps : a - kRelEps - kAbsEps;
  return c > 0.0 ? c : 0.0;
}

}  // namespace

DualWorkspace::DualWorkspace(const Instance& instance)
    : instance_(&instance),
      machines_(instance.machines()),
      task_count_(instance.size()) {
  const auto n = static_cast<std::size_t>(task_count_);
  profile_ptr_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    profile_ptr_[i] = instance.task(static_cast<int>(i)).profile().data();
  }
  canonical_.procs.reserve(n);
  order_.reserve(n);
  canonical_times_.reserve(n);
}

const CanonicalAllotment& DualWorkspace::canonical(double deadline) {
  if (canonical_valid_ && canonical_.deadline == deadline) {
    ++stats_.canonical_hits;
    return canonical_;
  }
  ++stats_.canonical_evals;
  ++generation_;
  canonical_valid_ = true;

  // Mirrors canonical_allotment(instance, deadline) term for term (same
  // lookups, same accumulation order) so the totals match bit for bit.
  canonical_.deadline = deadline;
  canonical_.feasible = true;
  canonical_.procs.clear();
  canonical_.total_work = 0.0;
  canonical_.total_procs = 0;
  for (int i = 0; i < task_count_; ++i) {
    const auto gamma = min_procs_for(i, deadline);
    if (!gamma || *gamma > machines_) {
      canonical_.feasible = false;
      canonical_.procs.clear();
      canonical_.total_work = 0.0;
      canonical_.total_procs = 0;
      return canonical_;
    }
    canonical_.procs.push_back(*gamma);
    canonical_.total_work += static_cast<double>(*gamma) * time(i, *gamma);
    canonical_.total_procs += *gamma;
  }
  return canonical_;
}

std::span<const int> DualWorkspace::canonical_order() {
  if (!canonical_valid_ || !canonical_.feasible) {
    throw std::logic_error("DualWorkspace::canonical_order: no feasible canonical allotment");
  }
  if (order_generation_ == generation_) return {order_.data(), order_.size()};

  const auto n = static_cast<std::size_t>(task_count_);
  detail::resize_counted(canonical_times_, n, stats_.alloc_events);
  for (std::size_t i = 0; i < n; ++i) {
    canonical_times_[i] = time(static_cast<int>(i), canonical_.procs[i]);
  }
  detail::resize_counted(order_, n, stats_.alloc_events);
  std::iota(order_.begin(), order_.end(), 0);
  // The legacy paths use std::stable_sort on the decreasing-time key (ties
  // keep the lower index first). std::sort with the explicit index
  // tie-break yields that exact permutation without stable_sort's internal
  // temporary buffer, keeping the step allocation-free.
  std::sort(order_.begin(), order_.end(), [&](int a, int b) {
    const double ta = canonical_times_[static_cast<std::size_t>(a)];
    const double tb = canonical_times_[static_cast<std::size_t>(b)];
    if (ta != tb) return ta > tb;
    return a < b;
  });
  order_generation_ = generation_;
  return {order_.data(), order_.size()};
}

std::span<const double> DualWorkspace::merged_breakpoints() {
  if (merged_built_) return {merged_.data(), merged_.size()};
  merged_built_ = true;

  // Snap domain for the breakpoint-bisecting search. It is a *navigation
  // grid*, not a correctness surface (every probe re-evaluates the real
  // predicates), so it is capped: past the cap each task contributes an
  // evenly strided sample of its segment starts, keeping the one-time sort
  // O(cap log cap) instead of O(n*m log(n*m)) on 10k-task instances.
  constexpr std::size_t kSnapDomainCap = 8192;
  std::size_t total = 0;
  for (const auto& task : instance_->tasks()) total += task.profile().size();
  const std::size_t stride =
      total <= kSnapDomainCap ? 1 : (total + kSnapDomainCap - 1) / kSnapDomainCap;
  merged_.clear();
  merged_.reserve(total / stride + static_cast<std::size_t>(task_count_));
  std::vector<double> thresholds;
  for (const auto& task : instance_->tasks()) {
    const auto& times = task.profile();
    const std::size_t length = times.size();
    thresholds.resize(length);
    bool strictly_decreasing = true;
    for (std::size_t k = 0; k < length; ++k) {
      thresholds[k] = leq_threshold(times[k]);
      strictly_decreasing = strictly_decreasing && (k == 0 || thresholds[k] < thresholds[k - 1]);
    }
    if (strictly_decreasing) {
      // gamma_i changes at every entry's threshold.
      for (std::size_t k = 0; k < length; k += stride) merged_.push_back(thresholds[k]);
      continue;
    }
    // Plateaus or tolerance-level wiggles: gamma_i changes only at distinct
    // thresholds, and not below the last entry's, where no allotment exists.
    const double feasible_from = thresholds[length - 1];
    std::sort(thresholds.begin(), thresholds.end());
    thresholds.erase(std::unique(thresholds.begin(), thresholds.end()), thresholds.end());
    const auto first = std::lower_bound(thresholds.begin(), thresholds.end(), feasible_from);
    for (auto j = static_cast<std::size_t>(first - thresholds.begin()); j < thresholds.size();
         j += stride) {
      merged_.push_back(thresholds[j]);
    }
  }
  std::sort(merged_.begin(), merged_.end());
  merged_.erase(std::unique(merged_.begin(), merged_.end()), merged_.end());
  return {merged_.data(), merged_.size()};
}

double DualWorkspace::first_plausible_deadline() {
  if (first_plausible_ >= 0.0) return first_plausible_;
  const auto domain = merged_breakpoints();
  if (domain.empty()) {
    first_plausible_ = 0.0;
    return first_plausible_;
  }
  // Property-2 feasibility is monotone in d (the canonical allotment only
  // shrinks while the m*d budget grows), so bisect the snap domain with the
  // *real* predicate -- O(log |domain|) canonical evaluations. Certificates
  // callers claim from points below the result are genuine Property-2
  // evaluations, not extrapolations.
  const auto rejected = [&](double d) {
    return certified_infeasible(*instance_, canonical(d));
  };
  std::size_t lo = 0;
  std::size_t hi = domain.size() - 1;
  if (rejected(domain[hi])) {
    // Even the largest breakpoint is rejected. Past it the allotment is
    // constant, so the Property-2 crossing sits near total_work / m.
    const auto& last = canonical(domain[hi]);
    first_plausible_ =
        last.feasible
            ? std::max(domain[hi], last.total_work / static_cast<double>(machines_))
            : domain[hi];
    return first_plausible_;
  }
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (rejected(domain[mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  first_plausible_ = domain[lo];
  return first_plausible_;
}

DualWorkspaceStats DualWorkspace::stats() const {
  DualWorkspaceStats out = stats_;
  out.alloc_events += two_shelf_scratch_.alloc_events + two_shelf_scratch_.knapsack.alloc_events +
                      list_scratch_.alloc_events;
  return out;
}

// ------------------------------------------------------------ snapped search

DualSearchResult dual_search_snapped(DualWorkspace& workspace, const DualStep& step,
                                     const DualSearchOptions& options) {
  if (!(options.epsilon > 0.0)) {
    throw std::invalid_argument("dual_search_snapped: epsilon must be positive");
  }
  const Instance& instance = workspace.instance();
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

  // Phase 1: start at the analytically smallest deadline Property 2 cannot
  // reject instead of ramping through certain rejections. The analytic value
  // only steers; before it may tighten the certified bound, the real
  // predicate is evaluated at a breakpoint just below it (soundness: a bound
  // moves only on an actual Property-2 certificate).
  const auto breakpoints = workspace.merged_breakpoints();
  double lo = static_lb;
  double hi = std::max(dual_ramp_start(instance), workspace.first_plausible_deadline());
  {
    const auto below = std::lower_bound(breakpoints.begin(), breakpoints.end(), hi);
    if (below != breakpoints.begin()) {
      const double probe = *std::prev(below);
      if (probe > lo &&
          certified_infeasible(instance, workspace.canonical(probe))) {
        certified_lb = std::max(certified_lb, probe);
        lo = probe;
      }
    }
  }
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
    throw std::runtime_error(
        "dual_search_snapped: no guess accepted within the iteration budget");
  }

  // Phase 2: bisect the breakpoint *indices* inside (lo, hi) -- each probe
  // halves the number of candidate allotment changes in the bracket -- and
  // finish geometrically once the bracket is breakpoint-free.
  while (iterations < options.max_iterations && hi > lo * (1.0 + options.epsilon)) {
    options.cancel.poll();
    ++iterations;
    const auto first = std::upper_bound(breakpoints.begin(), breakpoints.end(), lo);
    const auto last = std::lower_bound(first, breakpoints.end(), hi);
    double mid;
    if (first != last) {
      mid = *(first + (last - first) / 2);
    } else {
      mid = std::sqrt(lo * hi);
      if (!(mid > lo) || !(mid < hi)) mid = lo + (hi - lo) / 2.0;
    }
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
