#include "model/malleable_task.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/math_utils.hpp"

namespace malsched {

namespace {

// Monotonicity is checked with a small relative slack so that profiles
// produced by floating-point formulas (e.g. Amdahl curves) are not rejected
// for last-bit noise.
bool non_increasing(double previous, double current) noexcept {
  return current <= previous * (1.0 + kRelEps) + kAbsEps;
}

}  // namespace

std::optional<std::string> MalleableTask::check_profile(std::span<const double> times,
                                                        double* stored) {
  if (times.empty()) return "profile is empty";
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (!(times[i] > 0.0) || !std::isfinite(times[i])) {
      return "t(" + std::to_string(i + 1) + ") is not a positive finite number";
    }
  }
  double previous = times[0];
  double running_min = previous;
  for (std::size_t p = 1; p < times.size(); ++p) {
    const double current = times[p];
    if (!non_increasing(previous, current)) {
      return "t(p) increases at p=" + std::to_string(p + 1);
    }
    const double work_prev = static_cast<double>(p) * previous;
    const double work_cur = static_cast<double>(p + 1) * current;
    if (!non_increasing(work_cur, work_prev)) {  // i.e. work_prev <= work_cur required
      return "work p*t(p) decreases at p=" + std::to_string(p + 1) +
             " (super-linear speedup violates monotonicity)";
    }
    running_min = std::min(running_min, current);
    if (stored != nullptr) stored[p] = running_min;
    previous = current;
  }
  return std::nullopt;
}

std::optional<std::string> MalleableTask::validate(std::span<const double> times) {
  return check_profile(times, nullptr);
}

void MalleableTask::throw_bad_procs(int procs) const {
  throw std::out_of_range("MalleableTask::time: procs=" + std::to_string(procs) +
                          " outside [1, " + std::to_string(max_procs()) + "]");
}

std::optional<int> MalleableTask::parallel_procs_for(std::span<const double> profile,
                                                     double deadline) {
  // t is non-increasing, so the feasible processor counts form a suffix;
  // binary search the first p in [2, m] with t(p) <= deadline.
  if (!leq(profile.back(), deadline)) return std::nullopt;
  int lo = 2;
  auto hi = static_cast<int>(profile.size());
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (leq(profile[static_cast<std::size_t>(mid) - 1], deadline)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace malsched
