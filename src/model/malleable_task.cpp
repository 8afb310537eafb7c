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

/// The validation pass of validate() and the constructor. `times` is
/// checked as given; when `stored` is non-null, stored[p] receives the
/// running minimum of times[0..p] in the same pass. `stored` may alias
/// `times`: each step reads times[p] before it writes stored[p] and keeps
/// times[p-1] itself.
std::optional<std::string> check_profile(const std::vector<double>& times, double* stored) {
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

}  // namespace

std::optional<std::string> MalleableTask::validate(const std::vector<double>& times) {
  return check_profile(times, nullptr);
}

MalleableTask::MalleableTask(std::vector<double> times, std::string name)
    : times_(std::move(times)), name_(std::move(name)) {
  // The slack above admits a profile that creeps upwards by up to kRelEps
  // per step; storing its running minimum makes the stored t exactly
  // non-increasing, which min_procs_for's search and the lower bounds'
  // use of t(m) rely on.
  if (const auto problem = check_profile(times_, times_.data())) {
    throw std::invalid_argument("MalleableTask: " + *problem +
                                (name_.empty() ? std::string{} : " (task " + name_ + ")"));
  }
  seq_time_ = times_.front();
}

double MalleableTask::time(int procs) const {
  if (procs < 1 || procs > max_procs()) {
    throw std::out_of_range("MalleableTask::time: procs=" + std::to_string(procs) +
                            " outside [1, " + std::to_string(max_procs()) + "]");
  }
  return times_[static_cast<std::size_t>(procs) - 1];
}

double MalleableTask::work(int procs) const { return static_cast<double>(procs) * time(procs); }

std::optional<int> MalleableTask::parallel_procs_for(double deadline) const {
  // t is non-increasing, so the feasible processor counts form a suffix;
  // binary search the first p in [2, m] with t(p) <= deadline.
  if (!leq(times_.back(), deadline)) return std::nullopt;
  int lo = 2;
  int hi = max_procs();
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (leq(times_[static_cast<std::size_t>(mid) - 1], deadline)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace malsched
