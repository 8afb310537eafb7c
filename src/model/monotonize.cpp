#include "model/monotonize.hpp"

#include <algorithm>
#include <stdexcept>

#include "model/malleable_task.hpp"

namespace malsched {

std::vector<double> monotonize(std::vector<double> times) {
  if (times.empty()) throw std::invalid_argument("monotonize: empty profile");
  for (const double t : times) {
    if (!(t > 0.0)) throw std::invalid_argument("monotonize: non-positive time");
  }
  // Pass 1: ignore surplus processors -> running minimum.
  for (std::size_t p = 1; p < times.size(); ++p) times[p] = std::min(times[p], times[p - 1]);
  // Pass 2: forbid super-linear speedup -> work must not decrease.
  for (std::size_t p = 1; p < times.size(); ++p) {
    const double work_prev = static_cast<double>(p) * times[p - 1];
    const double min_time = work_prev / static_cast<double>(p + 1);
    times[p] = std::max(times[p], min_time);
  }
  return times;
}

bool is_monotonic_profile(std::span<const double> times) {
  return !MalleableTask::validate(times).has_value();
}

}  // namespace malsched
