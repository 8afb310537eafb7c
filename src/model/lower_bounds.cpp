#include "model/lower_bounds.hpp"

#include <algorithm>

namespace malsched {

double area_lower_bound(const Instance& instance) {
  return instance.total_sequential_work() / static_cast<double>(instance.machines());
}

double critical_path_lower_bound(const Instance& instance) {
  // t_i(m) of every task, read off the flat profile array: every profile
  // covers at least m processor counts.
  const auto times = instance.times();
  const auto offsets = instance.offsets();
  const auto last = static_cast<std::size_t>(instance.machines()) - 1;
  double bound = 0.0;
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    bound = std::max(bound, times[offsets[i] + last]);
  }
  return bound;
}

double makespan_lower_bound(const Instance& instance) {
  return std::max(area_lower_bound(instance), critical_path_lower_bound(instance));
}

}  // namespace malsched
