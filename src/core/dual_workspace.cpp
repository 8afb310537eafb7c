#include "core/dual_workspace.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace malsched {

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
    const auto gamma = instance_->task(i).min_procs_for(deadline);
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
  // order_by_decreasing (the reference canonical_area sorts with) is a
  // std::stable_sort on the decreasing-time key, ties keeping the lower
  // index first. std::sort with the explicit index tie-break yields that
  // exact permutation without stable_sort's internal temporary buffer,
  // keeping the step allocation-free.
  std::sort(order_.begin(), order_.end(), [&](int a, int b) {
    const double ta = canonical_times_[static_cast<std::size_t>(a)];
    const double tb = canonical_times_[static_cast<std::size_t>(b)];
    if (ta != tb) return ta > tb;
    return a < b;
  });
  order_generation_ = generation_;
  return {order_.data(), order_.size()};
}

DualWorkspaceStats DualWorkspace::stats() const {
  DualWorkspaceStats out = stats_;
  out.alloc_events += two_shelf_scratch_.alloc_events + two_shelf_scratch_.knapsack.alloc_events +
                      list_scratch_.alloc_events;
  return out;
}

}  // namespace malsched
