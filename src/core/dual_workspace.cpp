#include "core/dual_workspace.hpp"

#include <stdexcept>

namespace malsched {

DualWorkspace::DualWorkspace(const Instance& instance)
    : instance_(&instance),
      machines_(instance.machines()),
      task_count_(instance.size()),
      times_(instance.times().data()),
      offsets_(instance.offsets().data()),
      seq_times_(instance.seq_times().data()) {
  const auto n = static_cast<std::size_t>(task_count_);
  canonical_.procs.reserve(n);
  order_.reserve(n);
  canonical_times_.reserve(n);
  sort_entries_.reserve(2 * n);
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
  // lookups, same accumulation order) so the totals match bit for bit. The
  // totals accumulate in locals, which the push_back cannot alias.
  canonical_.deadline = deadline;
  canonical_.procs.clear();
  double total_work = 0.0;
  long long total_procs = 0;
  for (int i = 0; i < task_count_; ++i) {
    const auto task = static_cast<std::size_t>(i);
    const auto gamma =
        leq(seq_times_[task], deadline)
            ? std::optional<int>(1)
            : MalleableTask::parallel_procs_for(
                  {times_ + offsets_[task], offsets_[task + 1] - offsets_[task]}, deadline);
    if (!gamma || *gamma > machines_) {
      canonical_.feasible = false;
      canonical_.procs.clear();
      canonical_.total_work = 0.0;
      canonical_.total_procs = 0;
      return canonical_;
    }
    canonical_.procs.push_back(*gamma);
    total_work += static_cast<double>(*gamma) * time(i, *gamma);
    total_procs += *gamma;
  }
  canonical_.feasible = true;
  canonical_.total_work = total_work;
  canonical_.total_procs = total_procs;
  return canonical_;
}

std::span<const int> DualWorkspace::canonical_order() {
  if (!canonical_valid_ || !canonical_.feasible) {
    throw std::logic_error("DualWorkspace::canonical_order: no feasible canonical allotment");
  }
  if (order_generation_ == generation_) return {order_.data(), order_.size()};

  const auto n = static_cast<std::size_t>(task_count_);
  detail::resize_counted(canonical_times_, n, stats_.alloc_events);
  detail::resize_counted(sort_entries_, 2 * n, stats_.alloc_events);
  const std::span<KeyedIndex> entries(sort_entries_.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    canonical_times_[i] = time(static_cast<int>(i), canonical_.procs[i]);
    entries[i] = {descending_key(canonical_times_[i]), static_cast<int>(i)};
  }
  // Decreasing time, ties keeping the lower index first: the permutation
  // order_by_decreasing's stable sort (the reference canonical_area uses)
  // gives, from the kernel's stable sort of the entries in index order.
  sort_by_key(entries, {sort_entries_.data() + n, n});
  detail::resize_counted(order_, n, stats_.alloc_events);
  for (std::size_t i = 0; i < n; ++i) order_[i] = entries[i].index;
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
