#include "sched/processor_chains.hpp"

#include <algorithm>

namespace malsched {

namespace {

/// Chain length past which sorting switches to std::stable_sort, keeping a
/// schedule with few processors and many tasks out of insertion sort's
/// quadratic case.
constexpr std::size_t kChainInsertionLimit = 64;

/// Stable sort of one chain by start. A strict `<` keeps equal starts, and
/// -0.0 beside +0.0, in fill order, which is task order.
void sort_by_start(std::span<ChainEntry> chain) {
  if (chain.size() > kChainInsertionLimit) {
    std::stable_sort(chain.begin(), chain.end(),
                     [](const ChainEntry& a, const ChainEntry& b) { return a.start < b.start; });
    return;
  }
  for (std::size_t i = 1; i < chain.size(); ++i) {
    const ChainEntry entry = chain[i];
    std::size_t j = i;
    for (; j > 0 && entry.start < chain[j - 1].start; --j) chain[j] = chain[j - 1];
    chain[j] = entry;
  }
}

}  // namespace

ProcessorChains::ProcessorChains(const Schedule& schedule)
    : offsets_(static_cast<std::size_t>(schedule.machines()) + 1, 0) {
  const auto& assignments = schedule.assignments();
  // Count each processor's tasks one slot ahead, then prefix-sum: offsets_[p]
  // is where chain p begins.
  for (const auto& assignment : assignments) {
    const auto first = static_cast<std::size_t>(assignment.first_proc);
    const auto last = first + static_cast<std::size_t>(assignment.num_procs);
    for (std::size_t p = first; p < last; ++p) ++offsets_[p + 1];
  }
  const std::size_t machines = offsets_.size() - 1;
  for (std::size_t p = 0; p < machines; ++p) offsets_[p + 1] += offsets_[p];
  entries_.resize(offsets_[machines]);

  // Fill in task order, using offsets_[p] as chain p's cursor; afterwards
  // it holds where chain p + 1 begins, so shift the offsets back.
  for (const auto& assignment : assignments) {
    const ChainEntry entry{assignment.start, assignment.end(), assignment.task};
    const auto first = static_cast<std::size_t>(assignment.first_proc);
    const auto last = first + static_cast<std::size_t>(assignment.num_procs);
    for (std::size_t p = first; p < last; ++p) entries_[offsets_[p]++] = entry;
  }
  for (std::size_t p = machines; p > 0; --p) offsets_[p] = offsets_[p - 1];
  offsets_[0] = 0;

  for (std::size_t p = 0; p < machines; ++p) {
    sort_by_start({entries_.data() + offsets_[p], offsets_[p + 1] - offsets_[p]});
  }
}

}  // namespace malsched
