#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sched/schedule.hpp"

/// The processor-chain index that validation and compaction share.
///
/// A processor's chain is the list of tasks placed on it, ordered by start
/// time. validate_schedule checks each chain's adjacent pairs for overlap;
/// compact_schedule slides every task to the latest end of its
/// predecessors on its chains. All chains live in one CSR array: a counting
/// pass by processor sizes them, a second pass fills them in task order,
/// then each chain is sorted by start with a stable insertion sort, so equal
/// starts (-0.0 and +0.0 included) keep the lower task first. Chains hold
/// about n/m entries on list schedules, few enough for insertion sort; a
/// long chain (past 64 entries) takes std::stable_sort, which gives the
/// same order.
namespace malsched {

/// One task's stay on one processor.
struct ChainEntry {
  double start;
  double end;  ///< start + duration, as Assignment::end()
  int task;
};

class ProcessorChains {
 public:
  /// Indexes every assigned task of `schedule`.
  explicit ProcessorChains(const Schedule& schedule);

  /// Processor p's tasks by increasing start, equal starts keeping the
  /// lower task first.
  [[nodiscard]] std::span<const ChainEntry> chain(int p) const noexcept {
    const auto i = static_cast<std::size_t>(p);
    return {entries_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  /// Every chain, back to back: chain p is entries()[offsets()[p] ..
  /// offsets()[p + 1]).
  [[nodiscard]] std::span<const ChainEntry> entries() const noexcept { return entries_; }
  [[nodiscard]] std::span<const std::size_t> offsets() const noexcept { return offsets_; }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<ChainEntry> entries_;
};

}  // namespace malsched
