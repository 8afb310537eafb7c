#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/canonical.hpp"
#include "core/canonical_list.hpp"
#include "core/dual_approx.hpp"
#include "core/two_shelf.hpp"
#include "model/instance.hpp"

/// Per-solve scratch state for the dual-approximation hot loop.
///
/// Every dual step of the mrt search evaluates the canonical allotment
/// gamma_i(d) of Section 2, sorts the tasks by canonical time for the
/// canonical area and the canonical list algorithm, and runs one or more
/// Theorem 3 branches. A DualWorkspace shares that work across the branches
/// of a step:
///
///   * one canonical allotment per step (cached while the deadline repeats),
///     its gamma lookups being MalleableTask::min_procs_for itself;
///   * one decreasing-time sort per step, shared by canonical_area and the
///     canonical list algorithm;
///   * reusable scratch buffers (the allotment, the sort order, two-shelf
///     partitions, knapsack DP tables, list-placement buffers) so a
///     *rejected* dual step performs no heap allocation at all after warm-up
///     and an accepted one allocates only the returned Schedule.
///
/// Construction is O(n) (profile pointers and reserved buffers); the opt-in
/// snapped search (snap=1) builds its breakpoint domain on first use
/// (merged_breakpoints()).
///
/// Everything the workspace computes is byte-identical to the naive
/// recomputation: canonical allotments, areas, and every schedule derived
/// from them match the workspace=0 path bit for bit
/// (tests/test_dual_workspace.cpp enforces this across all generator
/// families).
///
/// A workspace is single-threaded mutable scratch: create one per solve (the
/// mrt scheduler does) and never share it across threads. The referenced
/// Instance must outlive the workspace.
namespace malsched {

/// Running counters behind the workspace's "allocation-free after warm-up"
/// claim; exported per solve through MrtResult and the bench artifact.
struct DualWorkspaceStats {
  long long canonical_evals{0};  ///< canonical allotments actually computed
  long long canonical_hits{0};   ///< served from the same-deadline cache
  long long alloc_events{0};     ///< scratch buffer growths (incl. sub-scratches)
};

namespace detail {

/// Resizes `vec`, counting an allocation event when capacity had to grow --
/// every workspace scratch buffer is resized through this so the
/// allocation-free claim stays auditable.
template <class Vec>
void resize_counted(Vec& vec, std::size_t size, long long& alloc_events) {
  if (vec.capacity() < size) ++alloc_events;
  vec.resize(size);
}

}  // namespace detail

class DualWorkspace {
 public:
  explicit DualWorkspace(const Instance& instance);

  DualWorkspace(const DualWorkspace&) = delete;
  DualWorkspace& operator=(const DualWorkspace&) = delete;

  [[nodiscard]] const Instance& instance() const noexcept { return *instance_; }

  /// gamma lookup: instance().task(task).min_procs_for(deadline).
  [[nodiscard]] std::optional<int> min_procs_for(int task, double deadline) const {
    return instance_->task(task).min_procs_for(deadline);
  }

  /// t_task(procs), read straight from the task's profile.
  [[nodiscard]] double time(int task, int procs) const {
    return profile_ptr_[static_cast<std::size_t>(task)][procs - 1];
  }

  /// The canonical allotment at `deadline`, computed into a reused internal
  /// buffer (cached when `deadline` repeats). Byte-identical to
  /// canonical_allotment(instance(), deadline); the reference is invalidated
  /// by the next canonical() call with a different deadline.
  [[nodiscard]] const CanonicalAllotment& canonical(double deadline);

  /// Task order by non-increasing t_i(gamma_i) for the *current* canonical
  /// allotment -- the one sort per dual step that canonical_area and the
  /// canonical list algorithm share. Requires a feasible canonical().
  [[nodiscard]] std::span<const int> canonical_order();

  /// t_i(gamma_i) keys matching canonical_order(). Requires canonical_order()
  /// to have been computed for the current allotment.
  [[nodiscard]] std::span<const double> canonical_times() const {
    return {canonical_times_.data(), canonical_times_.size()};
  }

  /// Merged strictly-increasing snap domain of task-profile breakpoints (the
  /// deadlines where some gamma_i changes); built from the profiles on first
  /// use and capped by an even per-task sample on very large instances -- it
  /// only steers the snapped search, every probe re-evaluates real
  /// predicates.
  [[nodiscard]] std::span<const double> merged_breakpoints();

  /// Smallest snap-domain breakpoint that Property 2 does not certify as
  /// infeasible (canonical allotment fits m processors, canonical work fits
  /// m*d), found by bisecting merged_breakpoints() with the *real*
  /// certificate predicate -- so points below it that were probed are
  /// genuinely certified rejections.
  [[nodiscard]] double first_plausible_deadline();

  [[nodiscard]] TwoShelfScratch& two_shelf_scratch() noexcept { return two_shelf_scratch_; }
  [[nodiscard]] CanonicalListScratch& list_scratch() noexcept { return list_scratch_; }

  /// Counter snapshot with alloc_events aggregated over all sub-scratches.
  [[nodiscard]] DualWorkspaceStats stats() const;

 private:
  const Instance* instance_;
  int machines_;
  int task_count_;

  // Task i's profile data inside the instance (no copy): time() reads it
  // without the bounds check of MalleableTask::time.
  std::vector<const double*> profile_ptr_;

  // Canonical-allotment cache and the shared per-step sort.
  CanonicalAllotment canonical_;
  bool canonical_valid_{false};
  std::uint64_t generation_{0};
  std::uint64_t order_generation_{static_cast<std::uint64_t>(-1)};
  std::vector<int> order_;
  std::vector<double> canonical_times_;

  // Lazily built snap domain + Property-2 prefilter (-1 = not yet computed).
  bool merged_built_{false};
  std::vector<double> merged_;
  double first_plausible_{-1.0};

  TwoShelfScratch two_shelf_scratch_;
  CanonicalListScratch list_scratch_;
  DualWorkspaceStats stats_;
};

/// Breakpoint-snapped dual search: same contract as dual_search (and the
/// same soundness discipline -- only certificates evaluated with the real
/// Property-2 predicate ever tighten the reported lower bound), but the
/// guesses are steered by the workspace's breakpoint domain instead of blind
/// geometric ramping: phase 1 starts at the analytically smallest
/// non-certified deadline (skipping every provably rejected guess), and
/// phase 2 bisects the merged breakpoint *indices* inside the bracket before
/// finishing geometrically. Schedules differ from dual_search only through
/// the different guess sequence; the certified bound stays sound and the
/// final bracket still satisfies hi <= (1+epsilon)*lo.
[[nodiscard]] DualSearchResult dual_search_snapped(DualWorkspace& workspace,
                                                   const DualStep& step,
                                                   const DualSearchOptions& options = {});

}  // namespace malsched
