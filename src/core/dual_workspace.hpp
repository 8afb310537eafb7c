#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/canonical.hpp"
#include "core/canonical_list.hpp"
#include "core/two_shelf.hpp"
#include "model/instance.hpp"
#include "support/radix_sort.hpp"

/// Per-solve scratch state for the dual-approximation hot loop.
///
/// Every dual step of the mrt search evaluates the canonical allotment
/// gamma_i(d) of Section 2, sorts the tasks by canonical time for the
/// canonical area and the canonical list algorithm, and runs one or more
/// Theorem 3 branches. A DualWorkspace shares that work across the branches
/// of a step:
///
///   * one canonical allotment per step (cached while the deadline repeats),
///     its gamma lookups being MalleableTask::min_procs_for's, on the
///     instance's flat arrays: a sequential task is answered from the dense
///     t(1) array without reading its profile, as are the allotment's work
///     and the canonical times;
///   * one decreasing-time order per step, shared by canonical_area and the
///     canonical list algorithm: a stable radix sort of the canonical times
///     (support/radix_sort.hpp; a comparison sort below its cutoff);
///   * reusable scratch buffers (the allotment, the sort order, two-shelf
///     partitions, knapsack DP tables, list-placement buffers) so a
///     *rejected* dual step performs no heap allocation at all after warm-up
///     and an accepted one allocates only the returned Schedule.
///
/// Construction reserves the per-step buffers; it reads no task.
///
/// The workspace is the only implementation of the dual step: the one-shot
/// `const Instance&` forms of mrt_dual_step, canonical_list_schedule and
/// two_shelf_schedule build one and forward. Its canonical allotments and
/// areas match canonical_allotment() and canonical_area(const Instance&)
/// bit for bit, and the schedules of full solves are pinned by digests
/// recorded while the recompute-everything path still existed
/// (tests/test_dual_workspace.cpp, across all generator families).
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

  /// t_task(procs) without the bounds check of MalleableTask::time: t(1)
  /// from the dense t(1) array, any other count from the flat profile array.
  [[nodiscard]] double time(int task, int procs) const {
    const auto i = static_cast<std::size_t>(task);
    return procs == 1 ? seq_times_[i] : times_[offsets_[i] + static_cast<std::size_t>(procs) - 1];
  }

  /// The canonical allotment at `deadline`, computed into a reused internal
  /// buffer (cached when `deadline` repeats). Byte-identical to
  /// canonical_allotment(instance(), deadline); the reference is invalidated
  /// by the next canonical() call with a different deadline.
  [[nodiscard]] const CanonicalAllotment& canonical(double deadline);

  /// Task order by non-increasing t_i(gamma_i), ties on the lower index, for
  /// the *current* canonical allotment -- the one sort per dual step that
  /// canonical_area and the canonical list algorithm share, equal to
  /// order_by_decreasing of the canonical times. Requires a feasible
  /// canonical().
  [[nodiscard]] std::span<const int> canonical_order();

  /// t_i(gamma_i) by task index, the keys of canonical_order() and the
  /// durations the canonical list places (bit-equal to
  /// task(i).time(gamma_i)). Requires canonical_order() to have been
  /// computed for the current allotment.
  [[nodiscard]] std::span<const double> canonical_times() const {
    return {canonical_times_.data(), canonical_times_.size()};
  }

  [[nodiscard]] TwoShelfScratch& two_shelf_scratch() noexcept { return two_shelf_scratch_; }
  [[nodiscard]] CanonicalListScratch& list_scratch() noexcept { return list_scratch_; }

  /// Counter snapshot with alloc_events aggregated over all sub-scratches.
  [[nodiscard]] DualWorkspaceStats stats() const;

 private:
  const Instance* instance_;
  int machines_;
  int task_count_;

  // The instance's flat arrays (no copy): time() and the gamma lookups
  // index them without the bounds check of Instance::task.
  const double* times_;
  const std::size_t* offsets_;
  const double* seq_times_;

  // Canonical-allotment cache and the shared per-step sort.
  CanonicalAllotment canonical_;
  bool canonical_valid_{false};
  std::uint64_t generation_{0};
  std::uint64_t order_generation_{static_cast<std::uint64_t>(-1)};
  std::vector<int> order_;
  std::vector<double> canonical_times_;
  // The sort's (key, task) entries, then as many of its scratch.
  std::vector<KeyedIndex> sort_entries_;

  TwoShelfScratch two_shelf_scratch_;
  CanonicalListScratch list_scratch_;
  DualWorkspaceStats stats_;
};

}  // namespace malsched
