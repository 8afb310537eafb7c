#pragma once

#include <span>
#include <vector>

/// Schedule representation shared by every algorithm in the library.
///
/// The paper searches for non-preemptive schedules whose processor
/// assignments are *contiguous* (processors allotted to a task have
/// consecutive indices, limiting intra-task communication overhead).
/// Assignments are therefore stored as intervals; a scattered-processor
/// variant is supported for the non-contiguous baselines and flagged by the
/// validator.
namespace malsched {

/// Placement of one task: 32 trivially copyable bytes, so the dual step's
/// schedules are one flat array. A scattered placement keeps its processor
/// set in its Schedule's table (Schedule::scattered), reached through
/// `slot`; the set's size and smallest processor sit in num_procs and
/// first_proc, so procs() reads the same field for both forms.
struct Assignment {
  /// `slot` of a contiguous placement.
  static constexpr int kContiguous = -1;

  double start{0.0};     ///< start time (>= 0)
  double duration{0.0};  ///< must equal t_task(procs()) for the instance
  int task{-1};          ///< index into the instance's task list
  int first_proc{0};     ///< first processor of the interval (a scattered set's smallest)
  int num_procs{0};      ///< interval length (a scattered set's size)
  int slot{kContiguous};  ///< offset of a scattered set in its Schedule's table

  [[nodiscard]] bool contiguous() const noexcept { return slot == kContiguous; }
  [[nodiscard]] int procs() const noexcept { return num_procs; }
  [[nodiscard]] double end() const noexcept { return start + duration; }
};

/// A (possibly partial) schedule on `machines` processors for `num_tasks`
/// tasks.
class Schedule {
 public:
  Schedule(int machines, int num_tasks);

  /// Records a contiguous placement; throws std::logic_error if the task was
  /// already assigned, indices are out of range, the start is negative or
  /// NaN, or the duration is not positive.
  void assign(int task, double start, double duration, int first_proc, int num_procs);

  /// Records a scattered placement (non-contiguous baselines); the set is
  /// stored sorted.
  void assign_scattered(int task, double start, double duration, std::vector<int> processors);

  [[nodiscard]] bool is_assigned(int task) const;
  [[nodiscard]] const Assignment& of(int task) const;

  /// True when every task has a placement.
  [[nodiscard]] bool complete() const noexcept { return assigned_count_ == num_tasks_; }

  /// Latest completion time over assigned tasks (0 when empty).
  [[nodiscard]] double makespan() const noexcept;

  [[nodiscard]] int machines() const noexcept { return machines_; }
  [[nodiscard]] int num_tasks() const noexcept { return num_tasks_; }

  /// All placements, indexed by task; unassigned entries have task == -1.
  [[nodiscard]] const std::vector<Assignment>& assignments() const noexcept {
    return assignments_;
  }

  /// The sorted processor set of a scattered placement of this schedule;
  /// empty for a contiguous one.
  [[nodiscard]] std::span<const int> scattered(const Assignment& assignment) const noexcept {
    if (assignment.contiguous()) return {};
    return {scattered_procs_.data() + assignment.slot,
            static_cast<std::size_t>(assignment.num_procs)};
  }

  /// Materializes the processor indices of one of this schedule's
  /// placements (contiguous or scattered), in increasing order.
  [[nodiscard]] std::vector<int> processor_list(const Assignment& assignment) const;

  /// Visits every processor of one of this schedule's placements, in
  /// increasing order, without materializing a list: the allocation-free
  /// traversal the processor chains (sched/processor_chains.hpp) use. Keeps
  /// the contiguous-vs-scattered representation knowledge in one place.
  template <class Visitor>
  void for_each_processor(const Assignment& assignment, Visitor&& visit) const {
    if (assignment.contiguous()) {
      const int end = assignment.first_proc + assignment.num_procs;
      for (int p = assignment.first_proc; p < end; ++p) visit(p);
    } else {
      for (const int p : scattered(assignment)) visit(p);
    }
  }

 private:
  void check_common(int task, double start, double duration) const;

  int machines_;
  int num_tasks_;
  int assigned_count_{0};
  std::vector<Assignment> assignments_;
  // Every scattered placement's sorted set, back to back; Assignment::slot
  // is a set's offset.
  std::vector<int> scattered_procs_;
};

}  // namespace malsched
