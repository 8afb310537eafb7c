#pragma once

#include <vector>

/// Schedule representation shared by every algorithm in the library.
///
/// The paper searches for non-preemptive schedules whose processor
/// assignments are *contiguous* (processors allotted to a task have
/// consecutive indices, limiting intra-task communication overhead). A
/// placement is therefore an interval of processors, and an interval is the
/// only placement a Schedule can record.
namespace malsched {

/// Placement of one task: 32 trivially copyable bytes, so the dual step's
/// schedules are one flat array. The task runs on processors first_proc ..
/// first_proc + num_procs - 1.
struct Assignment {
  double start{0.0};     ///< start time (>= 0)
  double duration{0.0};  ///< must equal t_task(procs()) for the instance
  int task{-1};          ///< index into the instance's task list
  int first_proc{0};     ///< first processor of the interval
  int num_procs{0};      ///< interval length

  [[nodiscard]] int procs() const noexcept { return num_procs; }
  [[nodiscard]] double end() const noexcept { return start + duration; }
};

/// A (possibly partial) schedule on `machines` processors for `num_tasks`
/// tasks.
class Schedule {
 public:
  Schedule(int machines, int num_tasks);

  /// Records a placement on processors first_proc .. first_proc + num_procs
  /// - 1; throws std::logic_error if the task was already assigned, indices
  /// are out of range, the start is negative or NaN, or the duration is not
  /// positive.
  void assign(int task, double start, double duration, int first_proc, int num_procs);

  [[nodiscard]] bool is_assigned(int task) const;
  [[nodiscard]] const Assignment& of(int task) const;

  /// True when every task has a placement.
  [[nodiscard]] bool complete() const noexcept { return assigned_count_ == num_tasks_; }

  /// Latest completion time over assigned tasks (0 when empty).
  [[nodiscard]] double makespan() const noexcept;

  [[nodiscard]] int machines() const noexcept { return machines_; }
  [[nodiscard]] int num_tasks() const noexcept { return num_tasks_; }

  /// All placements, indexed by task; unassigned entries have task == -1
  /// and an empty interval (num_procs == 0).
  [[nodiscard]] const std::vector<Assignment>& assignments() const noexcept {
    return assignments_;
  }

 private:
  int machines_;
  int num_tasks_;
  int assigned_count_{0};
  std::vector<Assignment> assignments_;
};

}  // namespace malsched
