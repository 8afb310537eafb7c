#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "model/malleable_task.hpp"

/// A scheduling problem instance: n independent monotonic malleable tasks to
/// be run on m identical processors (the paper's Section 2 setting).
namespace malsched {

/// The table of times t_i(p), stored flat in CSR (compressed sparse row)
/// form: one array holds every task's stored profile back to back, with n + 1
/// offsets into it; a dense array holds every t_i(1); one arena holds every
/// task name, with its own n + 1 offsets. task(i) returns a MalleableTask
/// view into those arrays, and hot loops (DualWorkspace, validation, the
/// lower bounds) index them directly. A copy is five allocations whatever n
/// is, and content equality is two offset compares and two memcmps.
///
/// Tasks enter only through add_task, which validates each profile as it
/// copies it into the arrays; nothing else mutates an instance.
class Instance {
 public:
  /// An instance with no tasks on `machines` identical processors; throws
  /// std::invalid_argument when machines < 1.
  explicit Instance(int machines);

  /// Reserves room for `tasks` more tasks with m-entry profiles, so an
  /// instance of known size fills each array without regrowing it.
  void reserve(int tasks);

  /// Appends a task with profile `times[p-1] = t(p)`, stored as the running
  /// minimum of the given times (see MalleableTask). Throws
  /// std::invalid_argument, leaving the instance unchanged, when the profile
  /// fails MalleableTask::validate or covers fewer than m processor counts.
  /// `times` must not point into this instance.
  void add_task(std::span<const double> times, std::string_view name = {});

  /// Number of identical processors m.
  [[nodiscard]] int machines() const noexcept { return machines_; }

  /// Number of tasks n.
  [[nodiscard]] int size() const noexcept { return static_cast<int>(seq_times_.size()); }

  /// Task by index (0-based), as a view into the arrays; throws
  /// std::out_of_range outside [0, n).
  [[nodiscard]] MalleableTask task(int index) const {
    if (index < 0 || index >= size()) throw_bad_index(index);
    const auto i = static_cast<std::size_t>(index);
    return MalleableTask(
        seq_times_[i], {times_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]},
        {names_.data() + name_offsets_[i], name_offsets_[i + 1] - name_offsets_[i]});
  }

  /// Every stored profile back to back: task i's is
  /// times()[offsets()[i] .. offsets()[i + 1]).
  [[nodiscard]] std::span<const double> times() const noexcept { return times_; }
  [[nodiscard]] std::span<const std::size_t> offsets() const noexcept { return offsets_; }

  /// t_i(1) by task index, dense.
  [[nodiscard]] std::span<const double> seq_times() const noexcept { return seq_times_; }

  /// Sum of sequential works (the minimal possible total work under
  /// monotonicity since w(p) is non-decreasing in p).
  [[nodiscard]] double total_sequential_work() const;

  /// Content equality: same m, same task boundaries, and every stored time
  /// (bit for bit) and name byte equal.
  friend bool operator==(const Instance& a, const Instance& b) noexcept;

 private:
  [[noreturn]] void throw_bad_index(int index) const;

  int machines_;
  std::vector<double> times_;
  std::vector<std::size_t> offsets_{0};
  std::vector<double> seq_times_;
  std::string names_;
  std::vector<std::size_t> name_offsets_{0};
};

}  // namespace malsched
