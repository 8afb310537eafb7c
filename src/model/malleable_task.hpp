#pragma once

#include <optional>
#include <string>
#include <vector>

#include "support/math_utils.hpp"

/// The malleable-task model of Section 2 of the paper.
namespace malsched {

/// A computational unit that may run on any number p of processors, with an
/// execution time t(p) fixed for the whole (non-preemptive) run.
///
/// The paper's *monotonic* assumption (Section 2.1) is enforced at
/// construction:
///   * t(p) is non-increasing in p      -- more processors never hurt, and
///   * w(p) = p * t(p) is non-decreasing -- no super-linear speedup
///     (Brent's lemma; the parallel overhead only grows with p).
///
/// Both are checked with the library's relative slack (kRelEps), so a
/// profile may rise by that much per step and still be accepted; the task
/// stores the running minimum of the given times, which makes the stored t
/// exactly non-increasing. Profiles that already are come out unchanged.
///
/// Processor counts are 1-based: `time(1)` is the sequential time and
/// `time(max_procs())` the fully parallel one.
class MalleableTask {
 public:
  /// Builds a task from `times[p-1] = t(p)`; throws std::invalid_argument if
  /// the profile is empty, non-positive, or violates monotonicity. Stores
  /// t(p) as min(times[0..p-1]), in the validation pass.
  explicit MalleableTask(std::vector<double> times, std::string name = {});

  /// Validates a raw profile; returns a diagnostic instead of throwing.
  /// std::nullopt means the profile is a valid monotonic task.
  [[nodiscard]] static std::optional<std::string> validate(const std::vector<double>& times);

  /// Execution time on p processors (1 <= p <= max_procs()).
  [[nodiscard]] double time(int procs) const;

  /// Computational area (work) w(p) = p * t(p).
  [[nodiscard]] double work(int procs) const;

  /// Sequential execution time t(1), kept in the task itself: the dual
  /// step reads it for every sequential task (the gamma = 1 test, canonical
  /// times, validation) without touching the profile.
  [[nodiscard]] double seq_time() const noexcept { return seq_time_; }

  /// Largest processor count the profile is defined for.
  [[nodiscard]] int max_procs() const { return static_cast<int>(times_.size()); }

  /// Speedup t(1) / t(p).
  [[nodiscard]] double speedup(int procs) const { return seq_time() / time(procs); }

  /// Efficiency speedup(p) / p, in (0, 1] under monotonicity.
  [[nodiscard]] double efficiency(int procs) const {
    return speedup(procs) / static_cast<double>(procs);
  }

  /// Smallest p with t(p) <= deadline (under the library tolerance), or
  /// std::nullopt when even max_procs() processors cannot meet it. This is
  /// the *canonical number of processors* of the paper when deadline is the
  /// dual guess. t(1) is tested first, inline and from seq_time(), so a
  /// sequential answer reads no profile; otherwise t(m), then a binary
  /// search of [2, m].
  [[nodiscard]] std::optional<int> min_procs_for(double deadline) const {
    if (leq(seq_time_, deadline)) return 1;
    return parallel_procs_for(deadline);
  }

  /// Optional human-readable label (used by the Gantt renderer).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Full time profile, index p-1 -> t(p).
  [[nodiscard]] const std::vector<double>& profile() const noexcept { return times_; }

 private:
  /// min_procs_for past t(1): t(m), then the binary search of [2, m].
  [[nodiscard]] std::optional<int> parallel_procs_for(double deadline) const;

  double seq_time_{0.0};  ///< times_.front(), next to the profile pointer
  std::vector<double> times_;
  std::string name_;
};

}  // namespace malsched
