#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "support/math_utils.hpp"

/// The malleable-task model of Section 2 of the paper.
namespace malsched {

class Instance;

/// A computational unit that may run on any number p of processors, with an
/// execution time t(p) fixed for the whole (non-preemptive) run.
///
/// The paper's *monotonic* assumption (Section 2.1) is enforced when a task
/// enters an Instance (Instance::add_task, which checks validate()):
///   * t(p) is non-increasing in p      -- more processors never hurt, and
///   * w(p) = p * t(p) is non-decreasing -- no super-linear speedup
///     (Brent's lemma; the parallel overhead only grows with p).
///
/// Both are checked with the library's relative slack (kRelEps), so a
/// profile may rise by that much per step and still be accepted; the
/// instance stores the running minimum of the given times, which makes the
/// stored t exactly non-increasing. Profiles that already are come out
/// unchanged.
///
/// A MalleableTask is a read-only view into its Instance's flat arrays
/// (Instance::task returns it by value): its profile and name stay valid
/// while the instance lives and is not appended to.
///
/// Processor counts are 1-based: `time(1)` is the sequential time and
/// `time(max_procs())` the fully parallel one.
class MalleableTask {
 public:
  /// Validates a raw profile `times[p-1] = t(p)`; returns a diagnostic
  /// instead of throwing. std::nullopt means the profile is a valid
  /// monotonic task: non-empty, positive, finite and monotonic.
  [[nodiscard]] static std::optional<std::string> validate(std::span<const double> times);

  /// Execution time on p processors (1 <= p <= max_procs()); throws
  /// std::out_of_range otherwise.
  [[nodiscard]] double time(int procs) const {
    if (procs < 1 || procs > max_procs()) throw_bad_procs(procs);
    return times_[static_cast<std::size_t>(procs) - 1];
  }

  /// Computational area (work) w(p) = p * t(p).
  [[nodiscard]] double work(int procs) const { return static_cast<double>(procs) * time(procs); }

  /// Sequential execution time t(1), read from the instance's dense t(1)
  /// array: the dual step reads it for every sequential task (the gamma = 1
  /// test, canonical times, validation) without touching the profile.
  [[nodiscard]] double seq_time() const noexcept { return seq_time_; }

  /// Largest processor count the profile is defined for.
  [[nodiscard]] int max_procs() const noexcept { return static_cast<int>(times_.size()); }

  /// Speedup t(1) / t(p).
  [[nodiscard]] double speedup(int procs) const { return seq_time() / time(procs); }

  /// Smallest p with t(p) <= deadline (under the library tolerance), or
  /// std::nullopt when even max_procs() processors cannot meet it. This is
  /// the *canonical number of processors* of the paper when deadline is the
  /// dual guess. t(1) is tested first, inline and from seq_time(), so a
  /// sequential answer reads no profile; otherwise parallel_procs_for.
  [[nodiscard]] std::optional<int> min_procs_for(double deadline) const {
    if (leq(seq_time_, deadline)) return 1;
    return parallel_procs_for(times_, deadline);
  }

  /// Optional human-readable label (used by the Gantt renderer).
  [[nodiscard]] std::string_view name() const noexcept { return name_; }

  /// Full stored time profile, index p-1 -> t(p).
  [[nodiscard]] std::span<const double> profile() const noexcept { return times_; }

  /// min_procs_for past t(1), on a stored profile: t(m) first, then a binary
  /// search of [2, m]. DualWorkspace calls it on the instance's arrays.
  [[nodiscard]] static std::optional<int> parallel_procs_for(std::span<const double> profile,
                                                             double deadline);

 private:
  friend class Instance;
  MalleableTask(double seq_time, std::span<const double> times, std::string_view name) noexcept
      : seq_time_(seq_time), times_(times), name_(name) {}

  [[noreturn]] void throw_bad_procs(int procs) const;

  /// The validation pass of validate() and Instance::add_task. `times` is
  /// checked as given; when `stored` is non-null, stored[p] receives the
  /// running minimum of times[0..p] in the same pass. `stored` may alias
  /// `times`: each step reads times[p] before it writes stored[p] and keeps
  /// times[p-1] itself.
  static std::optional<std::string> check_profile(std::span<const double> times, double* stored);

  double seq_time_;
  std::span<const double> times_;
  std::string_view name_;
};

}  // namespace malsched
