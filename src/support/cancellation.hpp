#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>

/// Cooperative cancellation and deadlines for long-running solves.
///
/// Three pieces:
///
///  * **CancelToken** -- a shared advisory flag. Copies share one
///    underlying atomic, so a caller hands a token into a running
///    solve and fires it from another thread.
///  * **CancelCheck** -- the per-solve probe the hot loops actually carry: a
///    borrowed token pointer plus an absolute steady-clock deadline, checked
///    every kStrideMask+1 tick()s so the common (unarmed or not-yet-fired)
///    case costs one branch and one increment -- no allocation, no lock, no
///    clock read. An UNARMED check (no token, no deadline -- the default)
///    never fires, which is what keeps results byte-identical for
///    undisturbed requests.
///  * **CancelledError / DeadlineExceededError** -- the typed exceptions a
///    firing poll() throws; classify_solve_exception (registry/request.hpp) maps
///    them to SolveErrorCode::kCancelled / kDeadlineExceeded so the error
///    taxonomy is exact across the registry, service, and sharded tiers.
///
/// Deadlines are ABSOLUTE steady-clock seconds (steady_now_seconds()), never
/// wall-clock: a solve must not be killed by an NTP step, and bench runs
/// must stay comparable (same rule as support/stopwatch.hpp).
namespace malsched {

/// Cooperative cancellation flag; copies share one underlying flag, so a
/// caller can hand a token to a running solve and cancel from another
/// thread. The shared flag is atomic -- no mutex to annotate; relaxed
/// ordering suffices because cancellation is advisory (a late read only
/// delays the stop by one check stride, it can never corrupt state).
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() noexcept { flag_->store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Thrown by CancelCheck::poll() when the token fired.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("solve cancelled by caller") {}
};

/// Thrown by CancelCheck::poll() when the deadline passed.
class DeadlineExceededError : public std::runtime_error {
 public:
  DeadlineExceededError() : std::runtime_error("solve deadline exceeded") {}
};

/// Steady-clock "now" in seconds -- the time base every deadline in this
/// header uses. Same clock as support/stopwatch.hpp (static-asserted steady
/// there), read directly because a deadline is a point in time, not an
/// interval.
[[nodiscard]] inline double steady_now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The tighter of two absolute deadlines, where 0 means "none".
[[nodiscard]] inline double merge_deadlines(double a, double b) {
  if (a <= 0.0) return b > 0.0 ? b : 0.0;
  if (b <= 0.0) return a;
  return a < b ? a : b;
}

/// Converts a relative budget (seconds from now) into an absolute
/// steady-clock deadline; non-positive budgets mean "none" (returns 0).
[[nodiscard]] inline double budget_deadline(double budget_seconds) {
  return budget_seconds > 0.0 ? steady_now_seconds() + budget_seconds : 0.0;
}

/// The probe a hot loop carries by value. tick() is the per-iteration call:
/// it strides the expensive poll() so a tight loop (knapsack nodes,
/// placement steps) pays one increment + one mask per iteration. poll() is
/// the immediate check, for loops whose iterations are already expensive
/// (dual steps). Both are const so the check threads through const option
/// structs; the stride counter is mutable state with no observable effect on
/// results -- only on WHEN a cancellation lands, which is advisory anyway.
class CancelCheck {
 public:
  /// Checked every kStrideMask + 1 tick()s.
  static constexpr unsigned kStrideMask = 255;

  CancelCheck() = default;
  CancelCheck(const CancelToken* token, double deadline_seconds)
      : token_(token), deadline_(deadline_seconds) {}

  /// True when this check can ever fire; unarmed checks make tick()/poll()
  /// near-free, preserving byte-identical results for undisturbed requests.
  [[nodiscard]] bool armed() const noexcept {
    return token_ != nullptr || deadline_ > 0.0;
  }

  /// Strided probe for tight loops: every 256th call forwards to poll().
  void tick() const {
    if (armed() && (++count_ & kStrideMask) == 0) poll();
  }

  /// Immediate probe: throws CancelledError if the token fired,
  /// DeadlineExceededError if the deadline passed; no-op when unarmed.
  void poll() const {
    if (token_ != nullptr && token_->cancelled()) throw CancelledError{};
    if (deadline_ > 0.0 && steady_now_seconds() >= deadline_) {
      throw DeadlineExceededError{};
    }
  }

 private:
  const CancelToken* token_{nullptr};  ///< borrowed; must outlive the solve
  double deadline_{0.0};               ///< absolute steady seconds; 0 = none
  mutable unsigned count_{0};          ///< tick() stride state (advisory)
};

}  // namespace malsched
