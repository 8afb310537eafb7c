#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "registry/request.hpp"
#include "registry/solver_options.hpp"
#include "registry/solver_registry.hpp"
#include "registry/solver_result.hpp"
#include "model/instance_handle.hpp"
#include "support/cancellation.hpp"

/// Deterministic parallel batch execution -- the serving-scale layer over the
/// SolverRegistry facade.
///
/// A production queue daemon faces many independent instances at once (queue
/// snapshots, per-tenant workloads, sweep experiments); solving them serially
/// wastes every core but one. BatchRunner fans a vector of jobs out across a
/// fixed pool of workers with these guarantees:
///
///  * **Stable ordering** -- `report.items[i]` always corresponds to
///    `jobs[i]`, no matter which worker finished first. Combined with the
///    solvers being deterministic functions of (instance, options), a batch
///    run produces byte-identical results on 1, 2, or 64 threads.
///  * **No work stealing** -- workers draw contiguous index blocks from one
///    shared atomic counter (support/parallel_for); there are no per-worker
///    deques whose steal order could differ between runs. Dispatch order is
///    the job order.
///  * **Error isolation** -- one throwing solve marks only its own item as
///    failed (message preserved); every other job still runs, unless
///    `stop_on_error` asked for the remainder to be cancelled.
///  * **Cancellation** -- a CancelToken shared with the caller (or another
///    thread) skips every job that has not started yet; running solves finish.
///
/// Thread-safety contract with the registry (audited in
/// registry/solver_registry.hpp): concurrent `solve()` calls on a registry that is
/// no longer being mutated are safe, which is exactly how BatchRunner uses
/// it. The registry must outlive the runner.
namespace malsched {

/// Outcome of one job, at the same index as the job that produced it.
struct BatchItem {
  std::size_t index{0};
  SolveStatus status{SolveStatus::kCancelled};
  std::optional<SolverResult> result;  ///< engaged iff status == kOk
  /// Typed error (registry/request.hpp), shared with SolveOutcome; code != kNone
  /// iff status != kOk. `error.detail` holds the message text the pre-v2.1
  /// string field carried.
  SolveError error;
};

// CancelToken lived here until the deadline work promoted it to
// support/cancellation.hpp (included above), where CancelCheck and the typed
// cancellation errors join it; run()'s contract is unchanged.

struct BatchRunnerOptions {
  /// Worker threads; 0 means hardware_concurrency. More workers than jobs
  /// (or than cores -- oversubscription) is allowed and changes nothing but
  /// the wall time.
  unsigned threads{0};
  /// When true, the first failing job cancels every job not yet started
  /// (their items report kCancelled). Uses a run-local flag: a token passed
  /// to run() is read, never fired, so error-stopping one batch cannot leak
  /// a cancellation into other work sharing that token.
  bool stop_on_error{false};
};

/// What a batch run returns: per-job items in job order plus run-level
/// wall time and tallies.
struct BatchReport {
  std::vector<BatchItem> items;  ///< items[i] is the outcome of jobs[i]
  double wall_seconds{0.0};      ///< whole-run wall time (steady clock)
  unsigned threads{0};           ///< workers actually used
  std::size_t ok{0};
  std::size_t errors{0};
  std::size_t cancelled{0};

  [[nodiscard]] bool all_ok() const noexcept { return errors == 0 && cancelled == 0; }

  /// Sums every solver counter (iterations, branch.*, ...) over the
  /// successful items, in key order -- the run-level branch statistics.
  [[nodiscard]] std::vector<std::pair<std::string, double>> aggregate_stats() const;
};

class BatchRunner {
 public:
  /// Binds the runner to a registry (default: the global one). The registry
  /// must outlive the runner and must not be mutated while run() executes.
  explicit BatchRunner(const SolverRegistry& registry = SolverRegistry::global(),
                       BatchRunnerOptions options = {});

  /// A temporary registry would dangle before run(); keep it in a variable.
  explicit BatchRunner(SolverRegistry&& registry, BatchRunnerOptions options = {}) = delete;

  /// API v2 entry point: fans the requests out; report.items[i] is the
  /// outcome of requests[i]. Throws std::invalid_argument if any request
  /// carries an empty InstanceHandle (checked up front, before dispatch).
  [[nodiscard]] BatchReport run(const std::vector<SolveRequest>& requests) const;

  /// As above with caller-owned cancellation: requests not yet started when
  /// the token fires are reported as kCancelled.
  [[nodiscard]] BatchReport run(const std::vector<SolveRequest>& requests,
                                CancelToken cancel) const;

 private:
  const SolverRegistry* registry_;
  BatchRunnerOptions options_;
};

}  // namespace malsched
