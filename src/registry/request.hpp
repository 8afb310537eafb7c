#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "registry/solver_options.hpp"
#include "registry/solver_result.hpp"
#include "model/instance_handle.hpp"

/// API v2: the typed unit of work every front end speaks.
///
/// One SolveRequest describes one job -- WHICH solver, HOW configured, on
/// WHAT instance (by interned InstanceHandle, so the content fingerprint and
/// static lower bound travel with the request instead of being re-derived by
/// each layer) -- plus per-request serving flags. One SolveOutcome is its
/// terminal result plus provenance: how the answer was produced (fresh
/// solve, cache hit, or dedup join), by which worker, and what it cost the
/// serving path.
///
/// The registry (`SolverRegistry::solve(request)`) and the long-lived
/// service (`SchedulerService::submit(request)`, or `submit(requests)` for a
/// closed batch) both accept SolveRequest, and only SolveRequest:
/// InstanceHandle::intern is the one place a raw Instance becomes an
/// identity the serving layers key on.
namespace malsched {

/// Terminal status of one request.
enum class SolveStatus {
  kOk,         ///< solved and validated
  kError,      ///< the solve threw; `error` holds the message
  kCancelled,  ///< skipped: cancellation fired first
};

[[nodiscard]] std::string to_string(SolveStatus status);

/// Why a request failed to produce a result. Machine-readable so callers can
/// branch (retry vs. fix-the-request vs. give-up) without parsing message
/// text; the human-readable specifics live in SolveError::detail.
enum class SolveErrorCode {
  kNone,           ///< no error (status == kOk)
  kInvalidOption,  ///< rejected before dispatch: unknown solver, unknown
                   ///< option key, or a value outside its declared spec
  kCancelled,      ///< cancelled by the caller (cancel() or a CancelToken)
                   ///< before or during the solve
  kSolverFailure,  ///< the dispatched solver threw
  kShutdown,       ///< cancelled because the service shut down with the
                   ///< request still pending
  kDeadlineExceeded,  ///< the request's deadline/budget expired (in queue or
                      ///< mid-solve -- running solves stop cooperatively)
  kRejected,       ///< refused by admission control (queue over
                   ///< max_queue_depth, or shed as the oldest queued job)
};

/// "none", "invalid_option", "cancelled", "solver_failure", "shutdown",
/// "deadline_exceeded", "rejected".
[[nodiscard]] std::string to_string(SolveErrorCode code);

/// Typed error attached to a terminal SolveOutcome. `detail`
/// carries the exception text (or is empty for plain cancellations); it is
/// what the pre-v2.1 string-only `error` field used to hold.
struct SolveError {
  SolveErrorCode code{SolveErrorCode::kNone};
  std::string detail;

  [[nodiscard]] bool empty() const noexcept {
    return code == SolveErrorCode::kNone && detail.empty();
  }
};

/// Maps a caught exception to the taxonomy: CancelledError becomes
/// kCancelled, DeadlineExceededError kDeadlineExceeded (both from
/// support/cancellation.hpp -- the cooperative checks inside running solves
/// throw them), std::invalid_argument (the registry's rejection type for
/// unknown solvers/options and the option validators' for bad values)
/// kInvalidOption, anything else kSolverFailure. Every path of the service
/// that catches a solve's exception classifies it here, so equal failures
/// classify identically everywhere.
[[nodiscard]] SolveError classify_solve_exception(const std::exception& err);

struct SolveRequest {
  /// Default = empty request (invalid handle); exists so containers and
  /// slots stay default-constructible. Every consuming API rejects it.
  SolveRequest() = default;

  SolveRequest(std::string solver_name, SolverOptions solver_options, InstanceHandle handle,
               bool consult_cache = true)
      : instance(std::move(handle)),
        solver(std::move(solver_name)),
        options(std::move(solver_options)),
        use_cache(consult_cache) {}

  InstanceHandle instance;  ///< interned identity; must be valid() when submitted
  std::string solver;       ///< registry name to dispatch to
  SolverOptions options;    ///< validated against the solver's OptionSpec table
  /// Consult/populate the solve cache and join in-flight duplicates (no-op
  /// for layers without a cache). Off for jobs that must measure a real
  /// solve.
  bool use_cache{true};
  /// Relative latency budget in seconds, anchored when the consuming layer
  /// first sees the request (service submit(), or registry solve() entry);
  /// 0 = none. Expiry surfaces as SolveErrorCode::kDeadlineExceeded --
  /// running solves stop cooperatively within one check stride (see
  /// support/cancellation.hpp).
  double budget_seconds{0.0};
  /// Absolute steady-clock deadline (steady_now_seconds()); 0 = none. When
  /// both are set the tighter one wins (merge_deadlines).
  double deadline_seconds{0.0};
};

/// Terminal outcome of one request: the result (engaged iff kOk) plus the
/// provenance of how it was served.
struct SolveOutcome {
  std::uint64_t ticket{0};  ///< service ticket that produced it
  SolveStatus status{SolveStatus::kCancelled};
  std::optional<SolverResult> result;  ///< engaged iff status == kOk
  /// Typed error; code != kNone iff status != kOk. `error.detail` holds the
  /// message text the pre-v2.1 string field carried.
  SolveError error;

  // ------------------------------------------------------------ provenance
  bool cache_hit{false};   ///< served from the solve cache, no dispatch
  bool dedup_join{false};  ///< coalesced onto a concurrent identical solve
  /// The result came from the configured fallback solver, not the requested
  /// one (overload_policy = "degrade": queue past the watermark, or the
  /// primary solve's deadline expired and the fast fallback answered).
  bool fallback_used{false};
  /// Solved inline on the submitting thread by the small-instance fast path
  /// (ServiceConfig::fast_path_max_tasks): the request never entered the
  /// queue or touched a worker. Mutually exclusive with cache_hit and
  /// dedup_join -- a fast-path probe that hits the cache reports cache_hit.
  bool fast_path{false};
  /// Pool worker that produced (or served) the result; -1 when the outcome
  /// was produced off-pool (cancellation, shutdown, or a submit-time cache
  /// hit served inline on the submitting thread).
  int worker{-1};
  /// ShardedSchedulerService shard that served the request; -1 when the
  /// outcome came from an unsharded SchedulerService.
  int shard{-1};
  /// Worker-observed seconds from dequeue to completion (steady clock);
  /// near-zero for cache hits, and for dedup joins the time spent waiting on
  /// the leader -- the serving-path latency, as opposed to
  /// result->wall_seconds, which is the original solve's cost.
  double wall_seconds{0.0};
};

}  // namespace malsched
