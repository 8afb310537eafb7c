#pragma once

#include <cstddef>
#include <string>
#include <vector>

/// ServiceConfig: the ONE configuration aggregate for the serving tier.
///
/// Both tiers construct from it identically -- `SchedulerService(config)`
/// and `ShardedSchedulerService(config, shards)` (where `config` describes
/// EACH shard: per-shard worker threads, per-shard cache budget). A
/// nonsensical combination (negative TTL, cache enabled with a zero entry
/// budget) would silently produce a service that behaves like a different
/// configuration, so services call ensure_valid() at construction and
/// reject bad configs with one readable std::invalid_argument listing EVERY
/// violation, not just the first.
namespace malsched {

class SolverRegistry;

struct ServiceConfig {
  /// Worker threads (per shard for the sharded tier); 0 = hardware_concurrency.
  unsigned threads{0};
  /// Master switch for the solve cache; `cache_capacity` entries when on.
  bool cache{true};
  std::size_t cache_capacity{1024};
  /// Approximate cache byte budget; 0 = unlimited (see SolveCacheConfig).
  std::size_t cache_max_bytes{0};
  /// Cache entry time-to-live in seconds; 0 = never expires.
  double cache_ttl_seconds{0.0};
  /// Coalesce concurrent identical cache-consulting misses onto one solve.
  bool dedup{true};
  /// Reclaim outcome payloads once delivered AND observed (see the service
  /// Retention contract).
  bool gc_slots{false};
  /// Registry to dispatch through; nullptr = the global one. Must outlive
  /// the service and not be mutated while it runs.
  const SolverRegistry* registry{nullptr};

  // ------------------------------------------------- admission control
  /// Queued (not yet running) jobs the service will hold before the
  /// overload policy kicks in; 0 = unbounded (the pre-admission behavior).
  /// Signed so a negative count is a validation error instead of a silent
  /// wrap to "practically unbounded". Per shard on the sharded tier.
  long long max_queue_depth{0};
  /// What happens to a submit() that finds the queue at max_queue_depth:
  ///   "reject"      the NEW request turns terminal immediately
  ///                 (kError / kRejected), nothing is dispatched;
  ///   "shed_oldest" the OLDEST still-queued job is turned terminal
  ///                 (kError / kRejected) and the new one takes its place;
  ///   "degrade"     the new request is accepted but marked degraded: it
  ///                 runs on `fallback_solver` (fast, cache/dedup skipped,
  ///                 `fallback_used` provenance) instead of its requested
  ///                 solver. Degrade also retries a deadline-expired
  ///                 primary solve once on the fallback.
  std::string overload_policy{"reject"};
  /// Fast fallback solver for overload_policy = "degrade" (e.g.
  /// "two_phase"); must exist in the effective registry. Runs with EMPTY
  /// options -- the request's option bag belongs to the requested solver
  /// and would fail the fallback's schema.
  std::string fallback_solver;

  // ---------------------------------------------------- queue discipline
  /// Order in which queued jobs are dispatched to workers:
  ///   "fifo" submission (ticket) order, deadlines ignored for ordering --
  ///          the default;
  ///   "edf"  earliest absolute deadline first (the request's merged
  ///          budget/deadline, anchored at submit). Deadline-less requests
  ///          sort behind every deadline-carrying one, and ties (equal
  ///          deadlines, or two deadline-less requests) break on the
  ///          smaller ticket -- so with no deadlines set anywhere, "edf"
  ///          dispatches exactly like "fifo" and outcomes are
  ///          byte-identical. Delivery order is unaffected either way
  ///          (the stream is always ticket-ordered).
  std::string queue_discipline{"fifo"};

  // ------------------------------------------------------- fast path
  /// Submit-time small-instance fast path: a request whose instance has at
  /// most this many tasks is solved synchronously ON THE SUBMITTING THREAD,
  /// bypassing the queue, admission control, and the worker round trip; its
  /// outcome carries `fast_path` provenance (worker -1, off-pool) and the
  /// slot is born terminal. The cache is still consulted (and populated)
  /// with normal hit/miss accounting; in-flight dedup is skipped -- an
  /// inline solve cannot wait on a leader. 0 = off (the default). Signed so
  /// a negative threshold is a validation error, not a silent wrap.
  long long fast_path_max_tasks{0};

  /// Sanity ceiling for `threads`: far above any real machine, low enough to
  /// catch a negative count that wrapped through `unsigned`.
  static constexpr unsigned kMaxThreads = 1024;

  /// Every violation as one readable sentence; empty means valid.
  /// Checked: `threads` <= kMaxThreads, `cache_ttl_seconds` finite and
  /// non-negative, `cache` on implies `cache_capacity` > 0 (a zero
  /// entry budget silently disables the cache -- say `cache = false`
  /// instead), `max_queue_depth` >= 0, `overload_policy` one of
  /// reject/shed_oldest/degrade, "degrade" implies a non-empty
  /// `fallback_solver`, a non-empty `fallback_solver` exists in the
  /// effective registry (`registry`, or the global one when null),
  /// `queue_discipline` one of fifo/edf, and `fast_path_max_tasks` >= 0.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Throws std::invalid_argument joining every validate() violation into
  /// one message; no-op on a valid config. Services call this at
  /// construction.
  void ensure_valid() const;
};

}  // namespace malsched
