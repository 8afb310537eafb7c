#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <atomic>

#include "registry/request.hpp"
#include "api/service_config.hpp"
#include "api/solve_cache.hpp"
#include "exec/worker_pool.hpp"
#include "support/cancellation.hpp"
#include "support/mutex.hpp"
#include "support/stopwatch.hpp"

/// The service-grade front door of the library: a long-lived scheduler that
/// accepts SolveRequests continuously, solves them on a persistent worker
/// pool, streams results back in deterministic order, memoizes repeated
/// work, and coalesces concurrent duplicates onto one solve.
///
/// Where solve() is one call and solve_batch() is one closed batch,
/// SchedulerService is the shape a production deployment actually has: a
/// daemon that receives requests over time and must answer each as soon as
/// possible without re-deriving what it already knows. Four mechanisms
/// carry that:
///
///  * **submit/poll/wait** -- submit() enqueues and returns a JobTicket
///    immediately; poll() is a non-blocking status probe, wait() blocks for
///    one job, drain() for everything submitted so far.
///  * **Ordered streaming** -- an on_result callback receives every outcome
///    exactly once, in TICKET (submission) order, regardless of which worker
///    finished first: delivery i+1 waits for delivery i. That makes the
///    stream deterministic -- the sequence of delivered results at 8 threads
///    is byte-identical to 1 thread (and to solve_batch on the same
///    requests) -- at the cost of head-of-line buffering, which
///    poll()/wait() bypass.
///  * **Content-addressed solve cache** -- completed results are memoized
///    under the interned fingerprint + solver + canonical options (see
///    SolveCache; eviction by capacity, byte budget, and TTL, each counted).
///    A hit returns the memoized result without dispatching -- and since
///    v2.1, without the worker round trip either: submit() probes the cache
///    on the calling thread and a hit creates the slot already terminal
///    (the hit's `worker` is -1, off-pool), so a hit-heavy client never
///    pays two context switches per request. A submit-time miss is not
///    counted (the dispatch-time lookup still runs and counts), so every
///    cache-consulting request counts exactly one hit or one miss. Because
///    the fingerprint was computed once at InstanceHandle::intern, the
///    submit path never re-reads profile bits -- audited by a hash-count
///    test.
///  * **In-flight dedup** -- a cache-consulting request that misses while an
///    IDENTICAL request (same fingerprint, solver, canonical options) is
///    already being solved does not dispatch a second solve: it registers as
///    a joiner and, when the leader finishes, observes the SAME outcome
///    (bytes included; `dedup_join` set, the leader's worker id stamped).
///    Joining is non-blocking -- the joiner's worker moves on immediately --
///    so dedup never idles a thread. `dedup_joins` counts registrations.
///    Per-request opt-out rides SolveRequest::use_cache (a request that must
///    measure a real solve must not adopt someone else's).
///
/// Robustness (deadlines, admission, degradation):
///
///  * **Deadlines** -- SolveRequest::budget_seconds (relative, anchored at
///    submit()) and ::deadline_seconds (absolute steady-clock) bound how
///    long a request may take END TO END, queue wait included; the tighter
///    one wins. An expired request turns terminal with
///    SolveErrorCode::kDeadlineExceeded -- before dispatch if it expired in
///    the queue, or mid-solve via the cooperative CancelCheck threaded
///    through the solver hot loops (bounded-latency stop, no thread kill).
///  * **cancel() on RUNNING jobs** fires the slot's CancelToken: the solve
///    observes it at the next check stride and surfaces kCancelled. A
///    cancelled dedup LEADER fans the cancelled outcome out to every joined
///    ticket (nobody is stranded mid-coalesce); cancelling a JOINER detaches
///    just that ticket.
///  * **Admission control** -- with ServiceConfig::max_queue_depth > 0, a
///    submit() that finds the queue full applies `overload_policy`: "reject"
///    turns the NEW request terminal (kRejected), "shed_oldest" evicts the
///    oldest still-queued job (kRejected) in its favor, "degrade" admits it
///    flagged to run on the configured fast `fallback_solver` (cache/dedup
///    skipped, `fallback_used` provenance). Degrade also retries a
///    deadline-expired primary solve once on the fallback.
///  * **Queue discipline** -- ServiceConfig::queue_discipline picks the
///    DISPATCH order of queued jobs: "fifo" (default, submission order) or
///    "edf" (earliest merged deadline first; deadline-less jobs FIFO behind
///    every dated one, ticket-tiebroken, so without deadlines "edf" behaves
///    byte-identically to "fifo"). Only dispatch reorders -- delivery to
///    the stream stays strictly ticket-ordered under both.
///  * **Small-instance fast path** -- with ServiceConfig::fast_path_max_tasks
///    > 0, a request whose instance is at or under the threshold is solved
///    inline on the submitting thread (queue, admission control, and
///    workers bypassed; normal cache accounting; `fast_path` provenance,
///    worker -1) and its slot is born terminal, like a submit-time hit.
///
/// Workers keep no solver state between jobs: every mrt solve builds its
/// own DualWorkspace (O(n)), so its `workspace.*` counters depend only on
/// the request, never on which worker ran what before it.
///
/// Determinism contract: every result field is byte-identical to the
/// synchronous `solve()` path, with one exception -- wall times (inherently
/// run-dependent; cache hits and dedup joins carry the original solve's
/// result wall time).
///
/// Callback rules: on_result fires on a worker thread (or inside cancel()/
/// shutdown()/submit() -- the latter on a submit-time cache hit -- on the
/// calling thread) while no internal state lock is held;
/// it may call poll()/state()/stats()/cancel()/submit() (re-entrant
/// delivery is handled by a rescan protocol), but must NOT call wait(),
/// drain(), or shutdown() -- blocking inside the delivery path deadlocks
/// it, and shutdown() would join the very worker running the callback.
///
/// Lifecycle: drain() finishes everything submitted; shutdown() stops
/// intake, cancels every job not yet started, finishes the ones running
/// (leaders fill their joiners before the pool joins), and joins the
/// workers (the destructor calls it). Outcomes stay poll()-able after
/// shutdown until the service is destroyed.
///
/// Retention: request INPUTS (handle, options) are released the moment a
/// job turns terminal. OUTCOMES are retained for the service lifetime by
/// default; with `gc_slots` on, a slot whose outcome has been BOTH
/// delivered to the stream AND observed through poll()/wait() is reclaimed
/// (its request and outcome freed, `slots_reclaimed` counted; the ticket
/// keeps a state record of about 64 bytes) -- the knob that keeps a
/// long-running daemon's memory near that record per request. Re-reading a
/// reclaimed ticket throws std::logic_error: with gc on, an outcome is a
/// take-once value.
namespace malsched {

/// Opaque handle to one submitted job; tickets are dense and increase in
/// submission order (ticket order IS delivery order).
struct JobTicket {
  std::uint64_t id{0};
  friend bool operator==(JobTicket a, JobTicket b) { return a.id == b.id; }
};

enum class JobState {
  kQueued,     ///< accepted, not yet picked up by a worker
  kRunning,    ///< a worker is solving it (or it joined an in-flight solve)
  kDone,       ///< terminal: ok / error / cancelled (see the outcome)
};

/// Point-in-time service counters. stats() fills the service-side fields as
/// ONE consistent snapshot copied under the state mutex (no field-by-field
/// tearing mid-update); the cache_* fields are a second snapshot taken under
/// the cache's own mutex immediately after, so service and cache counters
/// may be skewed by work that completed between the two locks -- each half
/// is internally consistent.
struct ServiceStats {
  std::uint64_t submitted{0};
  std::uint64_t completed{0};  ///< solved ok (cache hits and joins included)
  std::uint64_t failed{0};
  std::uint64_t cancelled{0};
  std::uint64_t delivered{0};  ///< outcomes handed to the stream so far
  std::uint64_t dedup_joins{0};  ///< requests coalesced onto an in-flight solve
  std::uint64_t slots_reclaimed{0};  ///< outcome payloads freed by gc_slots
  std::uint64_t cache_hits{0};
  std::uint64_t cache_misses{0};
  std::uint64_t cache_evictions{0};  ///< all causes (split below)
  std::uint64_t cache_evictions_capacity{0};
  std::uint64_t cache_evictions_bytes{0};
  std::uint64_t cache_evictions_ttl{0};
  std::size_t cache_entries{0};
  std::size_t cache_bytes{0};  ///< approximate resident footprint
  /// Retired: workers no longer share DualWorkspaces across solves, so this
  /// always reads 0. It stays only because the repository benchmark reads it
  /// (`api.workspace_reuses`) and goes away at the next benchmark change.
  std::uint64_t workspace_reuses{0};
  // Robustness counters. `rejected` and `shed` outcomes are kError and so
  // also counted under `failed`; `deadline_misses` counts both terminal
  // kDeadlineExceeded outcomes and deadline-triggered fallback retries;
  // `fallbacks` counts outcomes the fallback solver answered
  // (`fallback_used` provenance); `cache_failures` counts cache
  // lookup/insert exceptions absorbed (lookup degraded to a miss, insert
  // skipped -- the request still completes).
  std::uint64_t rejected{0};
  std::uint64_t shed{0};
  std::uint64_t deadline_misses{0};
  std::uint64_t fallbacks{0};
  std::uint64_t cache_failures{0};
  /// Deepest the pending-job queue has ever been (post-admission). The
  /// overload observable without the bench harness: a high-water mark near
  /// max_queue_depth says admission control is doing the limiting. Summed
  /// across shards on the sharded tier, like every other field.
  std::uint64_t queue_depth_high_water{0};
  /// Requests answered inline by the small-instance fast path
  /// (fast_path_max_tasks); submit-time cache hits are counted as cache
  /// hits, not here.
  std::uint64_t fast_path_hits{0};
};

/// Field-wise rollup `total += shard`, used by the sharded tier and the
/// bench harnesses (defined in sharded_service.cpp, next to its consumer).
/// Every ServiceStats field must be summed here: the repo linter's
/// stats-exhaustive rule cross-references the struct against this body,
/// write_service_stats() (api/stats_json.hpp), and bench_schema.json.
void accumulate_stats(ServiceStats& total, const ServiceStats& shard);

class SchedulerService {
 public:
  using ResultCallback = std::function<void(const SolveOutcome&)>;

  /// Throws std::invalid_argument when `config.validate()` reports
  /// violations (the message lists all of them).
  explicit SchedulerService(ServiceConfig config = {});
  ~SchedulerService();  // shutdown()

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Installs the streaming callback. Must be called before the first
  /// submit() (throws std::logic_error otherwise): a stream that starts
  /// mid-run would silently miss already-delivered outcomes.
  void on_result(ResultCallback callback) MALSCHED_EXCLUDES(mutex_);

  /// Enqueues one request; returns immediately. Throws std::runtime_error
  /// after shutdown() and std::invalid_argument on an empty handle.
  JobTicket submit(SolveRequest request) MALSCHED_EXCLUDES(mutex_);

  /// Enqueues many requests atomically (their tickets are consecutive).
  std::vector<JobTicket> submit(std::vector<SolveRequest> requests)
      MALSCHED_EXCLUDES(mutex_);

  /// Non-blocking: the outcome if the job reached a terminal state, nullopt
  /// while queued/running. Throws std::out_of_range on a ticket this service
  /// never issued, and std::logic_error on one already reclaimed by
  /// gc_slots. Observing the outcome here makes the slot reclaimable (the
  /// reason this is not const).
  [[nodiscard]] std::optional<SolveOutcome> poll(JobTicket ticket)
      MALSCHED_EXCLUDES(mutex_);

  [[nodiscard]] JobState state(JobTicket ticket) const MALSCHED_EXCLUDES(mutex_);

  /// Blocks until the job reaches a terminal state; returns its outcome.
  /// Same reclamation semantics as poll().
  [[nodiscard]] SolveOutcome wait(JobTicket ticket) MALSCHED_EXCLUDES(mutex_);

  /// Requests cancellation; returns false only for jobs already terminal.
  /// Jobs still queued are cancelled immediately (their outcome is
  /// kCancelled and enters the stream in ticket order). A RUNNING solo or
  /// dedup-leader solve has its CancelToken fired: the return is true (the
  /// request was delivered) and the outcome arrives as kCancelled within
  /// one check stride -- unless the solve completed first, in which case
  /// its real outcome stands (cooperative cancellation is best-effort by
  /// construction). A cancelled LEADER's kCancelled outcome fans out to
  /// every joined ticket. A dedup JOINER is detached from its leader and
  /// turned kCancelled on its own (the leader keeps solving); returns false
  /// if the leader's epilogue already claimed the joiner list (the
  /// coalesced outcome is imminent).
  bool cancel(JobTicket ticket) MALSCHED_EXCLUDES(mutex_);

  /// Blocks until every job submitted BEFORE the call is delivered to the
  /// stream (and thus terminal). Safe to call repeatedly and concurrently
  /// with new submissions.
  void drain() MALSCHED_EXCLUDES(mutex_);

  /// Graceful stop: rejects new submissions, cancels every queued job,
  /// lets running solves finish, delivers every outcome, joins the workers.
  /// Idempotent.
  ///
  /// Ordering contract with drain(): when shutdown() returns, EVERY
  /// outcome has been streamed (stats().delivered == stats().submitted) --
  /// including the case where another thread held the single-deliverer
  /// role when shutdown() flushed the tail, in which case shutdown()
  /// WAITS for that deliverer to finish rather than returning with the
  /// last callback still in flight. A drain() racing shutdown() therefore
  /// also observes the complete stream; neither call can return between
  /// "all slots terminal" and "all outcomes delivered".
  void shutdown() MALSCHED_EXCLUDES(mutex_);

  [[nodiscard]] unsigned threads() const noexcept { return pool_.threads(); }

  /// One consistent snapshot of the service counters, copied under the
  /// state mutex (see ServiceStats).
  [[nodiscard]] ServiceStats stats() const MALSCHED_EXCLUDES(mutex_);

 private:
  /// A slot's request and outcome, held out of line so that gc_slots frees
  /// them whole: a reclaimed slot keeps only the small Slot record.
  struct SlotPayload {
    SolveRequest request;  ///< inputs released at the terminal transition
    SolveOutcome outcome;
  };

  struct Slot {
    /// Null once gc_slots reclaimed the slot.
    std::unique_ptr<SlotPayload> payload{std::make_unique<SlotPayload>()};
    JobState state{JobState::kQueued};
    bool observed{false};   ///< a poll()/wait() returned this outcome
    bool reclaimed{false};  ///< gc_slots freed the payload
    CancelToken cancel;     ///< fired by cancel() on a RUNNING solve
    double deadline{0.0};   ///< absolute steady-clock (0 = none), anchored at submit
    bool degraded{false};   ///< admitted past the watermark: runs the fallback
    bool joined{false};     ///< registered as a dedup joiner (locators below)
    std::uint64_t join_fingerprint{0};  ///< inflight_ bucket of the leader
    std::uint64_t join_leader{0};       ///< leader ticket this slot coalesced on
  };

  /// One coalescing point: the leader's key plus everyone who joined it.
  struct Inflight {
    struct Joiner {
      std::uint64_t id{0};
      Stopwatch since;  ///< serving wall anchor: join -> leader completion
    };
    SolveCache::Key key;
    std::uint64_t leader{0};
    std::vector<Joiner> joiners;
  };

  /// With `ready` engaged (a submit-time cache hit), the slot is born
  /// terminal: no closure is posted. Admission control runs here too --
  /// a full queue may reject the new slot (born terminal kRejected), shed
  /// the oldest queued one, or flag the new one degraded. Whenever ANY slot
  /// turned terminal (the new one or a shed victim), `born_terminal` is set
  /// to true (never cleared -- it accumulates across a batch) and the
  /// caller must notify done_cv_ and run deliver_ready() after releasing
  /// the mutex.
  JobTicket enqueue_locked(SolveRequest request, std::optional<SolveOutcome> ready,
                           bool& born_terminal) MALSCHED_REQUIRES(mutex_);
  /// Submit-time cache fast path: probes the solve cache on the CALLING
  /// thread for a cache-consulting request and returns the ready outcome on
  /// a hit (no worker round trip). Misses are not counted here -- see
  /// SolveCache::lookup(key, count_miss).
  [[nodiscard]] std::optional<SolveOutcome> peek_cache(const SolveRequest& request)
      MALSCHED_EXCLUDES(mutex_);
  /// Small-instance fast path (ServiceConfig::fast_path_max_tasks): solves
  /// an eligible request synchronously on the CALLING thread and returns its
  /// born-terminal outcome; nullopt when the fast path is off or the
  /// instance is too large. The cache is consulted with NORMAL accounting
  /// (lookup counts the miss -- this path IS the authoritative lookup, there
  /// is no dispatch-time retry behind it) and populated on success; dedup is
  /// skipped. Runs before peek_cache() in submit(), so the
  /// one-hit-or-one-miss invariant holds for fast-path requests too.
  [[nodiscard]] std::optional<SolveOutcome> try_fast_path(const SolveRequest& request)
      MALSCHED_EXCLUDES(mutex_);
  void run_job(std::uint64_t id) MALSCHED_EXCLUDES(mutex_);
  /// Pool closure body: pops the next dispatchable job from the dispatch
  /// queue and runs it. Closures and ready entries are pushed 1:1 (each
  /// enqueue posts one of each), and a closure consumes at most one live
  /// entry, so no live entry is ever stranded without a closure to run it;
  /// entries whose slot already left kQueued (cancelled, shed, shut down)
  /// are skipped as stale.
  void run_next() MALSCHED_EXCLUDES(mutex_);
  void push_ready_locked(std::uint64_t id, double deadline) MALSCHED_REQUIRES(mutex_);
  /// Pops the next live (still-kQueued) entry into `id`; false when only
  /// stale entries (or nothing) remained.
  [[nodiscard]] bool pop_ready_locked(std::uint64_t& id) MALSCHED_REQUIRES(mutex_);
  /// Runs `options_.fallback_solver` on the request's instance with EMPTY
  /// options, no cache/dedup, no deadline; the outcome carries
  /// `fallback_used` and the serving wall measured by `stopwatch` (the
  /// failed/skipped primary attempt included -- that is the latency the
  /// caller experienced).
  [[nodiscard]] SolveOutcome run_fallback(const SolveRequest& request, std::uint64_t id,
                                          const Stopwatch& stopwatch) MALSCHED_EXCLUDES(mutex_);
  void finish(std::uint64_t id, SolveOutcome outcome, const SolveCache::Key* inflight_key)
      MALSCHED_EXCLUDES(mutex_);
  void deliver_ready() MALSCHED_EXCLUDES(mutex_);
  Inflight* find_inflight_locked(const SolveCache::Key& key) MALSCHED_REQUIRES(mutex_);
  void maybe_reclaim_locked(std::uint64_t id) MALSCHED_REQUIRES(mutex_);
  void count_terminal_locked(const SolveOutcome& outcome) MALSCHED_REQUIRES(mutex_);

  ServiceConfig options_;
  const SolverRegistry* registry_;
  SolveCache cache_;  ///< internally synchronized (own mutex)

  mutable Mutex mutex_;
  CondVar done_cv_;  ///< wait()/drain(): "a slot turned terminal"
  /// Slot id == ticket id (kept for poll()).
  std::deque<Slot> slots_ MALSCHED_GUARDED_BY(mutex_);
  std::uint64_t next_delivery_ MALSCHED_GUARDED_BY(mutex_){0};
  bool accepting_ MALSCHED_GUARDED_BY(mutex_){true};
  ServiceStats stats_ MALSCHED_GUARDED_BY(mutex_);
  /// Jobs accepted but not yet picked up by a worker -- what admission
  /// control compares against max_queue_depth. Degraded admissions count
  /// too (they occupy the queue; degrade bounds WORK per job, not depth).
  long long queued_depth_ MALSCHED_GUARDED_BY(mutex_){0};
  /// shed_oldest scan cursor: every slot below it is known non-queued
  /// (states only move forward), so repeated sheds stay amortized O(1).
  std::uint64_t shed_hint_ MALSCHED_GUARDED_BY(mutex_){0};
  /// The dispatch queue: a min-heap on (key, ticket), the key set by
  /// push_ready_locked(); see run_next() for the closure/entry accounting.
  /// Entries are lazily invalidated: a job that turns terminal while queued
  /// (cancel, shed, shutdown) leaves its entry behind and the dequeue skips
  /// it.
  std::priority_queue<std::pair<double, std::uint64_t>,
                      std::vector<std::pair<double, std::uint64_t>>, std::greater<>>
      ready_ MALSCHED_GUARDED_BY(mutex_);
  /// Cache lookup/insert exceptions absorbed. Atomic, not mutex_-guarded:
  /// peek_cache() runs on the submit thread without mutex_ by design.
  std::atomic<std::uint64_t> cache_failures_{0};

  /// Leaders currently solving, by key fingerprint (vector per bucket for
  /// collision safety). Entries live from the leader's miss to its finish().
  std::unordered_map<std::uint64_t, std::vector<Inflight>> inflight_
      MALSCHED_GUARDED_BY(mutex_);

  /// Single-deliverer protocol (see deliver_ready()): `delivering_` elects
  /// one thread to invoke callbacks in ticket order; `delivery_requested_`
  /// makes it rescan before retiring, so concurrent (or re-entrant, from
  /// inside the callback) completions are never stranded. `in_callback_`
  /// names the slot whose outcome the callback is reading right now, so
  /// gc_slots cannot free it mid-read.
  bool delivering_ MALSCHED_GUARDED_BY(mutex_){false};
  bool delivery_requested_ MALSCHED_GUARDED_BY(mutex_){false};
  std::optional<std::uint64_t> in_callback_ MALSCHED_GUARDED_BY(mutex_);
  /// Written by on_result() strictly before the first submit (enforced), so
  /// immutable once workers exist; deliver_ready() snapshots its address
  /// under the lock and invokes it outside (documented there).
  ResultCallback callback_ MALSCHED_GUARDED_BY(mutex_);

  WorkerPool pool_;  ///< last member: destroyed (joined) before the state above
};

}  // namespace malsched
