#include "api/scheduler_service.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <stdexcept>
#include <utility>

#include "registry/solver_registry.hpp"
#include "support/failpoint.hpp"

namespace malsched {

namespace {

SolveCacheConfig cache_config(const ServiceConfig& options) {
  SolveCacheConfig config;
  config.capacity = options.cache ? options.cache_capacity : 0;
  config.max_bytes = options.cache_max_bytes;
  config.ttl_seconds = options.cache_ttl_seconds;
  return config;
}

/// Terminal slots never read their request again (run_job copies what it
/// needs at dequeue); dropping the payload here keeps a long-lived service
/// from pinning every instance it ever saw. Outcomes stay poll()-able.
void release_request_payload(SolveRequest& request) {
  request.instance = InstanceHandle{};
  request.options = SolverOptions{};
  request.solver.clear();
  request.solver.shrink_to_fit();
}

}  // namespace

namespace {

/// Comma in the member initializer list is the earliest point after
/// ensure_valid() can run; this keeps the check ahead of every member that
/// consumes a config field (cache capacity, pool thread count).
const ServiceConfig& validated(const ServiceConfig& config) {
  config.ensure_valid();
  return config;
}

}  // namespace

SchedulerService::SchedulerService(ServiceConfig config)
    : options_(validated(config)),
      registry_(config.registry != nullptr ? config.registry : &SolverRegistry::global()),
      cache_(cache_config(config)),
      pool_(config.threads) {}

SchedulerService::~SchedulerService() { shutdown(); }

void SchedulerService::on_result(ResultCallback callback) {
  const LockGuard lock(mutex_);
  if (!slots_.empty()) {
    throw std::logic_error(
        "SchedulerService: on_result() must be installed before the first submit() "
        "(a stream starting mid-run would miss delivered outcomes)");
  }
  callback_ = std::move(callback);
}

JobTicket SchedulerService::enqueue_locked(SolveRequest request,
                                           std::optional<SolveOutcome> ready,
                                           bool& born_terminal) {
  if (!accepting_) {
    throw std::runtime_error("SchedulerService: submit() after shutdown()");
  }
  if (!request.instance.valid()) {
    throw std::invalid_argument("SchedulerService: submit() with an empty InstanceHandle");
  }
  const std::uint64_t id = slots_.size();
  ++stats_.submitted;
  if (ready.has_value() && ready->fast_path) ++stats_.fast_path_hits;
  if (ready.has_value()) {
    // Submit-time cache hit: the slot is born terminal -- no closure is ever
    // posted, so a hit costs lock work on the calling thread instead of two
    // context switches through the pool. The caller runs deliver_ready()
    // after unlocking (the stream must never fire under mutex_). A hit
    // consumes no queue slot, so admission control never sees it.
    ready->ticket = id;
    release_request_payload(request);
    Slot hit;
    hit.payload->request = std::move(request);
    hit.state = JobState::kDone;
    hit.payload->outcome = std::move(*ready);
    slots_.push_back(std::move(hit));
    count_terminal_locked(slots_.back().payload->outcome);
    born_terminal = true;
    return JobTicket{id};
  }

  // The end-to-end deadline is anchored HERE, at admission: queue wait
  // counts against the budget (the whole point of a serving deadline).
  const double deadline =
      merge_deadlines(request.deadline_seconds, budget_deadline(request.budget_seconds));

  bool degraded = false;
  if (options_.max_queue_depth > 0 && queued_depth_ >= options_.max_queue_depth) {
    if (options_.overload_policy == "reject") {
      SolveOutcome refused;
      refused.ticket = id;
      refused.status = SolveStatus::kError;
      refused.error = {SolveErrorCode::kRejected,
                       "queue full (" + std::to_string(queued_depth_) + " >= max_queue_depth " +
                           std::to_string(options_.max_queue_depth) + "), policy reject"};
      refused.worker = WorkerPool::current_worker();  // -1: refused off-pool
      release_request_payload(request);
      Slot slot;
      slot.payload->request = std::move(request);
      slot.state = JobState::kDone;
      slot.payload->outcome = std::move(refused);
      slots_.push_back(std::move(slot));
      count_terminal_locked(slots_.back().payload->outcome);
      ++stats_.rejected;
      born_terminal = true;
      return JobTicket{id};
    }
    if (options_.overload_policy == "shed_oldest") {
      // The oldest still-queued slot makes room for the new one. The scan
      // starts at shed_hint_ (slots below it are known non-queued; states
      // only move forward), so repeated sheds stay amortized O(1).
      for (std::uint64_t victim = shed_hint_; victim < slots_.size(); ++victim) {
        Slot& old = slots_[victim];
        if (old.state != JobState::kQueued) continue;
        shed_hint_ = victim + 1;
        old.state = JobState::kDone;
        old.payload->outcome.ticket = victim;
        old.payload->outcome.status = SolveStatus::kError;
        old.payload->outcome.error = {SolveErrorCode::kRejected,
                                      "shed under overload (shed_oldest) to admit ticket " +
                                          std::to_string(id)};
        release_request_payload(old.payload->request);
        count_terminal_locked(old.payload->outcome);
        ++stats_.shed;
        --queued_depth_;
        born_terminal = true;
        // The victim's posted closure still sits in the pool queue; run_job
        // sees the terminal state and returns without touching the slot.
        break;
      }
    } else {
      // "degrade": admit, but flag the slot to run the fast fallback solver
      // instead of the requested one (cache/dedup skipped, fallback_used
      // provenance). Depth may exceed the watermark -- degrade bounds the
      // WORK each admitted job costs, not the queue length.
      degraded = true;
    }
  }

  Slot queued;
  queued.payload->request = std::move(request);
  queued.deadline = deadline;
  queued.degraded = degraded;
  slots_.push_back(std::move(queued));
  ++queued_depth_;
  if (static_cast<std::uint64_t>(queued_depth_) > stats_.queue_depth_high_water) {
    stats_.queue_depth_high_water = static_cast<std::uint64_t>(queued_depth_);
  }
  push_ready_locked(id, deadline);
  // Posting under the state lock is safe (the pool never calls back into the
  // service while holding its own lock) and makes accepting_ imply a live
  // pool, so this post cannot throw. The closure is discipline-agnostic:
  // which job it runs is decided at POP time, so an earlier-deadline job
  // submitted later can overtake this one under edf.
  pool_.post([this] { run_next(); });
  return JobTicket{id};
}

void SchedulerService::push_ready_locked(std::uint64_t id, double deadline) {
  // The key is the merged deadline under edf. Under fifo every job, and
  // under edf every deadline-less one, keys on +inf: behind every dated
  // job, in ticket (submission) order among themselves.
  const bool dated = deadline > 0.0 && options_.queue_discipline == "edf";
  ready_.emplace(dated ? deadline : std::numeric_limits<double>::infinity(), id);
}

bool SchedulerService::pop_ready_locked(std::uint64_t& id) {
  while (!ready_.empty()) {
    id = ready_.top().second;
    ready_.pop();
    if (slots_[id].state == JobState::kQueued) return true;
  }
  return false;  // only stale entries (cancelled/shed/shutdown) remained
}

void SchedulerService::run_next() {
  std::uint64_t id = 0;
  {
    const LockGuard lock(mutex_);
    if (!pop_ready_locked(id)) return;
  }
  // The popped job was kQueued under the lock; a cancel() racing this gap is
  // caught by run_job's own re-check (the entry is consumed either way, and
  // the cancelled job needs no run -- it is already terminal).
  run_job(id);
}

std::optional<SolveOutcome> SchedulerService::peek_cache(const SolveRequest& request) {
  if (!request.use_cache || !cache_.enabled() || !request.instance.valid()) return std::nullopt;
  const Stopwatch stopwatch;
  // Same zero-rehash key as run_job; the probe never touches mutex_ (the
  // cache mutex is a leaf lock), so concurrent submitters only contend on
  // the cache itself. count_miss=false: on a miss the dispatch-time lookup
  // is the authoritative (counted) one.
  const SolveCache::Key key =
      SolveCache::make_key(request.solver, request.options, request.instance);
  std::shared_ptr<const SolverResult> cached;
  try {
    cached = cache_.lookup(key, /*count_miss=*/false);
  } catch (...) {
    // A failing cache must never fail the request: degrade the probe to a
    // miss and let the dispatch path (which absorbs its own cache errors)
    // solve for real.
    cache_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  if (cached == nullptr) return std::nullopt;
  SolveOutcome outcome;
  outcome.status = SolveStatus::kOk;
  outcome.result = *cached;  // copied outside the cache lock
  outcome.cache_hit = true;
  outcome.worker = WorkerPool::current_worker();  // -1: served off-pool
  outcome.wall_seconds = stopwatch.seconds();
  return outcome;
}

std::optional<SolveOutcome> SchedulerService::try_fast_path(const SolveRequest& request) {
  if (options_.fast_path_max_tasks <= 0 || !request.instance.valid()) return std::nullopt;
  if (static_cast<long long>(request.instance.instance().size()) >
      options_.fast_path_max_tasks) {
    return std::nullopt;
  }
  const Stopwatch stopwatch;
  SolveOutcome outcome;
  outcome.worker = WorkerPool::current_worker();  // -1: solved off-pool
  const bool use_cache = request.use_cache && cache_.enabled();
  std::optional<SolveCache::Key> key;
  if (use_cache) {
    // COUNTED lookup, unlike peek_cache: the fast path is the authoritative
    // serving of this request -- there is no dispatch-time retry behind it --
    // so the one-hit-or-one-miss invariant books the miss here.
    key = SolveCache::make_key(request.solver, request.options, request.instance);
    std::shared_ptr<const SolverResult> cached;
    try {
      cached = cache_.lookup(*key);
    } catch (...) {
      cache_failures_.fetch_add(1, std::memory_order_relaxed);
    }
    if (cached != nullptr) {
      outcome.status = SolveStatus::kOk;
      outcome.result = *cached;  // copied outside the cache lock
      outcome.cache_hit = true;  // a hit is a hit, fast path or not
      outcome.wall_seconds = stopwatch.seconds();
      return outcome;
    }
  }
  // Inline solve on the submitting thread. The deadline is anchored here
  // (submit IS admission for this path) and enforced cooperatively inside
  // the solve; there is no CancelToken -- cancel() can never see this job,
  // it is terminal before submit() returns. No dedup either (an inline
  // solve cannot wait on a leader), and no degrade retry: the fast path is
  // already the bounded-work answer.
  const double deadline =
      merge_deadlines(request.deadline_seconds, budget_deadline(request.budget_seconds));
  SolveContext context;
  context.deadline_seconds = deadline;
  outcome.fast_path = true;
  try {
    outcome.result = registry_->solve(request, context);
    outcome.status = SolveStatus::kOk;
  } catch (const std::exception& err) {
    outcome.status = SolveStatus::kError;
    outcome.error = classify_solve_exception(err);
  } catch (...) {
    outcome.status = SolveStatus::kError;
    outcome.error = {SolveErrorCode::kSolverFailure, "non-standard exception"};
  }
  if (outcome.status == SolveStatus::kOk && use_cache) {
    try {
      cache_.insert(*key, *outcome.result);
    } catch (...) {
      cache_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  outcome.wall_seconds = stopwatch.seconds();
  return outcome;
}

JobTicket SchedulerService::submit(SolveRequest request) {
  std::optional<SolveOutcome> ready = try_fast_path(request);
  if (!ready.has_value()) ready = peek_cache(request);
  bool born_terminal = false;
  JobTicket ticket;
  {
    const LockGuard lock(mutex_);
    ticket = enqueue_locked(std::move(request), std::move(ready), born_terminal);
  }
  if (born_terminal) {
    done_cv_.notify_all();
    deliver_ready();
  }
  return ticket;
}

std::vector<JobTicket> SchedulerService::submit(std::vector<SolveRequest> requests) {
  // All-or-nothing, as documented: validate every handle BEFORE the first
  // enqueue, so a bad request mid-vector cannot leave earlier jobs running
  // with their tickets lost to the throwing caller.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!requests[i].instance.valid()) {
      throw std::invalid_argument("SchedulerService: request " + std::to_string(i) +
                                  " carries an empty InstanceHandle");
    }
  }
  // Probe the cache for every request before taking the state lock: the
  // peeks are pure reads of a leaf lock, and doing them all up front keeps
  // the enqueue loop itself O(requests) under one mutex_ hold.
  std::vector<std::optional<SolveOutcome>> ready;
  ready.reserve(requests.size());
  for (const auto& request : requests) {
    std::optional<SolveOutcome> served = try_fast_path(request);
    if (!served.has_value()) served = peek_cache(request);
    ready.push_back(std::move(served));
  }
  std::vector<JobTicket> tickets;
  tickets.reserve(requests.size());
  bool born_terminal = false;
  {
    const LockGuard lock(mutex_);
    if (!accepting_) {
      throw std::runtime_error("SchedulerService: submit() after shutdown()");
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
      tickets.push_back(
          enqueue_locked(std::move(requests[i]), std::move(ready[i]), born_terminal));
    }
  }
  if (born_terminal) {
    done_cv_.notify_all();
    deliver_ready();
  }
  return tickets;
}

SchedulerService::Inflight* SchedulerService::find_inflight_locked(const SolveCache::Key& key) {
  const auto bucket = inflight_.find(key.fingerprint);
  if (bucket == inflight_.end()) return nullptr;
  for (auto& flight : bucket->second) {
    if (SolveCache::same_key(flight.key, key)) return &flight;
  }
  return nullptr;
}

void SchedulerService::run_job(std::uint64_t id) {
  SolveRequest request;
  bool use_cache = false;
  bool use_dedup = false;
  bool degraded = false;
  CancelToken token;
  double deadline = 0.0;
  {
    const LockGuard lock(mutex_);
    Slot& slot = slots_[id];
    if (slot.state != JobState::kQueued) return;  // cancelled/shed before start
    slot.state = JobState::kRunning;
    --queued_depth_;
    request = slot.payload->request;
    token = slot.cancel;  // shares the flag cancel() fires
    deadline = slot.deadline;
    degraded = slot.degraded;
    // A degraded job answers with the fallback solver: its result is NOT the
    // requested solver's result, so it must neither populate nor consult the
    // cache, nor coalesce with real solves of the same key.
    use_cache = cache_.enabled() && request.use_cache && !degraded;
    // Dedup rides the cache flags: a request that opted out must measure a
    // real solve (not adopt someone else's), and a cache-disabled service
    // is the documented way to force exactly that service-wide.
    use_dedup = options_.dedup && use_cache;
  }
  const bool can_degrade =
      options_.overload_policy == "degrade" && !options_.fallback_solver.empty();

  const Stopwatch stopwatch;
  SolveOutcome outcome;
  outcome.ticket = id;
  outcome.worker = WorkerPool::current_worker();

  // Deadline already expired while queued: never start the primary solve.
  // Under degrade the request still gets a (fast) answer; otherwise it
  // turns terminal kDeadlineExceeded right here.
  if (deadline > 0.0 && steady_now_seconds() >= deadline) {
    if (can_degrade) {
      {
        const LockGuard lock(mutex_);
        ++stats_.deadline_misses;  // the fallback outcome won't carry the code
      }
      finish(id, run_fallback(request, id, stopwatch), nullptr);
      return;
    }
    outcome.status = SolveStatus::kError;
    outcome.error = {SolveErrorCode::kDeadlineExceeded, "deadline expired while queued"};
    outcome.wall_seconds = stopwatch.seconds();
    finish(id, std::move(outcome), nullptr);
    return;
  }

  if (degraded) {
    // Admitted past the watermark: straight to the fallback solver.
    finish(id, run_fallback(request, id, stopwatch), nullptr);
    return;
  }

  std::optional<SolveCache::Key> key;
  if (use_cache) {
    // Zero profile re-hashing here: the key mixes the handle's interned
    // fingerprint with the two identity strings (audited by test). The hit
    // path stays entirely outside the service mutex.
    key = SolveCache::make_key(request.solver, request.options, request.instance);
    std::shared_ptr<const SolverResult> cached;
    try {
      cached = cache_.lookup(*key);
    } catch (...) {
      // A failing cache degrades to a miss; the request solves for real.
      cache_failures_.fetch_add(1, std::memory_order_relaxed);
    }
    if (cached != nullptr) {
      outcome.status = SolveStatus::kOk;
      outcome.result = *cached;  // copied outside the cache lock
      outcome.cache_hit = true;
      outcome.wall_seconds = stopwatch.seconds();
      finish(id, std::move(outcome), nullptr);
      return;
    }
  }

  if (use_dedup) {
    // Atomic miss-or-join: the inflight check and leader registration share
    // one lock, so two identical misses cannot both become leaders -- the
    // second always joins the first. (A leader that finished BETWEEN our
    // unlocked miss above and this lock leaves both the map and a populated
    // cache behind; we then re-solve redundantly but deterministically --
    // the same behavior every duplicate had before dedup existed.)
    const LockGuard lock(mutex_);
    if (Inflight* flight = find_inflight_locked(*key)) {
      flight->joiners.push_back(Inflight::Joiner{id, stopwatch});
      ++stats_.dedup_joins;
      Slot& slot = slots_[id];
      // Locators for cancel(): a joiner can be detached from its leader's
      // bucket without disturbing the leader's solve.
      slot.joined = true;
      slot.join_fingerprint = key->fingerprint;
      slot.join_leader = flight->leader;
      return;  // non-blocking: the leader's finish() completes this slot
    }
    inflight_[key->fingerprint].push_back(Inflight{*key, id, {}});
  }

  SolveContext context;
  context.cancel = &token;  // outlives the solve: local until finish()
  context.deadline_seconds = deadline;
  try {
    MALSCHED_FAILPOINT("service.dispatch");
    outcome.result = registry_->solve(request, context);
    outcome.status = SolveStatus::kOk;
  } catch (const std::exception& err) {
    outcome.status = SolveStatus::kError;
    outcome.error = classify_solve_exception(err);
  } catch (...) {
    outcome.status = SolveStatus::kError;
    outcome.error = {SolveErrorCode::kSolverFailure, "non-standard exception"};
  }
  if (outcome.error.code == SolveErrorCode::kCancelled) {
    outcome.status = SolveStatus::kCancelled;  // cancel() fired mid-solve
  }
  if (outcome.error.code == SolveErrorCode::kDeadlineExceeded && can_degrade) {
    // Degrade policy: one retry on the fast fallback. The primary's partial
    // work is discarded; the caller gets a real (approximate) answer with
    // fallback_used provenance instead of an error.
    {
      const LockGuard lock(mutex_);
      ++stats_.deadline_misses;  // the fallback outcome won't carry the code
    }
    finish(id, run_fallback(request, id, stopwatch), use_dedup ? &*key : nullptr);
    return;
  }
  if (outcome.status == SolveStatus::kOk && use_cache) {
    try {
      cache_.insert(*key, *outcome.result);
    } catch (...) {
      // The result is already in hand; a failing insert only loses the memo.
      cache_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  outcome.wall_seconds = stopwatch.seconds();
  finish(id, std::move(outcome), use_dedup ? &*key : nullptr);
}

SolveOutcome SchedulerService::run_fallback(const SolveRequest& request, std::uint64_t id,
                                            const Stopwatch& stopwatch) {
  SolveOutcome outcome;
  outcome.ticket = id;
  outcome.worker = WorkerPool::current_worker();
  outcome.fallback_used = true;
  SolveRequest degraded;
  degraded.instance = request.instance;
  degraded.solver = options_.fallback_solver;
  // Empty options (the request's bag belongs to the PRIMARY solver's schema)
  // and no deadline: the fallback is the bounded-work answer of last resort,
  // and cutting it off too would leave the caller with nothing.
  SolveContext context;
  try {
    outcome.result = registry_->solve(degraded, context);
    outcome.status = SolveStatus::kOk;
  } catch (const std::exception& err) {
    outcome.status = SolveStatus::kError;
    outcome.error = classify_solve_exception(err);
  } catch (...) {
    outcome.status = SolveStatus::kError;
    outcome.error = {SolveErrorCode::kSolverFailure, "non-standard exception"};
  }
  outcome.wall_seconds = stopwatch.seconds();
  return outcome;
}

void SchedulerService::finish(std::uint64_t id, SolveOutcome outcome,
                              const SolveCache::Key* inflight_key) {
  // Leader epilogue, phase 1: detach the coalescing point. No new joiner
  // can register once the entry is gone, and the cache insert already
  // happened (run_job), so a concurrent identical request that misses
  // inflight_ from here on hits the cache.
  std::vector<Inflight::Joiner> joiners;
  if (inflight_key != nullptr) {
    const LockGuard lock(mutex_);
    const auto bucket = inflight_.find(inflight_key->fingerprint);
    if (bucket != inflight_.end()) {
      auto& flights = bucket->second;
      const auto it = std::find_if(flights.begin(), flights.end(),
                                   [id](const Inflight& f) { return f.leader == id; });
      if (it != flights.end()) {
        joiners = std::move(it->joiners);
        flights.erase(it);
        if (flights.empty()) inflight_.erase(bucket);
      }
    }
  }

  // Phase 2, outside any lock: every joiner observes the leader's outcome,
  // bytes included (error outcomes too -- "the same answer" is the
  // contract, whatever it was). The full SolverResult copies (Schedule
  // included) happen here, on the still-locally-owned `outcome`, so the
  // joiner fan-out never stalls the service mutex. Provenance differs:
  // dedup_join set, serving wall measured from the moment the joiner
  // coalesced, worker = the leader's (it produced the result this ticket
  // observes).
  std::vector<SolveOutcome> joined_outcomes;
  joined_outcomes.reserve(joiners.size());
  for (const auto& joiner : joiners) {
    SolveOutcome joined = outcome;
    joined.ticket = joiner.id;
    joined.cache_hit = false;
    joined.dedup_join = true;
    joined.wall_seconds = joiner.since.seconds();
    joined_outcomes.push_back(std::move(joined));
  }

  // Phase 3: publish every terminal slot under one lock -- moves only.
  {
    const LockGuard lock(mutex_);
    Slot& slot = slots_[id];
    slot.payload->outcome = std::move(outcome);
    slot.state = JobState::kDone;
    release_request_payload(slot.payload->request);
    count_terminal_locked(slot.payload->outcome);

    for (std::size_t j = 0; j < joiners.size(); ++j) {
      Slot& joined = slots_[joiners[j].id];
      joined.payload->outcome = std::move(joined_outcomes[j]);
      joined.state = JobState::kDone;
      release_request_payload(joined.payload->request);
      count_terminal_locked(joined.payload->outcome);
    }
  }
  done_cv_.notify_all();
  deliver_ready();
}

void SchedulerService::count_terminal_locked(const SolveOutcome& outcome) {
  switch (outcome.status) {
    case SolveStatus::kOk: ++stats_.completed; break;
    case SolveStatus::kError: ++stats_.failed; break;
    case SolveStatus::kCancelled: ++stats_.cancelled; break;
  }
  // Terminal kDeadlineExceeded outcomes are counted here; a deadline miss
  // answered by the fallback is counted at its trigger site in run_job
  // (the replacement outcome no longer carries the code).
  if (outcome.error.code == SolveErrorCode::kDeadlineExceeded) ++stats_.deadline_misses;
  if (outcome.fallback_used) ++stats_.fallbacks;
}

void SchedulerService::deliver_ready() {
  // Single-deliverer protocol, re-entrancy-safe: exactly one thread at a
  // time walks next_delivery_ forward (pinning ticket order); every other
  // caller -- a worker finishing out of order, cancel() from another
  // thread, or cancel() invoked INSIDE the callback currently being
  // delivered -- just flags a rescan and returns. The active deliverer
  // re-checks the flag before retiring, so a slot that turns terminal
  // mid-delivery is never stranded. (A plain delivery mutex would deadlock
  // the documented cancel-in-callback case.)
  const ResultCallback* streaming = nullptr;
  {
    const LockGuard lock(mutex_);
    delivery_requested_ = true;
    if (delivering_) return;
    delivering_ = true;
    // Snapshot the callback's address under the lock; invoking it happens
    // outside. Safe: on_result() may only install it before the first
    // submit, so it is immutable for as long as deliveries exist.
    if (callback_) streaming = &callback_;
  }
  for (;;) {
    const SolveOutcome* out = nullptr;
    std::uint64_t delivered_id = 0;
    {
      const LockGuard lock(mutex_);
      delivery_requested_ = false;
      if (next_delivery_ < slots_.size() &&
          slots_[next_delivery_].state == JobState::kDone) {
        // Safe to hand out past the unlock: a terminal outcome is immutable,
        // slots are never erased, deque growth does not move elements, and
        // in_callback_ shields this slot from gc_slots reclamation -- so the
        // callback gets a reference with no payload copy (terminal schedules
        // can be large) and no work under the state mutex.
        delivered_id = next_delivery_;
        out = &slots_[next_delivery_].payload->outcome;
        in_callback_ = delivered_id;
        ++next_delivery_;
      }
    }
    if (out != nullptr) {
      if (streaming != nullptr) {
        // A throwing callback must neither wedge the stream (delivering_
        // stuck true, drain() blocked forever) nor escape into WorkerPool's
        // noexcept worker loop (std::terminate); the stream is
        // infrastructure, so the exception is swallowed and delivery
        // continues with the next ticket.
        try {
          (*streaming)(*out);
        } catch (...) {
        }
      }
      {
        // Counted only AFTER the callback returned: drain() waits on this,
        // so "drained" means every streamed callback has completed. The
        // delivered slot becomes reclaimable here (if a poll()/wait()
        // already observed it).
        const LockGuard lock(mutex_);
        ++stats_.delivered;
        in_callback_.reset();
        maybe_reclaim_locked(delivered_id);
      }
      done_cv_.notify_all();  // drain() watches the delivery frontier
      continue;
    }
    const LockGuard lock(mutex_);
    if (!delivery_requested_) {
      delivering_ = false;
      return;
    }
  }
}

void SchedulerService::maybe_reclaim_locked(std::uint64_t id) {
  if (!options_.gc_slots) return;
  Slot& slot = slots_[id];
  if (slot.state != JobState::kDone || slot.reclaimed || !slot.observed) return;
  if (id >= next_delivery_) return;  // not yet delivered to the stream
  if (in_callback_.has_value() && *in_callback_ == id) return;  // being read right now
  slot.payload.reset();
  slot.reclaimed = true;
  ++stats_.slots_reclaimed;
}

std::optional<SolveOutcome> SchedulerService::poll(JobTicket ticket) {
  const LockGuard lock(mutex_);
  if (ticket.id >= slots_.size()) {
    throw std::out_of_range("SchedulerService: unknown ticket " + std::to_string(ticket.id));
  }
  Slot& slot = slots_[ticket.id];
  if (slot.reclaimed) {
    throw std::logic_error("SchedulerService: ticket " + std::to_string(ticket.id) +
                           " was already observed and reclaimed (gc_slots)");
  }
  if (slot.state != JobState::kDone) return std::nullopt;
  std::optional<SolveOutcome> out = slot.payload->outcome;
  slot.observed = true;
  maybe_reclaim_locked(ticket.id);
  return out;
}

JobState SchedulerService::state(JobTicket ticket) const {
  const LockGuard lock(mutex_);
  if (ticket.id >= slots_.size()) {
    throw std::out_of_range("SchedulerService: unknown ticket " + std::to_string(ticket.id));
  }
  return slots_[ticket.id].state;
}

SolveOutcome SchedulerService::wait(JobTicket ticket) {
  const LockGuard lock(mutex_);
  if (ticket.id >= slots_.size()) {
    throw std::out_of_range("SchedulerService: unknown ticket " + std::to_string(ticket.id));
  }
  // unblocked by: finish()/cancel()/shutdown() notifying done_cv_ at every
  // terminal transition; shutdown() terminalizes whatever never ran.
  while (slots_[ticket.id].state != JobState::kDone) done_cv_.wait(mutex_);
  Slot& slot = slots_[ticket.id];
  if (slot.reclaimed) {
    throw std::logic_error("SchedulerService: ticket " + std::to_string(ticket.id) +
                           " was already observed and reclaimed (gc_slots)");
  }
  SolveOutcome out = slot.payload->outcome;
  slot.observed = true;
  maybe_reclaim_locked(ticket.id);
  return out;
}

bool SchedulerService::cancel(JobTicket ticket) {
  CancelToken token;
  bool fire_token = false;
  {
    const LockGuard lock(mutex_);
    if (ticket.id >= slots_.size()) {
      throw std::out_of_range("SchedulerService: unknown ticket " + std::to_string(ticket.id));
    }
    Slot& slot = slots_[ticket.id];
    if (slot.state == JobState::kDone) return false;
    if (slot.state == JobState::kQueued) {
      slot.state = JobState::kDone;
      slot.payload->outcome.ticket = ticket.id;
      slot.payload->outcome.status = SolveStatus::kCancelled;
      slot.payload->outcome.error.code = SolveErrorCode::kCancelled;
      release_request_payload(slot.payload->request);
      count_terminal_locked(slot.payload->outcome);
      --queued_depth_;
      // The posted closure still sits in the pool queue; run_job sees the
      // terminal state and returns without touching the slot.
    } else if (slot.joined) {
      // Dedup joiner: detach THIS ticket from its leader's coalescing point
      // (the leader keeps solving for everyone else) and turn it terminal.
      // If the leader's finish() already claimed the joiner list, the
      // coalesced outcome is imminent -- report "too late to cancel".
      bool detached = false;
      const auto bucket = inflight_.find(slot.join_fingerprint);
      if (bucket != inflight_.end()) {
        for (auto& flight : bucket->second) {
          if (flight.leader != slot.join_leader) continue;
          auto& joiners = flight.joiners;
          const auto it =
              std::find_if(joiners.begin(), joiners.end(),
                           [&](const Inflight::Joiner& j) { return j.id == ticket.id; });
          if (it != joiners.end()) {
            joiners.erase(it);
            detached = true;
          }
          break;
        }
      }
      if (!detached) return false;
      slot.state = JobState::kDone;
      slot.payload->outcome.ticket = ticket.id;
      slot.payload->outcome.status = SolveStatus::kCancelled;
      slot.payload->outcome.error = {SolveErrorCode::kCancelled,
                                     "cancelled while coalesced on an in-flight solve"};
      release_request_payload(slot.payload->request);
      count_terminal_locked(slot.payload->outcome);
    } else {
      // Running solo or dedup leader: fire the shared token outside the
      // lock. The solve observes it at the next check stride and surfaces
      // kCancelled through finish() -- which also fans the cancelled
      // outcome out to any joined tickets, so no joiner is stranded.
      token = slot.cancel;
      fire_token = true;
    }
  }
  if (fire_token) {
    token.cancel();
    return true;
  }
  done_cv_.notify_all();
  deliver_ready();
  return true;
}

void SchedulerService::drain() {
  const LockGuard lock(mutex_);
  const std::uint64_t target = slots_.size();
  // unblocked by: deliver_ready() notifying done_cv_ after each counted
  // delivery; every slot turns terminal eventually (workers finish, cancel/
  // shutdown terminalize the rest), so the frontier reaches the target.
  while (stats_.delivered < target) done_cv_.wait(mutex_);
}

void SchedulerService::shutdown() {
  {
    const LockGuard lock(mutex_);
    accepting_ = false;
    for (std::uint64_t id = 0; id < slots_.size(); ++id) {
      Slot& slot = slots_[id];
      if (slot.state != JobState::kQueued) continue;
      slot.state = JobState::kDone;
      slot.payload->outcome.ticket = id;
      slot.payload->outcome.status = SolveStatus::kCancelled;
      slot.payload->outcome.error = {SolveErrorCode::kShutdown,
                                     "service shut down before the job started"};
      release_request_payload(slot.payload->request);
      count_terminal_locked(slot.payload->outcome);
      --queued_depth_;
    }
    // Every remaining ready entry is now stale (its job just turned
    // terminal) and its closure will be discarded by pool_.shutdown() below;
    // drop the heap rather than leaving dead weight behind.
    ready_ = {};
  }
  done_cv_.notify_all();
  // Running solves finish (their closures already left the queue; in-flight
  // leaders fill their joiners inside finish(), before the join below); the
  // closures of the jobs cancelled above are discarded unrun.
  pool_.shutdown();
  // Flush the tail of the stream: everything is terminal now.
  deliver_ready();
  // Delivery quiescence (see the header contract): the deliver_ready()
  // above returns immediately when ANOTHER thread holds the single-
  // deliverer role -- it only flags a rescan. Returning then would hand
  // the caller a "shut down" service with the last streamed callback still
  // in flight (the drain()-vs-shutdown() race this contract pins). Wait
  // for the stream to fully settle instead.
  {
    const LockGuard lock(mutex_);
    // unblocked by: the active deliverer counting the final delivery and
    // notifying done_cv_; every slot is already terminal here, so the
    // frontier cannot stall.
    while (stats_.delivered < slots_.size()) done_cv_.wait(mutex_);
  }
}

ServiceStats SchedulerService::stats() const {
  ServiceStats out;
  {
    const LockGuard lock(mutex_);
    out = stats_;
  }
  out.cache_failures = cache_failures_.load(std::memory_order_relaxed);
  const SolveCacheStats cache = cache_.stats();
  out.cache_hits = cache.hits;
  out.cache_misses = cache.misses;
  out.cache_evictions = cache.evictions();
  out.cache_evictions_capacity = cache.evictions_capacity;
  out.cache_evictions_bytes = cache.evictions_bytes;
  out.cache_evictions_ttl = cache.evictions_ttl;
  out.cache_entries = cache.entries;
  out.cache_bytes = cache.bytes;
  return out;
}

}  // namespace malsched
