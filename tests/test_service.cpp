// Tests for the SchedulerService front end (src/api/scheduler_service.*),
// the content-hash SolveCache behind it, and the exec/WorkerPool it runs on:
// ordered streaming byte-identical to solve_batch, cache hit/eviction
// accounting, repeat-solve determinism, cancellation mid-stream, and
// graceful shutdown with pending jobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/scheduler_service.hpp"
#include "api/solve_batch.hpp"
#include "api/solve_cache.hpp"
#include "exec/batch_json.hpp"
#include "exec/worker_pool.hpp"
#include "support/mutex.hpp"
#include "workload/generators.hpp"

namespace malsched {
namespace {

Instance small_instance(std::uint64_t seed, int tasks = 16, int machines = 8) {
  GeneratorOptions options;
  options.tasks = tasks;
  options.machines = machines;
  const auto families = all_workload_families();
  return generate_instance(families[seed % families.size()], options, seed);
}

/// A mixed batch, one same-instance mrt pair that differs only in epsilon
/// (two cache misses on one instance), and exact-duplicate tails (the
/// duplicates share the instance AND the options, so they are cache-hit
/// material).
std::vector<SolveRequest> mixed_jobs_with_duplicates(std::size_t base_count) {
  const std::vector<std::pair<std::string, std::string>> configs{
      {"mrt", ""},
      {"two_phase", "rigid=ffdh"},
      {"naive", "policy=lpt-seq"},
      {"two_shelves_32", ""},
  };
  std::vector<SolveRequest> jobs;
  for (std::size_t i = 0; i < base_count; ++i) {
    const auto& [solver, spec] = configs[i % configs.size()];
    jobs.push_back({solver, SolverOptions::from_string(spec),
                    InstanceHandle::intern(small_instance(200 + i))});
  }
  const auto pair_instance = InstanceHandle::intern(small_instance(200 + base_count));
  jobs.push_back({"mrt", SolverOptions::from_string("epsilon=0.05"), pair_instance});
  jobs.push_back({"mrt", SolverOptions::from_string("epsilon=0.02"), pair_instance});
  // Exact duplicates of two non-mrt jobs (same interned instance, same
  // options): deterministic cache hits once the original has completed.
  jobs.push_back({jobs[1].solver, jobs[1].options, jobs[1].instance});
  jobs.push_back({jobs[2].solver, jobs[2].options, jobs[2].instance});
  return jobs;
}

/// Outcomes reshaped as a BatchReport so the byte-compare reuses the proven
/// exec/batch_json serialization.
BatchReport report_from(const std::vector<SolveOutcome>& outcomes) {
  BatchReport report;
  for (const auto& outcome : outcomes) {
    BatchItem item;
    item.index = outcome.ticket;
    item.status = outcome.status;
    item.result = outcome.result;
    item.error = outcome.error;
    switch (item.status) {
      case SolveStatus::kOk: ++report.ok; break;
      case SolveStatus::kError: ++report.errors; break;
      case SolveStatus::kCancelled: ++report.cancelled; break;
    }
    report.items.push_back(std::move(item));
  }
  return report;
}

/// Two-way latch for the blocking test solver: the test waits for the solve
/// to start, the solve waits for the test to release it.
struct Gate {
  Mutex mutex;
  CondVar cv;
  bool entered MALSCHED_GUARDED_BY(mutex){false};
  bool open MALSCHED_GUARDED_BY(mutex){false};

  void enter_and_wait() MALSCHED_EXCLUDES(mutex) {
    const LockGuard lock(mutex);
    entered = true;
    cv.notify_all();
    while (!open) cv.wait(mutex);
  }
  void wait_entered() MALSCHED_EXCLUDES(mutex) {
    const LockGuard lock(mutex);
    while (!entered) cv.wait(mutex);
  }
  void release() MALSCHED_EXCLUDES(mutex) {
    {
      const LockGuard lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
};

Schedule sequential_schedule(const Instance& instance) {
  Schedule schedule(instance.machines(), instance.size());
  double t = 0.0;
  for (int i = 0; i < instance.size(); ++i) {
    schedule.assign(i, t, instance.task(i).time(1), 0, 1);
    t += instance.task(i).time(1);
  }
  return schedule;
}

/// Registry with a fast solver, a gate-blocked solver, and a throwing one.
SolverRegistry gated_registry(const std::shared_ptr<Gate>& gate) {
  SolverRegistry registry;
  registry.add("seq", "sequential on processor 0",
               [](const Instance& instance, const SolverOptions&) {
                 return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
               });
  registry.add("gate", "blocks until the test releases it",
               [gate](const Instance& instance, const SolverOptions&) {
                 gate->enter_and_wait();
                 return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
               });
  registry.add("boom", "always throws",
               [](const Instance&, const SolverOptions&) -> SolverResult {
                 throw std::runtime_error("boom: simulated solver failure");
               });
  return registry;
}

// ------------------------------------------------------- ordered streaming

// The acceptance property: the streamed sequence at 1/2/8 threads is
// byte-identical to solve_batch on the same jobs (schedules included;
// timing excluded -- the one legitimately nondeterministic field).
TEST(SchedulerService, StreamsInTicketOrderByteIdenticalToSolveBatch) {
  const auto jobs = mixed_jobs_with_duplicates(24);
  BatchJsonOptions json;
  json.include_timing = false;
  json.include_schedules = true;
  const std::string reference = batch_report_json(solve_batch(jobs), json);

  for (const unsigned threads : {1u, 2u, 8u}) {
    ServiceConfig options;
    options.threads = threads;
    SchedulerService service(options);
    std::vector<SolveOutcome> streamed;
    service.on_result([&streamed](const SolveOutcome& outcome) {
      // Delivery is serialized by contract; no lock needed.
      streamed.push_back(outcome);
    });
    const auto tickets = service.submit(jobs);
    ASSERT_EQ(tickets.size(), jobs.size());
    service.drain();

    ASSERT_EQ(streamed.size(), jobs.size());
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      EXPECT_EQ(streamed[i].ticket, i) << "stream must arrive in ticket order";
    }
    EXPECT_EQ(batch_report_json(report_from(streamed), json), reference)
        << "streamed results differ from solve_batch at " << threads << " threads";
    EXPECT_EQ(service.stats().delivered, jobs.size());
  }
}

TEST(SchedulerService, PollWaitStateLifecycle) {
  const auto gate = std::make_shared<Gate>();
  const auto registry = gated_registry(gate);
  ServiceConfig options;
  options.threads = 1;
  options.registry = &registry;
  SchedulerService service(options);

  const auto blocked = service.submit({"gate", {}, InstanceHandle::intern(small_instance(1))});
  gate->wait_entered();
  EXPECT_EQ(service.state(blocked), JobState::kRunning);
  EXPECT_FALSE(service.poll(blocked).has_value());

  const auto queued = service.submit({"seq", {}, InstanceHandle::intern(small_instance(2))});
  EXPECT_EQ(service.state(queued), JobState::kQueued);

  gate->release();
  const auto outcome = service.wait(queued);
  EXPECT_EQ(outcome.status, SolveStatus::kOk);
  EXPECT_EQ(outcome.ticket, queued.id);
  EXPECT_EQ(service.state(queued), JobState::kDone);
  ASSERT_TRUE(service.poll(blocked).has_value() || service.wait(blocked).status ==
                                                       SolveStatus::kOk);

  const JobTicket bogus{999};
  EXPECT_THROW(static_cast<void>(service.poll(bogus)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(service.state(bogus)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(service.wait(bogus)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(service.cancel(bogus)), std::out_of_range);
}

TEST(SchedulerService, ErrorsAreIsolatedPerJob) {
  const auto gate = std::make_shared<Gate>();
  const auto registry = gated_registry(gate);
  ServiceConfig options;
  options.threads = 2;
  options.registry = &registry;
  SchedulerService service(options);
  const auto bad = service.submit({"boom", {}, InstanceHandle::intern(small_instance(3))});
  const auto good = service.submit({"seq", {}, InstanceHandle::intern(small_instance(4))});
  const auto failed = service.wait(bad);
  EXPECT_EQ(failed.status, SolveStatus::kError);
  EXPECT_EQ(failed.error.code, SolveErrorCode::kSolverFailure);
  EXPECT_NE(failed.error.detail.find("boom"), std::string::npos);
  EXPECT_EQ(service.wait(good).status, SolveStatus::kOk);
  const auto stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

// ------------------------------------------------------------- solve cache

TEST(SchedulerService, CacheHitIsByteIdenticalAndCounted) {
  ServiceConfig options;
  options.threads = 1;
  SchedulerService service(options);
  const auto instance = InstanceHandle::intern(small_instance(7));
  const SolveRequest job{"mrt", SolverOptions::from_string("epsilon=0.05"), instance};

  const auto first = service.wait(service.submit(job));
  const auto second = service.wait(service.submit(job));
  ASSERT_EQ(first.status, SolveStatus::kOk);
  ASSERT_EQ(second.status, SolveStatus::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);

  // The memoized result is the first result, bytes included (stats too --
  // the solvers are deterministic). Tickets naturally differ; normalize them
  // so the compare sees only the payload.
  BatchJsonOptions json;
  json.include_timing = false;
  json.include_schedules = true;
  auto first_norm = first;
  auto second_norm = second;
  first_norm.ticket = 0;
  second_norm.ticket = 0;
  EXPECT_EQ(batch_report_json(report_from({second_norm}), json),
            batch_report_json(report_from({first_norm}), json));

  const auto stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);

  // Content addressing: an identical but separately generated instance hits
  // the same entry (no shared handle required).
  const SolveRequest regenerated{"mrt", SolverOptions::from_string("epsilon=0.05"),
                                 InstanceHandle::intern(small_instance(7))};
  EXPECT_TRUE(service.wait(service.submit(regenerated)).cache_hit);
}

TEST(SchedulerService, CacheRespectsPerJobOptOutAndServiceSwitch) {
  const auto instance = InstanceHandle::intern(small_instance(9));
  const SolveRequest job{"two_phase", SolverOptions::from_string("rigid=ffdh"), instance};

  {
    ServiceConfig options;
    options.threads = 1;
    SchedulerService service(options);
    SolveRequest no_cache = job;
    no_cache.use_cache = false;
    static_cast<void>(service.wait(service.submit(no_cache)));
    const auto repeat = service.wait(service.submit(no_cache));
    EXPECT_FALSE(repeat.cache_hit);
    const auto stats = service.stats();
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.cache_misses, 0u);  // opted-out jobs never even look
    EXPECT_EQ(stats.cache_entries, 0u);
  }
  {
    ServiceConfig options;
    options.threads = 1;
    options.cache = false;  // service-wide off switch
    SchedulerService service(options);
    static_cast<void>(service.wait(service.submit(job)));
    EXPECT_FALSE(service.wait(service.submit(job)).cache_hit);
    EXPECT_EQ(service.stats().cache_entries, 0u);
  }
}

TEST(SchedulerService, CacheEvictsLeastRecentlyUsedAndCountsIt) {
  ServiceConfig options;
  options.threads = 1;
  options.cache_capacity = 2;
  SchedulerService service(options);
  const auto submit_seed = [&](std::uint64_t seed) {
    return service.wait(service.submit({"naive", SolverOptions::from_string("policy=lpt-seq"),
                                        InstanceHandle::intern(small_instance(seed))}));
  };
  static_cast<void>(submit_seed(11));  // cache: {11}
  static_cast<void>(submit_seed(12));  // cache: {12, 11}
  static_cast<void>(submit_seed(13));  // evicts 11 -> {13, 12}
  auto stats = service.stats();
  EXPECT_EQ(stats.cache_evictions, 1u);
  EXPECT_EQ(stats.cache_entries, 2u);
  EXPECT_TRUE(submit_seed(12).cache_hit);    // still resident
  EXPECT_FALSE(submit_seed(11).cache_hit);   // was evicted, solves again
}

// ---------------------------------------------------- repeat determinism

// One worker, cache off: the same mrt request solved twice in a row. Each
// solve builds its own DualWorkspace, so both outcomes match each other and
// the direct registry solve in every field but wall time -- the
// workspace.* counters included.
TEST(SchedulerService, RepeatedMrtSolveMatchesTheDirectSolveIncludingWorkspaceCounters) {
  ServiceConfig options;
  options.threads = 1;
  options.cache = false;
  SchedulerService service(options);
  const SolveRequest request{"mrt", SolverOptions::from_string("epsilon=0.05"),
                             InstanceHandle::intern(small_instance(21, 24, 12))};

  const auto first = service.wait(service.submit(request));
  const auto second = service.wait(service.submit(request));
  ASSERT_EQ(first.status, SolveStatus::kOk);
  ASSERT_EQ(second.status, SolveStatus::kOk);
  EXPECT_FALSE(first.cache_hit || second.cache_hit);
  EXPECT_FALSE(first.dedup_join || second.dedup_join);
  EXPECT_EQ(first.worker, second.worker);
  EXPECT_GE(first.result->stat("workspace.allocations", -1.0), 0.0);

  BatchJsonOptions json;
  json.include_timing = false;
  json.include_schedules = true;
  const auto as_json = [&json](const SolverResult& result) {
    JsonWriter writer;
    append_result_json(writer, result, json);
    return writer.str();
  };
  const std::string direct = as_json(SolverRegistry::global().solve(request));
  EXPECT_EQ(as_json(*first.result), direct);
  EXPECT_EQ(as_json(*second.result), direct);
}

// ----------------------------------------------------------- in-flight dedup

/// Registry with one solver that counts invocations and blocks on the gate:
/// the probe for "exactly one underlying solve" under concurrent duplicates.
SolverRegistry counting_gated_registry(const std::shared_ptr<Gate>& gate,
                                       const std::shared_ptr<std::atomic<int>>& solves) {
  SolverRegistry registry;
  registry.add("counted-gate", "counts invocations, blocks until released",
               [gate, solves](const Instance& instance, const SolverOptions&) {
                 solves->fetch_add(1);
                 gate->enter_and_wait();
                 return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
               });
  return registry;
}

// The acceptance property for dedup: N identical concurrent submissions
// produce exactly ONE solver invocation, every ticket observes a
// byte-identical outcome, and the hits/joins accounting closes -- at any
// worker count. The gate holds the leader in flight until (for >1 workers)
// every duplicate has coalesced, which makes the join count deterministic:
// joining is non-blocking, so a single extra worker drains all duplicates
// into joiners while the leader still solves.
TEST(SchedulerService, InFlightDedupCoalescesToOneSolveAtAnyThreadCount) {
  const auto handle = InstanceHandle::intern(small_instance(91, 24, 12));
  constexpr std::size_t kDuplicates = 8;

  for (const unsigned threads : {1u, 2u, 8u}) {
    const auto gate = std::make_shared<Gate>();
    const auto solves = std::make_shared<std::atomic<int>>(0);
    const auto registry = counting_gated_registry(gate, solves);
    ServiceConfig options;
    options.threads = threads;
    options.registry = &registry;
    SchedulerService service(options);

    const std::vector<SolveRequest> requests(kDuplicates,
                                             SolveRequest{"counted-gate", {}, handle});
    const auto tickets = service.submit(requests);
    gate->wait_entered();
    if (threads > 1) {
      while (service.stats().dedup_joins < kDuplicates - 1) std::this_thread::yield();
    }
    gate->release();
    service.drain();

    EXPECT_EQ(solves->load(), 1)
        << "duplicates must coalesce onto one solve at " << threads << " threads";
    const auto stats = service.stats();
    EXPECT_EQ(stats.dedup_joins + stats.cache_hits, kDuplicates - 1)
        << "every non-leader must be served by a join or a hit";
    if (threads > 1) {
      // One worker solves, the rest join: with the leader gated, no
      // duplicate can ever see the cache populated.
      EXPECT_EQ(stats.dedup_joins, kDuplicates - 1);
    } else {
      // One worker serializes everything: the duplicates run after the
      // leader finished and hit the cache instead.
      EXPECT_EQ(stats.cache_hits, kDuplicates - 1);
    }
    EXPECT_EQ(stats.completed, kDuplicates);

    // Byte-identical outcomes: every ticket's payload serializes exactly
    // like the leader's (tickets normalized; provenance is not payload).
    BatchJsonOptions json;
    json.include_timing = false;
    json.include_schedules = true;
    std::vector<SolveOutcome> outcomes;
    for (const auto ticket : tickets) outcomes.push_back(service.wait(ticket));
    const auto leader = std::find_if(outcomes.begin(), outcomes.end(), [](const SolveOutcome& o) {
      return !o.dedup_join && !o.cache_hit;
    });
    ASSERT_NE(leader, outcomes.end());
    auto leader_norm = *leader;
    leader_norm.ticket = 0;
    const auto reference = batch_report_json(report_from({leader_norm}), json);
    for (const auto& outcome : outcomes) {
      EXPECT_EQ(outcome.status, SolveStatus::kOk);
      EXPECT_GE(outcome.worker, 0);
      auto normalized = outcome;
      normalized.ticket = 0;
      EXPECT_EQ(batch_report_json(report_from({normalized}), json), reference);
    }
  }
}

TEST(SchedulerService, CacheOptOutAlsoSkipsDedup) {
  const auto gate = std::make_shared<Gate>();
  const auto solves = std::make_shared<std::atomic<int>>(0);
  const auto registry = counting_gated_registry(gate, solves);
  ServiceConfig options;
  options.threads = 2;
  options.registry = &registry;
  SchedulerService service(options);

  const auto handle = InstanceHandle::intern(small_instance(92, 24, 12));
  const std::vector<SolveRequest> requests(
      3, SolveRequest{"counted-gate", {}, handle, /*consult_cache=*/false});
  static_cast<void>(service.submit(requests));
  gate->wait_entered();
  gate->release();  // the gate stays open for every later entrant
  service.drain();

  EXPECT_EQ(solves->load(), 3) << "opted-out duplicates must each measure a real solve";
  const auto stats = service.stats();
  EXPECT_EQ(stats.dedup_joins, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);
}

// The acceptance audit: after intern(), nothing on the submit path -- key
// construction, cache lookups, hits, misses, dedup bookkeeping -- reads
// profile bits again. One intern, one content hash, however many submits.
TEST(SchedulerService, SubmitPathNeverRehashesProfilesAfterIntern) {
  ServiceConfig options;
  options.threads = 1;
  SchedulerService service(options);

  const auto before = InstanceHandle::content_hashes();
  const auto handle = InstanceHandle::intern(small_instance(95));
  ASSERT_EQ(InstanceHandle::content_hashes(), before + 1);

  const auto submit = [&](const char* solver, const char* spec) {
    return service.wait(
        service.submit(SolveRequest{solver, SolverOptions::from_string(spec), handle}));
  };
  EXPECT_FALSE(submit("mrt", "epsilon=0.05").cache_hit);  // miss + solve + insert
  EXPECT_TRUE(submit("mrt", "epsilon=0.05").cache_hit);   // hit
  EXPECT_FALSE(submit("mrt", "epsilon=0.02").cache_hit);  // new options: miss
  EXPECT_FALSE(submit("naive", "policy=lpt-seq").cache_hit);  // new solver: miss
  EXPECT_TRUE(submit("naive", "policy=lpt-seq").cache_hit);

  EXPECT_EQ(InstanceHandle::content_hashes(), before + 1)
      << "the submit path re-hashed profile bits after intern()";
}

TEST(SchedulerService, VectorSubmitIsAllOrNothingOnInvalidRequests) {
  ServiceConfig options;
  options.threads = 1;
  SchedulerService service(options);
  const auto handle = InstanceHandle::intern(small_instance(97));
  std::vector<SolveRequest> requests;
  requests.emplace_back("naive", SolverOptions::from_string("policy=lpt-seq"), handle);
  requests.push_back(SolveRequest{});  // empty handle: the whole batch must be rejected
  EXPECT_THROW(static_cast<void>(service.submit(std::move(requests))), std::invalid_argument);
  EXPECT_EQ(service.stats().submitted, 0u) << "no ticket may be issued from a rejected batch";
  service.drain();  // returns immediately: nothing was enqueued
}

TEST(SchedulerService, ProvenanceStampsWorkerAndServingPath) {
  ServiceConfig options;
  options.threads = 1;
  SchedulerService service(options);
  const auto handle = InstanceHandle::intern(small_instance(96));
  const SolveRequest request{"naive", SolverOptions::from_string("policy=lpt-seq"), handle};

  const auto solved = service.wait(service.submit(request));
  EXPECT_EQ(solved.worker, 0);  // one worker: index 0 produced it
  EXPECT_FALSE(solved.cache_hit);
  EXPECT_FALSE(solved.dedup_join);

  const auto hit = service.wait(service.submit(request));
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_FALSE(hit.dedup_join);
  EXPECT_EQ(hit.worker, -1) << "a submit-time cache hit is served inline, off-pool";
}

// ------------------------------------------------------- slot garbage collection

TEST(SchedulerService, GcSlotsReclaimsObservedDeliveredOutcomes) {
  ServiceConfig options;
  options.threads = 1;
  options.gc_slots = true;
  SchedulerService service(options);
  const auto handle = InstanceHandle::intern(small_instance(62));
  const auto first =
      service.submit(SolveRequest{"naive", SolverOptions::from_string("policy=lpt-seq"), handle});
  const auto second = service.submit(
      SolveRequest{"naive", SolverOptions::from_string("policy=half-speedup"), handle});

  EXPECT_EQ(service.wait(first).status, SolveStatus::kOk);  // observed
  service.drain();  // delivery frontier passes both tickets

  // Observed AND delivered -> reclaimed: the outcome is a take-once value.
  EXPECT_THROW(static_cast<void>(service.poll(first)), std::logic_error);
  EXPECT_THROW(static_cast<void>(service.wait(first)), std::logic_error);
  EXPECT_EQ(service.state(first), JobState::kDone);  // cheap state stays readable

  // Delivered but never observed -> intact until the first read...
  const auto outcome = service.poll(second);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->status, SolveStatus::kOk);
  // ... which reclaims it too.
  EXPECT_THROW(static_cast<void>(service.poll(second)), std::logic_error);

  EXPECT_EQ(service.stats().slots_reclaimed, 2u);
}

TEST(SchedulerService, GcOffKeepsOutcomesReadableForever) {
  SchedulerService service{ServiceConfig{}};  // gc_slots defaults off
  const auto handle = InstanceHandle::intern(small_instance(63));
  const auto ticket =
      service.submit(SolveRequest{"naive", SolverOptions::from_string("policy=lpt-seq"), handle});
  static_cast<void>(service.wait(ticket));
  service.drain();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.poll(ticket).has_value());
  }
  EXPECT_EQ(service.stats().slots_reclaimed, 0u);
}

// ------------------------------------------------- cancellation + shutdown

TEST(SchedulerService, CancellationMidStreamDeliversInOrder) {
  const auto gate = std::make_shared<Gate>();
  const auto registry = gated_registry(gate);
  ServiceConfig options;
  options.threads = 1;
  options.registry = &registry;
  SchedulerService service(options);
  std::vector<SolveOutcome> streamed;
  service.on_result([&streamed](const SolveOutcome& outcome) { streamed.push_back(outcome); });

  const auto running = service.submit({"gate", {}, InstanceHandle::intern(small_instance(31))});
  const auto pending = service.submit({"seq", {}, InstanceHandle::intern(small_instance(32))});
  const auto doomed = service.submit({"seq", {}, InstanceHandle::intern(small_instance(33))});
  gate->wait_entered();

  EXPECT_TRUE(service.cancel(doomed));  // still queued: cancels
  // Running: the request is DELIVERED (true) -- but the gate solver never
  // polls its token, so its real kOk outcome stands below (cooperative
  // cancellation is best-effort by construction).
  EXPECT_TRUE(service.cancel(running));
  // Cancelled outcome is observable immediately via poll ...
  ASSERT_TRUE(service.poll(doomed).has_value());
  EXPECT_EQ(service.poll(doomed)->status, SolveStatus::kCancelled);
  // ... but enters the stream only in ticket order, after its predecessors.
  EXPECT_TRUE(streamed.empty());

  gate->release();
  service.drain();
  ASSERT_EQ(streamed.size(), 3u);
  EXPECT_EQ(streamed[0].ticket, running.id);
  EXPECT_EQ(streamed[0].status, SolveStatus::kOk);
  EXPECT_EQ(streamed[1].ticket, pending.id);
  EXPECT_EQ(streamed[1].status, SolveStatus::kOk);
  EXPECT_EQ(streamed[2].ticket, doomed.id);
  EXPECT_EQ(streamed[2].status, SolveStatus::kCancelled);

  EXPECT_FALSE(service.cancel(pending));  // terminal: refused
  EXPECT_EQ(service.stats().cancelled, 1u);
}

/// Cancellation-aware blocking solver for the dedup-cancel regressions:
/// spins on an atomic gate, polling the SolveContext cancel check, so a
/// fired CancelToken actually stops it (the CondVar Gate above never could).
SolverRegistry polling_registry(const std::shared_ptr<std::atomic<bool>>& entered,
                                const std::shared_ptr<std::atomic<bool>>& open) {
  SolverRegistry registry;
  registry.add_with_context(
      "block", "spins until released or cancelled",
      [entered, open](const Instance& instance, const SolverOptions&,
                      const SolveContext& context) -> SolverResult {
        const CancelCheck check(context.cancel, context.deadline_seconds);
        entered->store(true);
        while (!open->load()) {
          check.poll();  // throws CancelledError once cancel() fires
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
      });
  return registry;
}

// Regression: cancelling a dedup LEADER must not strand its joiners -- the
// cancelled outcome fans out to every joined ticket through finish().
TEST(SchedulerService, CancelledLeaderDeliversCancelledOutcomesToJoiners) {
  const auto entered = std::make_shared<std::atomic<bool>>(false);
  const auto open = std::make_shared<std::atomic<bool>>(false);
  const auto registry = polling_registry(entered, open);
  ServiceConfig options;
  options.threads = 2;
  options.registry = &registry;
  SchedulerService service(options);

  const auto handle = InstanceHandle::intern(small_instance(44));
  const SolveRequest request{"block", {}, handle};
  const auto leader = service.submit(request);
  while (!entered->load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto joiner = service.submit(request);  // identical: coalesces
  while (service.stats().dedup_joins == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  EXPECT_TRUE(service.cancel(leader));  // fires the leader's token
  const SolveOutcome leader_outcome = service.wait(leader);
  EXPECT_EQ(leader_outcome.status, SolveStatus::kCancelled);
  EXPECT_EQ(leader_outcome.error.code, SolveErrorCode::kCancelled);
  const SolveOutcome joined_outcome = service.wait(joiner);
  EXPECT_EQ(joined_outcome.status, SolveStatus::kCancelled);
  EXPECT_TRUE(joined_outcome.dedup_join);  // coalesced, not stranded
  EXPECT_EQ(service.stats().cancelled, 2u);
  service.drain();
}

// The complementary direction: cancelling a JOINER detaches just that
// ticket; the leader keeps solving and completes normally.
TEST(SchedulerService, CancelDetachesAJoinerWithoutDisturbingTheLeader) {
  const auto entered = std::make_shared<std::atomic<bool>>(false);
  const auto open = std::make_shared<std::atomic<bool>>(false);
  const auto registry = polling_registry(entered, open);
  ServiceConfig options;
  options.threads = 2;
  options.registry = &registry;
  SchedulerService service(options);

  const auto handle = InstanceHandle::intern(small_instance(45));
  const SolveRequest request{"block", {}, handle};
  const auto leader = service.submit(request);
  while (!entered->load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto joiner = service.submit(request);
  while (service.stats().dedup_joins == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  EXPECT_TRUE(service.cancel(joiner));
  const SolveOutcome joined_outcome = service.wait(joiner);  // terminal NOW
  EXPECT_EQ(joined_outcome.status, SolveStatus::kCancelled);
  open->store(true);  // release the (undisturbed) leader
  const SolveOutcome leader_outcome = service.wait(leader);
  EXPECT_EQ(leader_outcome.status, SolveStatus::kOk);
  const auto stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.dedup_joins, 1u);
  service.drain();
}

// Regression for the shutdown/drain ordering contract: shutdown() must not
// return while an OFF-POOL deliverer (here: a submit-time cache hit on a
// caller thread) still has the last streamed callback in flight.
TEST(SchedulerService, ShutdownWaitsForAnOffPoolDelivererToFinishTheStream) {
  ServiceConfig options;
  options.threads = 1;
  SchedulerService service(options);
  std::atomic<bool> in_callback{false};
  std::atomic<int> streamed{0};
  service.on_result([&](const SolveOutcome& outcome) {
    if (outcome.cache_hit) {
      in_callback.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ++streamed;
  });
  const auto handle = InstanceHandle::intern(small_instance(83));
  const SolveRequest request{"naive", SolverOptions::from_string("policy=lpt-seq"), handle};
  static_cast<void>(service.wait(service.submit(request)));
  service.drain();  // the real solve is delivered by the worker
  std::thread hitter([&service, &request] {
    // Submit-time cache hit: THIS thread becomes the deliverer and sleeps
    // inside the callback above.
    static_cast<void>(service.submit(request));
  });
  while (!in_callback.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  service.shutdown();
  // The contract: when shutdown() returns, the stream is complete -- even
  // though the deliverer was never a pool thread the shutdown join covers.
  EXPECT_EQ(streamed.load(), 2);
  EXPECT_EQ(service.stats().delivered, 2u);
  hitter.join();
}

// ServiceConfig::validate() must reject the robustness knobs' invalid
// combinations at construction, each with a readable message.
TEST(SchedulerService, ConfigRejectsBadRobustnessKnobs) {
  ServiceConfig negative_depth;
  negative_depth.max_queue_depth = -1;
  EXPECT_THROW(SchedulerService{negative_depth}, std::invalid_argument);

  ServiceConfig unknown_policy;
  unknown_policy.overload_policy = "drop_everything";
  EXPECT_THROW(SchedulerService{unknown_policy}, std::invalid_argument);

  ServiceConfig degrade_without_fallback;
  degrade_without_fallback.overload_policy = "degrade";
  EXPECT_THROW(SchedulerService{degrade_without_fallback}, std::invalid_argument);

  ServiceConfig unregistered_fallback;
  unregistered_fallback.fallback_solver = "definitely_not_registered";
  EXPECT_THROW(SchedulerService{unregistered_fallback}, std::invalid_argument);

  ServiceConfig good;
  good.max_queue_depth = 4;
  good.overload_policy = "degrade";
  good.fallback_solver = "two_phase";  // registered in the global registry
  EXPECT_NO_THROW(SchedulerService{good});
}

// The documented cancel-inside-the-callback case: delivery is re-entrant
// (rescan protocol), so cancelling a later queued ticket from the stream
// neither deadlocks nor breaks ticket order.
TEST(SchedulerService, CancelFromInsideTheCallbackDoesNotDeadlock) {
  ServiceConfig options;
  options.threads = 1;
  SchedulerService service(options);
  std::vector<std::pair<std::uint64_t, SolveStatus>> streamed;
  service.on_result([&](const SolveOutcome& outcome) {
    streamed.emplace_back(outcome.ticket, outcome.status);
    if (outcome.ticket == 0) {
      // Tickets are dense in submission order, and the atomic three-job
      // submission below guarantees ticket 2 exists; with one worker (busy
      // delivering ticket 0 right now) it is still queued, so this cancels.
      EXPECT_TRUE(service.cancel(JobTicket{2}));
    }
  });
  const SolveRequest job{"naive", SolverOptions::from_string("policy=lpt-seq"),
                         InstanceHandle::intern(small_instance(81)), /*consult_cache=*/false};
  static_cast<void>(service.submit({job, job, job}));
  service.drain();
  ASSERT_EQ(streamed.size(), 3u);
  EXPECT_EQ(streamed[0], (std::pair<std::uint64_t, SolveStatus>{0, SolveStatus::kOk}));
  EXPECT_EQ(streamed[1], (std::pair<std::uint64_t, SolveStatus>{1, SolveStatus::kOk}));
  EXPECT_EQ(streamed[2],
            (std::pair<std::uint64_t, SolveStatus>{2, SolveStatus::kCancelled}));
}

TEST(SchedulerService, ShutdownWithPendingJobsCancelsThemAndJoins) {
  const auto gate = std::make_shared<Gate>();
  const auto registry = gated_registry(gate);
  ServiceConfig options;
  options.threads = 1;
  options.registry = &registry;
  SchedulerService service(options);
  std::vector<SolveOutcome> streamed;
  service.on_result([&streamed](const SolveOutcome& outcome) { streamed.push_back(outcome); });

  const auto running = service.submit({"gate", {}, InstanceHandle::intern(small_instance(41))});
  std::vector<JobTicket> pending;
  for (std::uint64_t s = 0; s < 5; ++s) {
    pending.push_back(service.submit({"seq", {}, InstanceHandle::intern(small_instance(42 + s))}));
  }
  gate->wait_entered();

  // Shutdown from another thread while a solve is in flight: it must wait
  // for the running job, cancel the queued ones, and join cleanly. The gate
  // is held shut until shutdown has visibly cancelled the queued jobs, so
  // none of them can sneak into the worker first.
  std::thread stopper([&service] { service.shutdown(); });
  while (service.stats().cancelled < pending.size()) {
    std::this_thread::yield();
  }
  gate->release();
  stopper.join();

  EXPECT_EQ(service.wait(running).status, SolveStatus::kOk);
  for (const auto ticket : pending) {
    const auto outcome = service.poll(ticket);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->status, SolveStatus::kCancelled);
  }
  ASSERT_EQ(streamed.size(), 1u + pending.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) EXPECT_EQ(streamed[i].ticket, i);

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 5u);
  EXPECT_EQ(stats.delivered, 6u);

  EXPECT_THROW(
      static_cast<void>(service.submit({"seq", {}, InstanceHandle::intern(small_instance(50))})),
      std::runtime_error);
  service.shutdown();  // idempotent
}

TEST(SchedulerService, DrainCoversEverythingSubmittedBeforeTheCall) {
  SchedulerService service{ServiceConfig{}};
  const auto jobs = mixed_jobs_with_duplicates(8);
  const auto tickets = service.submit(jobs);
  service.drain();
  for (const auto ticket : tickets) {
    ASSERT_TRUE(service.poll(ticket).has_value());
  }
  EXPECT_EQ(service.stats().delivered, jobs.size());
  service.drain();  // idempotent on a quiet service
}

TEST(SchedulerService, OnResultAfterFirstSubmitThrows) {
  SchedulerService service{ServiceConfig{}};
  static_cast<void>(service.submit({"naive", SolverOptions::from_string("policy=lpt-seq"),
                                    InstanceHandle::intern(small_instance(61))}));
  EXPECT_THROW(service.on_result([](const SolveOutcome&) {}), std::logic_error);
  service.drain();
}

// --------------------------------------------------------------- SolveCache

TEST(SolveCache, ContentAddressingSurvivesRegenerationAndCatchesDifferences) {
  const auto base = InstanceHandle::intern(small_instance(71));
  const auto same_content = InstanceHandle::intern(small_instance(71));
  const auto different = InstanceHandle::intern(small_instance(72));
  const auto options = SolverOptions::from_string("epsilon=0.05");

  const auto key_a = SolveCache::make_key("mrt", options, base);
  const auto key_b = SolveCache::make_key("mrt", options, same_content);
  const auto key_c = SolveCache::make_key("mrt", options, different);
  const auto key_d = SolveCache::make_key("two_phase", options, base);
  EXPECT_EQ(key_a.fingerprint, key_b.fingerprint);
  EXPECT_NE(key_a.fingerprint, key_c.fingerprint);
  EXPECT_NE(key_a.fingerprint, key_d.fingerprint);

  SolveCacheConfig config;
  config.capacity = 4;
  SolveCache cache(config);
  const auto result = SolverRegistry::global().solve(SolveRequest("mrt", options, base));
  cache.insert(key_a, result);
  EXPECT_NE(cache.lookup(key_b), nullptr);  // same content, new object
  EXPECT_EQ(cache.lookup(key_c), nullptr);
  EXPECT_EQ(cache.lookup(key_d), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(SolveCache, KeyConstructionFromAHandleDoesNotRehashProfiles) {
  const auto handle = InstanceHandle::intern(small_instance(75));
  const auto before = InstanceHandle::content_hashes();
  const auto key_a = SolveCache::make_key("mrt", SolverOptions::from_string("epsilon=0.05"),
                                          handle);
  const auto key_b = SolveCache::make_key("mrt", SolverOptions::from_string("epsilon=0.02"),
                                          handle);
  EXPECT_EQ(InstanceHandle::content_hashes(), before);
  EXPECT_NE(key_a.fingerprint, key_b.fingerprint);  // options are part of the key
  // Interning is the one step that hashes.
  const auto key_c = SolveCache::make_key("mrt", SolverOptions::from_string("epsilon=0.05"),
                                          InstanceHandle::intern(handle.shared()));
  EXPECT_EQ(InstanceHandle::content_hashes(), before + 1);
  EXPECT_EQ(key_c.fingerprint, key_a.fingerprint);
}

TEST(SolveCache, TtlExpiresEntriesAndCountsTheCause) {
  double fake_now = 0.0;
  SolveCacheConfig config;
  config.capacity = 8;
  config.ttl_seconds = 10.0;
  config.clock = [&fake_now] { return fake_now; };
  SolveCache cache(config);

  const auto handle = InstanceHandle::intern(small_instance(76));
  const auto key = SolveCache::make_key("mrt", {}, handle);
  const auto result = SolverRegistry::global().solve(SolveRequest("mrt", {}, handle));
  cache.insert(key, result);

  fake_now = 5.0;
  EXPECT_NE(cache.lookup(key), nullptr);  // young enough: hit
  fake_now = 16.0;
  EXPECT_EQ(cache.lookup(key), nullptr);  // stale: expired on access
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions_ttl, 1u);
  EXPECT_EQ(stats.evictions_capacity, 0u);
  EXPECT_EQ(stats.entries, 0u);

  // Re-inserting after expiry starts a fresh lifetime.
  cache.insert(key, result);
  fake_now = 20.0;
  EXPECT_NE(cache.lookup(key), nullptr);
}

TEST(SolveCache, TtlRefreshOfAnExpiredKeyReplacesTheEntry) {
  double fake_now = 0.0;
  SolveCacheConfig config;
  config.capacity = 4;
  config.ttl_seconds = 1.0;
  config.clock = [&fake_now] { return fake_now; };
  SolveCache cache(config);
  const auto handle = InstanceHandle::intern(small_instance(77));
  const auto key = SolveCache::make_key("mrt", {}, handle);
  const auto result = SolverRegistry::global().solve(SolveRequest("mrt", {}, handle));
  cache.insert(key, result);
  fake_now = 5.0;
  cache.insert(key, result);  // idempotent path meets an expired entry
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions_ttl, 1u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_NE(cache.lookup(key), nullptr);  // fresh lifetime from 5.0
}

TEST(SolveCache, ByteBudgetEvictsLruButKeepsASingleOversizedEntry) {
  const auto handle_a = InstanceHandle::intern(small_instance(78));
  const auto handle_b = InstanceHandle::intern(small_instance(79));
  const auto options = SolverOptions::from_string("policy=lpt-seq");
  const auto key_a = SolveCache::make_key("naive", options, handle_a);
  const auto key_b = SolveCache::make_key("naive", options, handle_b);
  const auto result_a = SolverRegistry::global().solve(SolveRequest("naive", options, handle_a));
  const auto result_b = SolverRegistry::global().solve(SolveRequest("naive", options, handle_b));

  // Measure one entry's approximate footprint with an unbounded cache.
  SolveCacheConfig probe_config;
  SolveCache probe(probe_config);
  probe.insert(key_a, result_a);
  const std::size_t one_entry = probe.stats().bytes;
  ASSERT_GT(one_entry, 0u);

  SolveCacheConfig config;
  config.max_bytes = one_entry + one_entry / 2;  // room for one, not two
  SolveCache cache(config);
  cache.insert(key_a, result_a);
  cache.insert(key_b, result_b);  // over budget: evicts LRU (key_a)
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions_bytes, 1u);
  EXPECT_EQ(stats.evictions_capacity, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(cache.lookup(key_a), nullptr);
  EXPECT_NE(cache.lookup(key_b), nullptr);

  // A single entry larger than the whole budget stays resident: evicting
  // the entry an insert just paid for would make every oversized result
  // thrash.
  SolveCacheConfig tiny;
  tiny.max_bytes = 1;
  SolveCache small_cache(tiny);
  small_cache.insert(key_a, result_a);
  auto tiny_stats = small_cache.stats();
  EXPECT_EQ(tiny_stats.entries, 1u);
  EXPECT_EQ(tiny_stats.evictions_bytes, 0u);
  EXPECT_NE(small_cache.lookup(key_a), nullptr);
}

TEST(SchedulerService, CacheBudgetsPlumbThroughServiceOptions) {
  ServiceConfig options;
  options.threads = 1;
  options.cache_max_bytes = 1;  // every second entry exceeds the budget
  SchedulerService service(options);
  const auto submit_seed = [&](std::uint64_t seed) {
    return service.wait(service.submit(SolveRequest{
        "naive", SolverOptions::from_string("policy=lpt-seq"),
        InstanceHandle::intern(small_instance(seed))}));
  };
  static_cast<void>(submit_seed(83));
  static_cast<void>(submit_seed(84));
  const auto stats = service.stats();
  EXPECT_EQ(stats.cache_evictions_bytes, 1u);
  EXPECT_EQ(stats.cache_evictions, 1u);  // total == split sum
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_GT(stats.cache_bytes, 0u);
}

TEST(SolveCache, ZeroCapacityDisablesEverything) {
  SolveCacheConfig config;
  config.capacity = 0;
  SolveCache cache(config);
  EXPECT_FALSE(cache.enabled());
  const auto instance = InstanceHandle::intern(small_instance(73));
  const auto key = SolveCache::make_key("mrt", {}, instance);
  cache.insert(key, SolverRegistry::global().solve(SolveRequest("mrt", {}, instance)));
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);  // disabled lookups do not count
}

// --------------------------------------------------------------- WorkerPool

TEST(WorkerPool, RunsTasksInPostOrderPerThreadAndWaitsIdle) {
  WorkerPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    pool.post([&order, i] { order.push_back(i); });
  }
  pool.wait_idle();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(WorkerPool, CurrentWorkerIndexIsStampedOnPoolThreadsOnly) {
  EXPECT_EQ(WorkerPool::current_worker(), -1);  // the test thread is off-pool
  WorkerPool pool(2);
  Mutex mutex;
  std::vector<int> seen;
  for (int i = 0; i < 16; ++i) {
    pool.post([&] {
      const LockGuard lock(mutex);
      seen.push_back(WorkerPool::current_worker());
    });
  }
  pool.wait_idle();
  ASSERT_EQ(seen.size(), 16u);
  for (const int worker : seen) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 2);
  }
}

TEST(WorkerPool, ShutdownDiscardsQueuedTasksAndRejectsNewOnes) {
  const auto gate = std::make_shared<Gate>();
  WorkerPool pool(1);
  std::atomic<int> ran{0};
  pool.post([&] {
    gate->enter_and_wait();
    ++ran;
  });
  gate->wait_entered();
  for (int i = 0; i < 5; ++i) {
    pool.post([&] { ++ran; });
  }
  // Release the gate only once shutdown has discarded the queue, so the
  // worker cannot race ahead and run a task that should have been dropped.
  std::thread stopper([&pool] { pool.shutdown(); });
  while (pool.queued() != 0) {
    std::this_thread::yield();
  }
  gate->release();
  stopper.join();
  EXPECT_EQ(ran.load(), 1) << "queued-but-unstarted tasks must be discarded";
  EXPECT_THROW(pool.post([] {}), std::runtime_error);
  pool.shutdown();  // idempotent
}

}  // namespace
}  // namespace malsched
