// Tests for the SchedulerService front end (src/api/scheduler_service.*),
// the content-hash SolveCache behind it, and the exec/WorkerPool it runs on:
// ordered streaming byte-identical to serial registry solves, closed batches,
// the outcome payload those comparisons use, cache hit/eviction accounting,
// repeat-solve determinism, cancellation mid-stream, and graceful shutdown
// with pending jobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/scheduler_service.hpp"
#include "api/solve_cache.hpp"
#include "exec/worker_pool.hpp"
#include "oracles/outcome_payload.hpp"
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
// byte-identical to serial registry solves of the same jobs, in order
// (schedules included; timing excluded -- the one legitimately
// nondeterministic field).
TEST(SchedulerService, StreamsInTicketOrderByteIdenticalToSerialSolves) {
  const auto jobs = mixed_jobs_with_duplicates(24);
  std::vector<std::string> reference;
  for (const auto& job : jobs) reference.push_back(serial_payload(job));

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
      EXPECT_EQ(outcome_payload(streamed[i]), reference[i])
          << "streamed result " << i << " differs from the serial solve at " << threads
          << " threads";
    }
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

// ---------------------------------------------------------- closed batches
//
// A closed batch is one submit(std::vector<SolveRequest>): consecutive
// tickets, each outcome read back with wait(), in request order.

TEST(SchedulerService, EmptyBatchIssuesNoTickets) {
  ServiceConfig options;
  options.threads = 2;
  SchedulerService service(options);
  EXPECT_TRUE(service.submit(std::vector<SolveRequest>{}).empty());
  service.drain();  // returns at once: nothing was enqueued
  EXPECT_EQ(service.stats().submitted, 0u);
  const auto first = service.submit({"naive", SolverOptions::from_string("policy=lpt-seq"),
                                     InstanceHandle::intern(small_instance(400))});
  EXPECT_EQ(first.id, 0u) << "an empty batch must not consume a ticket";
  EXPECT_EQ(service.wait(first).status, SolveStatus::kOk);
}

TEST(SchedulerService, BatchTicketsAreConsecutiveAndOutcomesFollowRequestOrder) {
  const auto jobs = mixed_jobs_with_duplicates(12);
  const auto lead = InstanceHandle::intern(small_instance(401));
  const auto hashes_before = InstanceHandle::content_hashes();
  ServiceConfig options;
  options.threads = 4;
  SchedulerService service(options);
  const auto single = service.submit({"naive", SolverOptions::from_string("policy=lpt-seq"), lead});
  const auto tickets = service.submit(jobs);
  ASSERT_EQ(tickets.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(tickets[i].id, single.id + 1 + i);
    const auto outcome = service.wait(tickets[i]);
    EXPECT_EQ(outcome.ticket, tickets[i].id);
    ASSERT_EQ(outcome.status, SolveStatus::kOk) << outcome.error.detail;
    EXPECT_EQ(outcome.result->solver, jobs[i].solver);
  }
  EXPECT_EQ(service.wait(single).status, SolveStatus::kOk);
  EXPECT_EQ(InstanceHandle::content_hashes(), hashes_before)
      << "the request path must not re-fingerprint interned instances";
}

// The streaming test's property for outcomes read with wait() instead of
// the stream: a 64-request batch at 1, 2 and 8 workers equals serial
// registry solves bit for bit.
TEST(SchedulerService, WaitedBatchOutcomesMatchSerialSolvesAtAnyWorkerCount) {
  const auto jobs = mixed_jobs_with_duplicates(60);
  std::vector<std::string> reference;
  for (const auto& job : jobs) reference.push_back(serial_payload(job));

  for (const unsigned threads : {1u, 2u, 8u}) {
    ServiceConfig options;
    options.threads = threads;
    SchedulerService service(options);
    const auto tickets = service.submit(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(outcome_payload(service.wait(tickets[i])), reference[i])
          << "request " << i << " at " << threads << " workers";
    }
    EXPECT_EQ(service.stats().completed, jobs.size());
  }
}

TEST(SchedulerService, OversubscribedWorkersStayByteIdenticalToSerialSolves) {
  // Far more workers than cores, and tiny instances, maximize scheduling
  // churn.
  std::vector<SolveRequest> jobs;
  for (std::uint64_t i = 0; i < 100; ++i) {
    jobs.push_back({"naive", SolverOptions::from_string("policy=lpt-seq"),
                    InstanceHandle::intern(small_instance(500 + i, /*tasks=*/6, /*machines=*/4))});
  }
  ServiceConfig options;
  options.threads = 32;
  SchedulerService service(options);
  const auto tickets = service.submit(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(outcome_payload(service.wait(tickets[i])), serial_payload(jobs[i]))
        << "request " << i;
  }
  EXPECT_EQ(service.stats().completed, jobs.size());
}

TEST(SchedulerService, RequestWithEmptyHandleIsRejectedUpFront) {
  ServiceConfig options;
  options.threads = 1;
  SchedulerService service(options);
  EXPECT_THROW(static_cast<void>(service.submit(SolveRequest{})), std::invalid_argument);
  EXPECT_EQ(service.stats().submitted, 0u);
  const auto next = service.submit({"naive", SolverOptions::from_string("policy=lpt-seq"),
                                    InstanceHandle::intern(small_instance(402))});
  EXPECT_EQ(next.id, 0u) << "a refused request must not consume a ticket";
  EXPECT_EQ(service.wait(next).status, SolveStatus::kOk);
}

TEST(SchedulerService, OneThrowingSolveDoesNotPoisonABatch) {
  const auto gate = std::make_shared<Gate>();
  const auto registry = gated_registry(gate);
  ServiceConfig options;
  options.threads = 4;
  options.registry = &registry;
  SchedulerService service(options);
  std::vector<SolveRequest> jobs;
  for (std::uint64_t i = 0; i < 10; ++i) {
    jobs.push_back({i % 2 == 0 ? "seq" : "boom", {}, InstanceHandle::intern(small_instance(410 + i))});
  }
  const auto tickets = service.submit(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto outcome = service.wait(tickets[i]);
    if (i % 2 == 0) {
      EXPECT_EQ(outcome.status, SolveStatus::kOk);
      ASSERT_TRUE(outcome.result.has_value());
      EXPECT_TRUE(outcome.result->schedule.complete());
    } else {
      EXPECT_EQ(outcome.status, SolveStatus::kError);
      EXPECT_EQ(outcome.error.code, SolveErrorCode::kSolverFailure);
      EXPECT_NE(outcome.error.detail.find("boom"), std::string::npos);
      EXPECT_FALSE(outcome.result.has_value());
    }
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.failed, 5u);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST(SchedulerService, UnknownSolverNameIsIsolatedInABatch) {
  ServiceConfig options;
  options.threads = 2;
  SchedulerService service(options);
  std::vector<SolveRequest> jobs;
  jobs.push_back({"mrt", {}, InstanceHandle::intern(small_instance(420))});
  jobs.push_back({"no-such-solver", {}, InstanceHandle::intern(small_instance(421))});
  const auto tickets = service.submit(jobs);
  EXPECT_EQ(service.wait(tickets[0]).status, SolveStatus::kOk);
  const auto unknown = service.wait(tickets[1]);
  EXPECT_EQ(unknown.status, SolveStatus::kError);
  EXPECT_EQ(unknown.error.code, SolveErrorCode::kInvalidOption);
  EXPECT_NE(unknown.error.detail.find("unknown solver"), std::string::npos);
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

// Cancelling every ticket of a batch still queued behind a running job: each
// turns kCancelled at once with no result, and the stream delivers them in
// ticket order after the running job's outcome.
TEST(SchedulerService, CancellingAQueuedBatchCancelsEveryTicket) {
  const auto gate = std::make_shared<Gate>();
  const auto registry = gated_registry(gate);
  ServiceConfig options;
  options.threads = 1;
  options.registry = &registry;
  SchedulerService service(options);
  std::vector<SolveOutcome> streamed;
  service.on_result([&streamed](const SolveOutcome& outcome) { streamed.push_back(outcome); });

  const auto running = service.submit({"gate", {}, InstanceHandle::intern(small_instance(430))});
  gate->wait_entered();
  std::vector<SolveRequest> jobs;
  for (std::uint64_t i = 0; i < 6; ++i) {
    jobs.push_back({"seq", {}, InstanceHandle::intern(small_instance(431 + i))});
  }
  const auto tickets = service.submit(jobs);
  for (const auto ticket : tickets) {
    EXPECT_TRUE(service.cancel(ticket));
    const auto outcome = service.poll(ticket);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->status, SolveStatus::kCancelled);
    EXPECT_FALSE(outcome->result.has_value());
  }

  gate->release();
  service.drain();
  ASSERT_EQ(streamed.size(), 1 + tickets.size());
  EXPECT_EQ(streamed[0].ticket, running.id);
  EXPECT_EQ(streamed[0].status, SolveStatus::kOk);
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(streamed[1 + i].ticket, tickets[i].id);
    EXPECT_EQ(streamed[1 + i].status, SolveStatus::kCancelled);
  }
  EXPECT_EQ(service.stats().cancelled, tickets.size());
}

// --------------------------------------------------- outcome payload oracle
//
// tests/oracles/outcome_payload is the reference every determinism test
// above compares with; these pin what it compares and what it leaves out.

/// A hand-built outcome with every payload field set: two assignments and
/// two stats.
SolveOutcome payload_fixture(double start = 1.5, double duration = 2.25, int first_proc = 2) {
  Schedule schedule(4, 2);
  schedule.assign(0, 0.0, 1.5, 0, 2);
  schedule.assign(1, start, duration, first_proc, 2);
  SolveOutcome outcome;
  outcome.status = SolveStatus::kOk;
  outcome.result = SolverResult{"fake", std::move(schedule), 3.75, 3.0, 1.25, 0.5,
                                {{"iterations", 7.0}, {"branch.canonical-list", 1.0}}};
  return outcome;
}

TEST(OutcomePayload, LeavesOutWallTimesAndProvenance) {
  const SolveOutcome solved = payload_fixture();
  SolveOutcome served = payload_fixture();
  served.ticket = 17;
  served.cache_hit = true;
  served.dedup_join = true;
  served.fallback_used = true;
  served.fast_path = true;
  served.worker = 3;
  served.shard = 1;
  served.wall_seconds = 9.0;
  served.result->wall_seconds = 2.0;
  EXPECT_EQ(outcome_payload(served), outcome_payload(solved));

  SolveOutcome failed;
  failed.status = SolveStatus::kError;
  failed.error.code = SolveErrorCode::kSolverFailure;
  failed.error.detail = "boom";
  const auto text = outcome_payload(failed);
  EXPECT_NE(text, outcome_payload(solved));
  EXPECT_NE(text.find("status=error error=solver_failure detail=boom"), std::string::npos);
}

TEST(OutcomePayload, EveryResultFieldCountsDownToOneUlp) {
  const std::string reference = outcome_payload(payload_fixture());
  const auto up = [](double x) { return std::nextafter(x, 2.0 * x + 1.0); };
  const std::vector<std::function<void(SolverResult&)>> edits{
      [&up](SolverResult& r) { r.makespan = up(r.makespan); },
      [&up](SolverResult& r) { r.lower_bound = up(r.lower_bound); },
      [&up](SolverResult& r) { r.ratio = up(r.ratio); },
      [&up](SolverResult& r) { r.stats[0].second = up(r.stats[0].second); },
      [&up](SolverResult& r) { r.stats[1].second = up(r.stats[1].second); },
      [](SolverResult& r) { std::swap(r.stats[0], r.stats[1]); },
      [](SolverResult& r) { r.solver = "fake2"; },
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    SolveOutcome outcome = payload_fixture();
    edits[i](*outcome.result);
    EXPECT_NE(outcome_payload(outcome), reference) << "result edit " << i;
  }
  EXPECT_NE(outcome_payload(payload_fixture(up(1.5))), reference);
  EXPECT_NE(outcome_payload(payload_fixture(1.5, up(2.25))), reference);
  EXPECT_NE(outcome_payload(payload_fixture(1.5, 2.25, 1)), reference);
}

TEST(OutcomePayload, SerialPayloadClassifiesThrowsAsTheServiceDoes) {
  // The reference side catches what SolverRegistry::solve throws; its
  // payload must equal the service's outcome for the same request, error
  // code and detail included.
  std::vector<SolveRequest> requests;
  requests.push_back({"no-such-solver", {}, InstanceHandle::intern(small_instance(440))});
  requests.push_back({"mrt", SolverOptions::from_string("no_such_option=1"),
                      InstanceHandle::intern(small_instance(441))});
  requests.push_back({"mrt", SolverOptions::from_string("epsilon=fast"),
                      InstanceHandle::intern(small_instance(442))});
  ServiceConfig options;
  options.threads = 1;
  SchedulerService service(options);
  const auto tickets = service.submit(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto outcome = service.wait(tickets[i]);
    EXPECT_EQ(outcome.status, SolveStatus::kError) << "request " << i;
    EXPECT_EQ(outcome_payload(outcome), serial_payload(requests[i])) << "request " << i;
  }
  EXPECT_NE(serial_payload(requests[0]).find("error=invalid_option"), std::string::npos);
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
  // the solvers are deterministic). Tickets naturally differ; the payload
  // leaves them out.
  EXPECT_EQ(outcome_payload(second), outcome_payload(first));

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

  const std::string direct = serial_payload(request);
  EXPECT_EQ(outcome_payload(first), direct);
  EXPECT_EQ(outcome_payload(second), direct);
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

    // Byte-identical outcomes: every ticket's payload renders exactly like
    // the leader's (tickets and provenance are not payload).
    std::vector<SolveOutcome> outcomes;
    for (const auto ticket : tickets) outcomes.push_back(service.wait(ticket));
    const auto leader = std::find_if(outcomes.begin(), outcomes.end(), [](const SolveOutcome& o) {
      return !o.dedup_join && !o.cache_hit;
    });
    ASSERT_NE(leader, outcomes.end());
    const auto reference = outcome_payload(*leader);
    for (const auto& outcome : outcomes) {
      EXPECT_EQ(outcome.status, SolveStatus::kOk);
      EXPECT_GE(outcome.worker, 0);
      EXPECT_EQ(outcome_payload(outcome), reference);
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

TEST(SchedulerService, GcSlotsHandsOutReclaimedOutcomesWhole) {
  // The read that reclaims a slot moves its outcome out rather than copying
  // it: every waited or polled outcome must still be the whole answer of a
  // serial solve, and the ticket is spent afterwards.
  ServiceConfig options;
  options.threads = 1;
  options.gc_slots = true;
  SchedulerService service(options);
  std::vector<SolveRequest> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back({"mrt", {}, InstanceHandle::intern(small_instance(640 + i))});
  }
  requests.push_back(
      {"naive", SolverOptions::from_string("policy=lpt-seq"), requests[0].instance});
  std::vector<JobTicket> tickets;
  for (const auto& request : requests) tickets.push_back(service.submit(request));

  // Read before the delivery frontier may have passed it (kept for the
  // stream, so copied), then after a drain (reclaimed in the same step).
  EXPECT_EQ(outcome_payload(service.wait(tickets[0])), serial_payload(requests[0]));
  service.drain();
  for (std::size_t i = 1; i < requests.size(); ++i) {
    const std::string expected = serial_payload(requests[i]);
    if (i % 2 == 0) {
      EXPECT_EQ(outcome_payload(service.wait(tickets[i])), expected) << "request " << i;
    } else {
      const auto polled = service.poll(tickets[i]);
      ASSERT_TRUE(polled.has_value());
      EXPECT_EQ(outcome_payload(*polled), expected) << "request " << i;
    }
    EXPECT_THROW(static_cast<void>(service.wait(tickets[i])), std::logic_error);
  }
  EXPECT_THROW(static_cast<void>(service.wait(tickets[0])), std::logic_error);

  // A submit-time cache hit is delivered before wait() reads it: moved too.
  const auto hit = service.wait(service.submit(requests[1]));
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(outcome_payload(hit), serial_payload(requests[1]));
  EXPECT_EQ(service.stats().slots_reclaimed, requests.size() + 1);
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

  SolveCache cache(4);
  const auto result = SolverRegistry::global().solve(SolveRequest("mrt", options, base));
  cache.insert(key_a, result);
  EXPECT_NE(cache.lookup(key_b), nullptr);  // same content, new object
  EXPECT_EQ(cache.lookup(key_c), nullptr);
  EXPECT_EQ(cache.lookup(key_d), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
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
  const auto key_c = SolveCache::make_key(
      "mrt", SolverOptions::from_string("epsilon=0.05"),
      InstanceHandle::intern(std::make_shared<const Instance>(handle.instance())));
  EXPECT_EQ(InstanceHandle::content_hashes(), before + 1);
  EXPECT_EQ(key_c.fingerprint, key_a.fingerprint);
}

TEST(SolveCache, InstanceAndKeyFingerprintsArePinned) {
  // Fingerprints route shards and key caches, and a router in another
  // process must compute the same ones: the hash is defined on bit patterns
  // and packed bytes, so these values hold on every compiler, build type and
  // host. A change here changes routing; pin the new values on purpose.
  Instance tasks(4);
  tasks.add_task(std::vector<double>{6.0, 3.5, 2.75, 2.5}, "alpha");
  tasks.add_task(std::vector<double>{1.0, 1.0, 1.0, 1.0}, "a task with a long name");
  tasks.add_task(std::vector<double>{0.5, 0.375, 0.25, 0.25, 0.25});
  const auto handle = InstanceHandle::intern(std::move(tasks));
  EXPECT_EQ(handle.fingerprint(), 0x8c86115fcac6a559ull);
  EXPECT_EQ(SolveCache::make_key("mrt", SolverOptions::from_string("epsilon=0.05"), handle)
                .fingerprint,
            0x0b7581f232389784ull);
}

// A placeholder result whose solver field names the copy the cache holds.
SolverResult labelled_result(const std::string& label) {
  return SolverResult{label, Schedule(8, 0), 0.0, 0.0, 0.0, 0.0, {}};
}

TEST(SolveCache, LookupRefreshesRecencySoTheEntryBudgetEvictsTheLeastRecentlyUsed) {
  const auto key = [](std::uint64_t seed) {
    return SolveCache::make_key("mrt", {}, InstanceHandle::intern(small_instance(seed)));
  };
  const auto key_a = key(86);
  const auto key_b = key(87);
  const auto key_c = key(88);
  SolveCache cache(2);
  cache.insert(key_a, labelled_result("a"));
  cache.insert(key_b, labelled_result("b"));  // LRU order: b, a
  ASSERT_NE(cache.lookup(key_a), nullptr);    // refreshes a: a, b
  cache.insert(key_c, labelled_result("c"));  // evicts b, not the older a
  EXPECT_EQ(cache.lookup(key_b), nullptr);
  ASSERT_NE(cache.lookup(key_a), nullptr);
  EXPECT_EQ(cache.lookup(key_a)->solver, "a");
  ASSERT_NE(cache.lookup(key_c), nullptr);
  EXPECT_EQ(cache.lookup(key_c)->solver, "c");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(SolveCache, ReinsertingAResidentKeyKeepsTheFirstCopyAndRefreshesItsRecency) {
  // Two workers that race the same miss both insert; the second insert
  // neither duplicates the entry nor replaces its copy, and it moves the key
  // to the front as a lookup would.
  const auto key = [](std::uint64_t seed) {
    return SolveCache::make_key("mrt", {}, InstanceHandle::intern(small_instance(seed)));
  };
  const auto key_a = key(89);
  const auto key_b = key(90);
  const auto key_c = key(91);
  SolveCache cache(2);
  cache.insert(key_a, labelled_result("a first"));
  cache.insert(key_b, labelled_result("b"));
  cache.insert(key_a, labelled_result("a second"));  // LRU order: a, b
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  ASSERT_NE(cache.lookup(key_a), nullptr);
  EXPECT_EQ(cache.lookup(key_a)->solver, "a first");

  cache.insert(key_b, labelled_result("b again"));  // LRU order: b, a
  cache.insert(key_c, labelled_result("c"));        // evicts a, not the re-inserted b
  EXPECT_EQ(cache.lookup(key_a), nullptr);
  ASSERT_NE(cache.lookup(key_b), nullptr);
  EXPECT_EQ(cache.lookup(key_b)->solver, "b");
  stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(SolveCache, FingerprintCollisionsShareABucketAndLeaveItOneByOne) {
  // Keys whose fingerprints collide stay apart behind the full-key compare,
  // and evicting one leaves the other findable in the bucket they share.
  const auto key = [](std::uint64_t seed) {
    return SolveCache::make_key("mrt", {}, InstanceHandle::intern(small_instance(seed)));
  };
  const auto key_a = key(92);
  auto key_b = key(93);
  key_b.fingerprint = key_a.fingerprint;
  const auto key_c = key(94);
  const auto key_d = key(95);
  const auto key_e = key(96);
  SolveCache cache(2);
  cache.insert(key_a, labelled_result("a"));
  cache.insert(key_b, labelled_result("b"));  // not a re-insert of a
  ASSERT_NE(cache.lookup(key_a), nullptr);
  EXPECT_EQ(cache.lookup(key_a)->solver, "a");
  ASSERT_NE(cache.lookup(key_b), nullptr);  // LRU order: b, a
  EXPECT_EQ(cache.lookup(key_b)->solver, "b");

  cache.insert(key_c, labelled_result("c"));  // evicts a out of the shared bucket
  EXPECT_EQ(cache.lookup(key_a), nullptr);
  ASSERT_NE(cache.lookup(key_b), nullptr);
  EXPECT_EQ(cache.lookup(key_b)->solver, "b");
  cache.insert(key_d, labelled_result("d"));  // evicts c; LRU order: d, b
  cache.insert(key_e, labelled_result("e"));  // evicts b, the bucket's last key
  EXPECT_EQ(cache.lookup(key_b), nullptr);
  EXPECT_EQ(cache.lookup(key_a), nullptr);
  cache.insert(key_a, labelled_result("a again"));  // evicts d; a new bucket
  ASSERT_NE(cache.lookup(key_a), nullptr);
  EXPECT_EQ(cache.lookup(key_a)->solver, "a again");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 4u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(SchedulerService, CacheBudgetsPlumbThroughServiceOptions) {
  // cache_capacity is the cache's entry budget: one entry holds the most
  // recent result, and each further distinct result evicts one.
  ServiceConfig options;
  options.threads = 1;
  options.cache_capacity = 1;
  SchedulerService service(options);
  const auto submit_seed = [&](std::uint64_t seed) {
    return service.wait(service.submit(SolveRequest{
        "naive", SolverOptions::from_string("policy=lpt-seq"),
        InstanceHandle::intern(small_instance(seed))}));
  };
  static_cast<void>(submit_seed(83));
  static_cast<void>(submit_seed(84));
  static_cast<void>(submit_seed(85));
  auto stats = service.stats();
  EXPECT_EQ(stats.cache_evictions, 2u);
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_TRUE(submit_seed(85).cache_hit);
  stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_evictions, 2u);
}

TEST(SolveCache, ZeroCapacityDisablesEverything) {
  SolveCache cache(0);
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

TEST(WorkerPool, RunsEveryPostedTaskExactlyOnceAcrossThreads) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> runs(1000);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    pool.post([&runs, i] { runs[i].fetch_add(1); });
  }
  pool.wait_idle();
  for (std::size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  EXPECT_EQ(pool.queued(), 0u);
}

TEST(WorkerPool, ZeroThreadsStartsAtLeastOneWorker) {
  WorkerPool pool(0);
  EXPECT_GE(pool.threads(), 1u);
  pool.wait_idle();  // nothing posted: returns at once
  std::atomic<int> ran{0};
  pool.post([&ran] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

TEST(WorkerPool, WaitIdleCoversTasksPostedByRunningTasks) {
  WorkerPool pool(2);
  std::atomic<int> ran{0};
  pool.post([&pool, &ran] {
    ++ran;
    pool.post([&pool, &ran] {
      ++ran;
      pool.post([&ran] { ++ran; });
    });
  });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 3) << "wait_idle returned with work still queued or running";
}

}  // namespace
}  // namespace malsched
