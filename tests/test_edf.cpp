// Tests for the v2.1 queue-discipline and fast-path serving features:
// earliest-deadline-first dispatch (ServiceConfig::queue_discipline = "edf"),
// its FIFO tiebreaks and byte-identity when no deadlines are set, the
// interaction with shed_oldest admission, the small-instance submit-thread
// fast path (ServiceConfig::fast_path_max_tasks), and the
// queue_depth_high_water / fast_path_hits ServiceStats gauges (including the
// sharded rollup).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/scheduler_service.hpp"
#include "api/sharded_service.hpp"
#include "oracles/outcome_payload.hpp"
#include "registry/solver_registry.hpp"
#include "support/cancellation.hpp"
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

Schedule sequential_schedule(const Instance& instance) {
  Schedule schedule(instance.machines(), instance.size());
  double t = 0.0;
  for (int i = 0; i < instance.size(); ++i) {
    schedule.assign(i, t, instance.task(i).time(1), 0, 1);
    t += instance.task(i).time(1);
  }
  return schedule;
}

/// Atomic two-way latch (test_faults idiom): the blocking solver spins so a
/// CancelToken could still wake it, and the test polls `entered`.
struct PollGate {
  std::atomic<bool> entered{false};
  std::atomic<bool> open{false};

  void wait_entered() const {
    while (!entered.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
};

/// Dispatch-order probe: every "record" solve appends its instance's task
/// count, so a test that gives each job a distinct size reads back the exact
/// order the worker dequeued them.
struct DispatchLog {
  Mutex mutex;
  std::vector<int> sizes MALSCHED_GUARDED_BY(mutex);

  void push(int size) MALSCHED_EXCLUDES(mutex) {
    const LockGuard lock(mutex);
    sizes.push_back(size);
  }
  [[nodiscard]] std::vector<int> snapshot() MALSCHED_EXCLUDES(mutex) {
    const LockGuard lock(mutex);
    return sizes;
  }
};

/// Registry with the worker-blocking gate solver and the order-recording one.
SolverRegistry edf_registry(const std::shared_ptr<PollGate>& gate,
                            const std::shared_ptr<DispatchLog>& log) {
  SolverRegistry registry;
  registry.add("record", "sequential; records its dispatch order",
               [log](const Instance& instance, const SolverOptions&) {
                 log->push(instance.size());
                 return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
               });
  registry.add_with_context(
      "pollgate", "blocks until released, polling the cancel check",
      [gate](const Instance& instance, const SolverOptions&,
             const SolveContext& context) -> SolverResult {
        const CancelCheck check(context.cancel, context.deadline_seconds);
        gate->entered.store(true);
        while (!gate->open.load()) {
          check.poll();
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
      });
  return registry;
}

// ------------------------------------------------------------ edf dispatch

TEST(EdfDiscipline, DispatchesEarliestDeadlineFirstUnderSaturation) {
  // Deadline order under edf: early (900 s) < middle (1800 s) < late
  // (3600 s) < deadline-less; the budget gaps dwarf submit-time anchor
  // jitter. fifo ignores deadlines for ordering: submission order.
  const std::vector<std::pair<std::string, std::vector<int>>> cases{
      {"edf", {12, 13, 11, 10}}, {"fifo", {10, 11, 12, 13}}};
  for (const auto& [discipline, expected] : cases) {
    SCOPED_TRACE(discipline);
    const auto gate = std::make_shared<PollGate>();
    const auto log = std::make_shared<DispatchLog>();
    const auto registry = edf_registry(gate, log);
    ServiceConfig config;
    config.threads = 1;
    config.registry = &registry;
    config.queue_discipline = discipline;
    SchedulerService service(config);

    // Saturate the single worker so everything below queues up, then submit
    // with budgets deliberately OUT of deadline order (and one deadline-less
    // job first, which EDF must hold until last). Task counts 10/11/12/13
    // tag the jobs in the dispatch log.
    static_cast<void>(
        service.submit({"pollgate", {}, InstanceHandle::intern(small_instance(1))}));
    gate->wait_entered();
    SolveRequest no_deadline{"record", {}, InstanceHandle::intern(small_instance(2, 10))};
    SolveRequest late{"record", {}, InstanceHandle::intern(small_instance(3, 11))};
    late.budget_seconds = 3600.0;
    SolveRequest early{"record", {}, InstanceHandle::intern(small_instance(4, 12))};
    early.budget_seconds = 900.0;
    SolveRequest middle{"record", {}, InstanceHandle::intern(small_instance(5, 13))};
    middle.budget_seconds = 1800.0;
    static_cast<void>(service.submit(std::move(no_deadline)));
    static_cast<void>(service.submit(std::move(late)));
    static_cast<void>(service.submit(std::move(early)));
    static_cast<void>(service.submit(std::move(middle)));

    gate->open.store(true);
    service.drain();
    EXPECT_EQ(log->snapshot(), expected);
  }
}

TEST(EdfDiscipline, EqualDeadlinesBreakTiesByTicket) {
  const auto gate = std::make_shared<PollGate>();
  const auto log = std::make_shared<DispatchLog>();
  const auto registry = edf_registry(gate, log);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  config.queue_discipline = "edf";
  SchedulerService service(config);

  static_cast<void>(service.submit({"pollgate", {}, InstanceHandle::intern(small_instance(6))}));
  gate->wait_entered();
  // One shared ABSOLUTE deadline: merged keys are bit-equal, so the heap
  // must fall back to ticket order.
  const double deadline = steady_now_seconds() + 3600.0;
  for (int i = 0; i < 4; ++i) {
    SolveRequest request{"record", {}, InstanceHandle::intern(small_instance(7, 10 + i))};
    request.deadline_seconds = deadline;
    static_cast<void>(service.submit(std::move(request)));
  }
  gate->open.store(true);
  service.drain();
  EXPECT_EQ(log->snapshot(), (std::vector<int>{10, 11, 12, 13}));
}

TEST(EdfDiscipline, WithoutDeadlinesMatchesFifoByteIdentically) {
  // The contract in ServiceConfig's docs: no deadlines anywhere -> "edf"
  // dispatches exactly like "fifo" and the streamed outcomes are
  // byte-identical (schedules included, timing excluded).
  std::vector<SolveRequest> requests;
  for (std::uint64_t i = 0; i < 12; ++i) {
    requests.push_back({"mrt", {}, InstanceHandle::intern(small_instance(400 + i))});
  }
  const auto run = [&requests](const std::string& discipline) {
    ServiceConfig config;
    config.threads = 1;
    config.cache = false;
    config.queue_discipline = discipline;
    SchedulerService service(config);
    std::vector<std::pair<std::uint64_t, std::string>> delivered;
    service.on_result([&delivered](const SolveOutcome& outcome) {
      delivered.emplace_back(outcome.ticket, outcome_payload(outcome));
    });
    static_cast<void>(service.submit(requests));
    service.drain();
    return delivered;
  };
  EXPECT_EQ(run("edf"), run("fifo"));
}

TEST(EdfDiscipline, ShedOldestEvictsTheOldestTicketNotTheLatestDeadline) {
  const auto gate = std::make_shared<PollGate>();
  const auto log = std::make_shared<DispatchLog>();
  const auto registry = edf_registry(gate, log);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  config.queue_discipline = "edf";
  config.max_queue_depth = 2;
  config.overload_policy = "shed_oldest";
  SchedulerService service(config);

  static_cast<void>(service.submit({"pollgate", {}, InstanceHandle::intern(small_instance(8))}));
  gate->wait_entered();
  // The oldest queued job carries the EARLIEST deadline: shed_oldest must
  // still evict it (shedding is age-based admission control, not a deadline
  // judgment -- EDF only orders what stays admitted).
  SolveRequest oldest{"record", {}, InstanceHandle::intern(small_instance(9, 10))};
  oldest.budget_seconds = 900.0;
  SolveRequest kept{"record", {}, InstanceHandle::intern(small_instance(10, 11))};
  kept.budget_seconds = 3600.0;
  const auto oldest_ticket = service.submit(std::move(oldest));
  const auto kept_ticket = service.submit(std::move(kept));
  SolveRequest admitted{"record", {}, InstanceHandle::intern(small_instance(11, 12))};
  admitted.budget_seconds = 1800.0;
  const auto admitted_ticket = service.submit(std::move(admitted));

  const auto shed = service.poll(oldest_ticket);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->status, SolveStatus::kError);
  EXPECT_EQ(shed->error.code, SolveErrorCode::kRejected);

  gate->open.store(true);
  service.drain();
  EXPECT_EQ(service.wait(kept_ticket).status, SolveStatus::kOk);
  EXPECT_EQ(service.wait(admitted_ticket).status, SolveStatus::kOk);
  EXPECT_EQ(service.stats().shed, 1u);
  // Of the two survivors, EDF still runs the earlier deadline (1800 s,
  // size 12) before the later one (3600 s, size 11) -- the shed job's stale
  // heap entry must not confuse the order.
  EXPECT_EQ(log->snapshot(), (std::vector<int>{12, 11}));
}

TEST(EdfDiscipline, DeadlineLessJobsFollowEveryDatedJobInSubmissionOrder) {
  const auto gate = std::make_shared<PollGate>();
  const auto log = std::make_shared<DispatchLog>();
  const auto registry = edf_registry(gate, log);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  config.queue_discipline = "edf";
  SchedulerService service(config);

  static_cast<void>(service.submit({"pollgate", {}, InstanceHandle::intern(small_instance(12))}));
  gate->wait_entered();
  // Every deadline-less job keys on +inf: all three wait behind both dated
  // jobs, however early they were submitted, and among themselves the
  // ticket decides. Sizes 10..14 tag the jobs in submission order.
  const std::vector<double> budgets{0.0, 3600.0, 0.0, 900.0, 0.0};
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const int size = 10 + static_cast<int>(i);
    SolveRequest request{"record", {}, InstanceHandle::intern(small_instance(13 + i, size))};
    request.budget_seconds = budgets[i];
    static_cast<void>(service.submit(std::move(request)));
  }
  gate->open.store(true);
  service.drain();
  EXPECT_EQ(log->snapshot(), (std::vector<int>{13, 11, 10, 12, 14}));
}

TEST(EdfDiscipline, CancelledQueuedJobIsSkippedUnderEitherDiscipline) {
  // cancel() turns a queued job terminal but leaves its heap entry behind;
  // that stale entry must neither run nor reorder the rest, whichever
  // discipline keyed it. The cancelled job is the one edf would run first.
  const std::vector<std::pair<std::string, std::vector<int>>> cases{
      {"edf", {11, 13, 10}}, {"fifo", {10, 11, 13}}};
  for (const auto& [discipline, expected] : cases) {
    SCOPED_TRACE(discipline);
    const auto gate = std::make_shared<PollGate>();
    const auto log = std::make_shared<DispatchLog>();
    const auto registry = edf_registry(gate, log);
    ServiceConfig config;
    config.threads = 1;
    config.registry = &registry;
    config.queue_discipline = discipline;
    SchedulerService service(config);

    static_cast<void>(
        service.submit({"pollgate", {}, InstanceHandle::intern(small_instance(20))}));
    gate->wait_entered();
    const std::vector<double> budgets{0.0, 1800.0, 900.0, 3600.0};
    std::vector<JobTicket> tickets;
    for (std::size_t i = 0; i < budgets.size(); ++i) {
      const int size = 10 + static_cast<int>(i);
      SolveRequest request{"record", {}, InstanceHandle::intern(small_instance(21 + i, size))};
      request.budget_seconds = budgets[i];
      tickets.push_back(service.submit(std::move(request)));
    }
    EXPECT_TRUE(service.cancel(tickets[2]));

    gate->open.store(true);
    service.drain();
    EXPECT_EQ(service.wait(tickets[2]).status, SolveStatus::kCancelled);
    EXPECT_EQ(log->snapshot(), expected);
  }
}

TEST(EdfDiscipline, ShutdownCancelsEveryQueuedJobWhateverItsDeadline) {
  const auto gate = std::make_shared<PollGate>();
  const auto log = std::make_shared<DispatchLog>();
  const auto registry = edf_registry(gate, log);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  config.queue_discipline = "edf";
  SchedulerService service(config);
  std::vector<SolveOutcome> streamed;
  service.on_result([&streamed](const SolveOutcome& outcome) { streamed.push_back(outcome); });

  const auto running =
      service.submit({"pollgate", {}, InstanceHandle::intern(small_instance(30))});
  gate->wait_entered();
  const std::vector<double> budgets{3600.0, 900.0, 0.0, 1800.0};
  std::vector<JobTicket> queued;
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const int size = 10 + static_cast<int>(i);
    SolveRequest request{"record", {}, InstanceHandle::intern(small_instance(31 + i, size))};
    request.budget_seconds = budgets[i];
    queued.push_back(service.submit(std::move(request)));
  }

  // shutdown() joins the gated worker, so it runs on a helper thread; the
  // gate stays shut until every queued job is visibly cancelled, so none of
  // them (not even the earliest deadline) can reach the worker first.
  std::thread stopper([&service] { service.shutdown(); });
  while (service.stats().cancelled < queued.size()) std::this_thread::yield();
  gate->open.store(true);
  stopper.join();

  EXPECT_EQ(service.wait(running).status, SolveStatus::kOk);
  for (const auto ticket : queued) {
    const auto outcome = service.poll(ticket);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->status, SolveStatus::kCancelled);
    EXPECT_EQ(outcome->error.code, SolveErrorCode::kShutdown);
  }
  EXPECT_TRUE(log->snapshot().empty());
  ASSERT_EQ(streamed.size(), 1u + queued.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) EXPECT_EQ(streamed[i].ticket, i);
}

// --------------------------------------------------------------- fast path

TEST(FastPath, SolvesInlineWithProvenanceAndThreshold) {
  ServiceConfig config;
  config.threads = 1;
  config.cache = false;
  config.fast_path_max_tasks = 16;
  SchedulerService service(config);

  // At the threshold: solved on the submitting thread, terminal before
  // submit() returns, fast_path provenance, worker -1.
  const auto inline_ticket =
      service.submit(SolveRequest{"mrt", {}, InstanceHandle::intern(small_instance(20, 16))});
  const auto inline_outcome = service.poll(inline_ticket);
  ASSERT_TRUE(inline_outcome.has_value()) << "fast path must be terminal at submit return";
  EXPECT_EQ(inline_outcome->status, SolveStatus::kOk);
  EXPECT_TRUE(inline_outcome->fast_path);
  EXPECT_FALSE(inline_outcome->cache_hit);
  EXPECT_EQ(inline_outcome->worker, -1);

  // One task over: the normal queued path, no fast_path provenance.
  const auto queued_ticket =
      service.submit(SolveRequest{"mrt", {}, InstanceHandle::intern(small_instance(21, 17))});
  const auto queued_outcome = service.wait(queued_ticket);
  EXPECT_EQ(queued_outcome.status, SolveStatus::kOk);
  EXPECT_FALSE(queued_outcome.fast_path);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.fast_path_hits, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(FastPath, CacheHitReportsCacheHitNotFastPath) {
  ServiceConfig config;
  config.threads = 1;
  config.cache = true;
  config.fast_path_max_tasks = 16;
  SchedulerService service(config);

  const SolveRequest request{"mrt", {}, InstanceHandle::intern(small_instance(22, 16))};
  const auto first = service.wait(service.submit(request));
  EXPECT_TRUE(first.fast_path);
  EXPECT_FALSE(first.cache_hit);
  // Identical request: the fast path consults the cache with normal
  // accounting, so the repeat is a cache hit, NOT a fresh inline solve.
  const auto second = service.wait(service.submit(request));
  EXPECT_TRUE(second.cache_hit);
  EXPECT_FALSE(second.fast_path);
  EXPECT_EQ(second.result->makespan, first.result->makespan);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.fast_path_hits, 1u);  // the miss that solved inline
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);  // exactly one miss: accounting intact
}

TEST(FastPath, RespectsAnAlreadyExpiredBudget) {
  ServiceConfig config;
  config.threads = 1;
  config.cache = false;
  config.fast_path_max_tasks = 16;
  SchedulerService service(config);

  SolveRequest request{"mrt", {}, InstanceHandle::intern(small_instance(23, 16))};
  request.deadline_seconds = steady_now_seconds() - 1.0;  // already past
  const auto outcome = service.wait(service.submit(std::move(request)));
  EXPECT_EQ(outcome.status, SolveStatus::kError);
  EXPECT_EQ(outcome.error.code, SolveErrorCode::kDeadlineExceeded);
}

// -------------------------------------------------------------- the gauges

TEST(ServiceGauges, QueueDepthHighWaterTracksTheDeepestQueue) {
  const auto gate = std::make_shared<PollGate>();
  const auto log = std::make_shared<DispatchLog>();
  const auto registry = edf_registry(gate, log);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  SchedulerService service(config);

  EXPECT_EQ(service.stats().queue_depth_high_water, 0u);
  static_cast<void>(service.submit({"pollgate", {}, InstanceHandle::intern(small_instance(30))}));
  gate->wait_entered();
  for (std::uint64_t i = 0; i < 3; ++i) {
    static_cast<void>(
        service.submit({"record", {}, InstanceHandle::intern(small_instance(31 + i))}));
  }
  EXPECT_EQ(service.stats().queue_depth_high_water, 3u);
  gate->open.store(true);
  service.drain();
  // The gauge is a high-water mark: draining must not lower it.
  EXPECT_EQ(service.stats().queue_depth_high_water, 3u);
}

TEST(ServiceGauges, ShardedRollupSumsHighWaterAndFastPathHits) {
  ServiceConfig config;
  config.threads = 1;
  config.cache = false;
  config.fast_path_max_tasks = 16;
  ShardedSchedulerService service(config, 4);

  for (std::uint64_t i = 0; i < 24; ++i) {
    static_cast<void>(
        service.submit(SolveRequest{"mrt", {}, InstanceHandle::intern(small_instance(50 + i))}));
  }
  service.drain();
  const ShardedServiceStats stats = service.shard_stats();
  // Every request was fast-path material; the rollup must see all of them
  // and equal the per-shard sum exactly (same for the high-water gauge).
  EXPECT_EQ(stats.total.fast_path_hits, 24u);
  std::uint64_t fast_paths = 0;
  std::uint64_t high_water = 0;
  for (const auto& shard : stats.shards) {
    fast_paths += shard.fast_path_hits;
    high_water += shard.queue_depth_high_water;
  }
  EXPECT_EQ(stats.total.fast_path_hits, fast_paths);
  EXPECT_EQ(stats.total.queue_depth_high_water, high_water);
  EXPECT_EQ(high_water, 0u);  // inline solves never touch the queues
}

// ------------------------------------------------------------- validation

TEST(QueueConfigValidation, RejectsUnknownDisciplineAndNegativeFastPath) {
  ServiceConfig config;
  config.queue_discipline = "lifo";
  config.fast_path_max_tasks = -1;
  const auto violations = config.validate();
  EXPECT_GE(violations.size(), 2u);
  EXPECT_THROW(SchedulerService{config}, std::invalid_argument);
  EXPECT_THROW(ShardedSchedulerService(config, 2), std::invalid_argument);
}

TEST(QueueConfigValidation, DefaultsAreFifoWithTheFastPathOff) {
  const ServiceConfig config;
  EXPECT_EQ(config.queue_discipline, "fifo");
  EXPECT_EQ(config.fast_path_max_tasks, 0);
  EXPECT_TRUE(config.validate().empty());
}

}  // namespace
}  // namespace malsched
