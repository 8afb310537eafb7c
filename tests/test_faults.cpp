// Robustness tests: the deterministic fault-injection harness
// (support/failpoint.*), cooperative cancellation and deadlines threaded
// through running solves, admission control under overload
// (reject/shed_oldest/degrade), and graceful degradation when the cache or a
// solver fails -- no hangs, no leaks, exact stats and error taxonomy.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/scheduler_service.hpp"
#include "api/sharded_service.hpp"
#include "registry/solver_registry.hpp"
#include "support/cancellation.hpp"
#include "support/failpoint.hpp"
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

/// Atomic two-way latch for blocking test solvers that must ALSO observe
/// cancellation: the solver spins on open/cancel instead of parking in a
/// CondVar a CancelToken could never wake.
struct PollGate {
  std::atomic<bool> entered{false};
  std::atomic<bool> open{false};

  void wait_entered() const {
    while (!entered.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
};

/// Registry for the robustness tests: a fast fallback ("seq"), a
/// cancellation/deadline-aware blocking solver ("pollgate"), and a slow
/// cooperative solver ("slowpoll") that runs ~10 s unless a check fires.
SolverRegistry robustness_registry(const std::shared_ptr<PollGate>& gate) {
  SolverRegistry registry;
  registry.add("seq", "sequential on processor 0",
               [](const Instance& instance, const SolverOptions&) {
                 return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
               });
  registry.add_with_context(
      "pollgate", "blocks until released, polling the cancel check",
      [gate](const Instance& instance, const SolverOptions&,
             const SolveContext& context) -> SolverResult {
        const CancelCheck check(context.cancel, context.deadline_seconds);
        gate->entered.store(true);
        while (!gate->open.load()) {
          check.poll();  // throws CancelledError / DeadlineExceededError
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
      });
  registry.add_with_context(
      "slowpoll", "cooperative ~10 s busy solver",
      [](const Instance& instance, const SolverOptions&,
         const SolveContext& context) -> SolverResult {
        const CancelCheck check(context.cancel, context.deadline_seconds);
        for (int i = 0; i < 10'000; ++i) {
          check.poll();
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
      });
  return registry;
}

/// Every test leaves the process-global failpoint registry clean.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoints::disarm_all(); }
};

using FailpointRegistry = FaultTest;
using ServiceFaults = FaultTest;
using Deadlines = FaultTest;
using Admission = FaultTest;

// ---------------------------------------------------- failpoint registry

TEST_F(FailpointRegistry, CompiledInForThisBuild) {
  // CMake defaults MALSCHED_FAILPOINTS=ON; the CI sanitizer jobs assert the
  // same explicitly. Everything below is gated on this.
  EXPECT_TRUE(failpoints::compiled_in());
}

TEST_F(FailpointRegistry, SkipAndFireWindowsAreExact) {
  if (!failpoints::compiled_in()) GTEST_SKIP();
  failpoints::ArmSpec spec;
  spec.skip = 2;
  spec.fire = 1;
  failpoints::arm("test.window", spec);
  EXPECT_NO_THROW(failpoints::hit("test.window"));  // hit 0: skipped
  EXPECT_NO_THROW(failpoints::hit("test.window"));  // hit 1: skipped
  EXPECT_THROW(failpoints::hit("test.window"), failpoints::FailpointError);
  EXPECT_NO_THROW(failpoints::hit("test.window"));  // fire budget exhausted
  EXPECT_EQ(failpoints::hits("test.window"), 4u);
}

TEST_F(FailpointRegistry, SeededProbabilityIsDeterministic) {
  if (!failpoints::compiled_in()) GTEST_SKIP();
  const auto pattern = [](std::uint64_t seed) {
    failpoints::disarm_all();
    failpoints::ArmSpec spec;
    spec.probability = 0.5;
    spec.seed = seed;
    failpoints::arm("test.seeded", spec);
    std::vector<bool> fired;
    for (int i = 0; i < 128; ++i) {
      try {
        failpoints::hit("test.seeded");
        fired.push_back(false);
      } catch (const failpoints::FailpointError&) {
        fired.push_back(true);
      }
    }
    return fired;
  };
  const auto first = pattern(42);
  EXPECT_EQ(first, pattern(42));  // same seed, same run -- deterministic
  const auto count = static_cast<std::size_t>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(count, 0u);    // p=0.5 over 128 draws: both outcomes occur
  EXPECT_LT(count, 128u);
  EXPECT_NE(first, pattern(7));  // and the seed actually matters
}

TEST_F(FailpointRegistry, ArmRejectsBadProbability) {
  if (!failpoints::compiled_in()) GTEST_SKIP();
  failpoints::ArmSpec spec;
  spec.probability = 1.5;
  EXPECT_THROW(failpoints::arm("test.bad", spec), std::invalid_argument);
  spec.probability = -0.1;
  EXPECT_THROW(failpoints::arm("test.bad", spec), std::invalid_argument);
}

TEST_F(FailpointRegistry, DisarmKeepsHitCounters) {
  if (!failpoints::compiled_in()) GTEST_SKIP();
  failpoints::arm("test.disarm", {});
  EXPECT_THROW(failpoints::hit("test.disarm"), failpoints::FailpointError);
  failpoints::disarm("test.disarm");
  EXPECT_NO_THROW(failpoints::hit("test.disarm"));  // inert now
  EXPECT_EQ(failpoints::hits("test.disarm"), 2u);   // but still counted
}

// ----------------------------------------------- injected service faults

TEST_F(ServiceFaults, SolverEntryFailureHasExactTaxonomy) {
  if (!failpoints::compiled_in()) GTEST_SKIP();
  failpoints::ArmSpec spec;
  spec.skip = 1;
  spec.fire = 1;
  failpoints::arm("solver.entry", spec);

  ServiceConfig config;
  config.threads = 1;  // dispatch order == ticket order
  SchedulerService service(config);
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(service.submit(
        SolveRequest{"naive", SolverOptions::from_string("policy=lpt-seq"),
                     InstanceHandle::intern(small_instance(700 + i)), /*consult_cache=*/false}));
  }
  service.drain();

  EXPECT_EQ(service.wait(tickets[0]).status, SolveStatus::kOk);
  const SolveOutcome failed = service.wait(tickets[1]);
  EXPECT_EQ(failed.status, SolveStatus::kError);
  EXPECT_EQ(failed.error.code, SolveErrorCode::kSolverFailure);
  EXPECT_NE(failed.error.detail.find("failpoint fired: solver.entry"), std::string::npos);
  EXPECT_EQ(service.wait(tickets[2]).status, SolveStatus::kOk);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.delivered, 3u);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST_F(ServiceFaults, DispatchFaultsUnderSeededProbabilityStayAccounted) {
  if (!failpoints::compiled_in()) GTEST_SKIP();
  failpoints::ArmSpec spec;
  spec.probability = 0.5;
  spec.seed = 2026;
  failpoints::arm("service.dispatch", spec);

  ServiceConfig config;
  config.threads = 4;
  SchedulerService service(config);
  constexpr int kJobs = 48;
  std::vector<JobTicket> tickets;
  for (int i = 0; i < kJobs; ++i) {
    tickets.push_back(service.submit(
        SolveRequest{"naive", SolverOptions::from_string("policy=lpt-seq"),
                     InstanceHandle::intern(small_instance(800 + i)), /*consult_cache=*/false}));
  }
  service.drain();

  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  for (const auto ticket : tickets) {
    const SolveOutcome outcome = service.wait(ticket);
    if (outcome.status == SolveStatus::kOk) {
      ++ok;
    } else {
      ++failed;
      EXPECT_EQ(outcome.error.code, SolveErrorCode::kSolverFailure);
      EXPECT_NE(outcome.error.detail.find("service.dispatch"), std::string::npos);
    }
  }
  EXPECT_GT(failed, 0u);  // p=0.5 over 48 dispatches: both outcomes occur
  EXPECT_GT(ok, 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.failed, failed);
  EXPECT_EQ(stats.completed + stats.failed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.delivered, static_cast<std::uint64_t>(kJobs));
}

TEST_F(ServiceFaults, CacheLookupFailuresDegradeToMisses) {
  if (!failpoints::compiled_in()) GTEST_SKIP();
  failpoints::arm("cache.lookup", {});  // every lookup throws

  SchedulerService service;  // cache on by default
  const auto handle = InstanceHandle::intern(small_instance(90));
  const SolveRequest request{"naive", SolverOptions::from_string("policy=lpt-seq"), handle};
  EXPECT_EQ(service.wait(service.submit(request)).status, SolveStatus::kOk);
  const SolveOutcome second = service.wait(service.submit(request));
  EXPECT_EQ(second.status, SolveStatus::kOk);
  EXPECT_FALSE(second.cache_hit);  // the identical request had to re-solve

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 0u);
  // Each request fails two lookups: the submit-time peek and the
  // dispatch-time (usually authoritative) one.
  EXPECT_EQ(stats.cache_failures, 4u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST_F(ServiceFaults, CacheInsertFailuresOnlyLoseTheMemo) {
  if (!failpoints::compiled_in()) GTEST_SKIP();
  failpoints::arm("cache.insert", {});  // every insert throws

  SchedulerService service;
  const auto handle = InstanceHandle::intern(small_instance(91));
  const SolveRequest request{"naive", SolverOptions::from_string("policy=lpt-seq"), handle};
  EXPECT_EQ(service.wait(service.submit(request)).status, SolveStatus::kOk);
  const SolveOutcome second = service.wait(service.submit(request));
  EXPECT_EQ(second.status, SolveStatus::kOk);
  EXPECT_FALSE(second.cache_hit);  // nothing was ever memoized

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cache_failures, 2u);  // one failed insert per real solve
  EXPECT_EQ(stats.cache_entries, 0u);
}

TEST_F(ServiceFaults, ShutdownMidDrainLeavesNoHangAndExactCounts) {
  const auto gate = std::make_shared<PollGate>();
  const auto registry = robustness_registry(gate);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  SchedulerService service(config);

  const auto running = service.submit({"pollgate", {}, InstanceHandle::intern(small_instance(40))});
  std::vector<JobTicket> queued;
  for (int i = 0; i < 4; ++i) {
    queued.push_back(service.submit({"seq", {}, InstanceHandle::intern(small_instance(41 + i))}));
  }
  gate->wait_entered();

  // drain() blocks on the gated leader; shutdown() races it from another
  // thread. Neither may hang, and both must observe the complete stream.
  std::thread drainer([&service] { service.drain(); });
  std::thread stopper([&service, &gate] {
    // Cancel the queued tail, then release the gate so the running solve
    // (which shutdown waits on) can finish.
    std::thread release([&gate] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      gate->open.store(true);
    });
    service.shutdown();
    release.join();
  });
  drainer.join();
  stopper.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.delivered, 5u);  // shutdown() returned => stream complete
  EXPECT_EQ(stats.completed, 1u);  // the released gate solve
  EXPECT_EQ(stats.cancelled, 4u);  // the queued tail, kShutdown
  EXPECT_EQ(service.wait(running).status, SolveStatus::kOk);
  for (const auto ticket : queued) {
    const SolveOutcome outcome = service.wait(ticket);
    EXPECT_EQ(outcome.status, SolveStatus::kCancelled);
    EXPECT_EQ(outcome.error.code, SolveErrorCode::kShutdown);
  }
}

// -------------------------------------------- deadlines and cancellation

TEST_F(Deadlines, CancelStopsARunningSolve) {
  const auto gate = std::make_shared<PollGate>();
  const auto registry = robustness_registry(gate);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  SchedulerService service(config);

  const auto ticket = service.submit({"pollgate", {}, InstanceHandle::intern(small_instance(50))});
  gate->wait_entered();
  EXPECT_TRUE(service.cancel(ticket));  // running: fires the token
  const SolveOutcome outcome = service.wait(ticket);
  EXPECT_EQ(outcome.status, SolveStatus::kCancelled);
  EXPECT_EQ(outcome.error.code, SolveErrorCode::kCancelled);
  EXPECT_EQ(service.stats().cancelled, 1u);
  service.drain();
}

TEST_F(Deadlines, BudgetStopsARunningSolveCooperatively) {
  const auto gate = std::make_shared<PollGate>();
  const auto registry = robustness_registry(gate);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  SchedulerService service(config);

  SolveRequest request{"slowpoll", {}, InstanceHandle::intern(small_instance(51))};
  request.budget_seconds = 0.05;  // the solver alone would run ~10 s
  const auto ticket = service.submit(std::move(request));
  const SolveOutcome outcome = service.wait(ticket);
  EXPECT_EQ(outcome.status, SolveStatus::kError);
  EXPECT_EQ(outcome.error.code, SolveErrorCode::kDeadlineExceeded);
  EXPECT_LT(outcome.wall_seconds, 5.0);  // stopped mid-solve, not at the end
  EXPECT_EQ(service.stats().deadline_misses, 1u);
}

TEST_F(Deadlines, QueueWaitCountsAgainstTheBudget) {
  const auto gate = std::make_shared<PollGate>();
  const auto registry = robustness_registry(gate);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  SchedulerService service(config);

  const auto blocker = service.submit({"pollgate", {}, InstanceHandle::intern(small_instance(52))});
  gate->wait_entered();
  SolveRequest request{"seq", {}, InstanceHandle::intern(small_instance(53))};
  request.budget_seconds = 0.01;
  const auto doomed = service.submit(std::move(request));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // expire in queue
  gate->open.store(true);

  const SolveOutcome outcome = service.wait(doomed);
  EXPECT_EQ(outcome.status, SolveStatus::kError);
  EXPECT_EQ(outcome.error.code, SolveErrorCode::kDeadlineExceeded);
  EXPECT_NE(outcome.error.detail.find("while queued"), std::string::npos);
  EXPECT_EQ(service.wait(blocker).status, SolveStatus::kOk);
  EXPECT_EQ(service.stats().deadline_misses, 1u);
}

// The acceptance check: a 10k-task mrt solve under a budget returns
// deadline_exceeded well before normal completion. The stairs family on a
// wide machine count is the slowest point of the generator grid for mrt.
// The budget is a tenth of an uncancelled solve of the same handle, timed
// first on the same service, so it expires long before the solve could
// finish however fast the solver or the host is.
TEST_F(Deadlines, LargeMrtSolveHonorsA50msBudget) {
  SchedulerService service;  // global registry, real mrt
  GeneratorOptions generator;
  generator.tasks = 10'000;
  generator.machines = 1024;
  const auto handle = InstanceHandle::intern(
      generate_instance(WorkloadFamily::kStairs, generator, /*seed=*/54));

  SolveRequest full{"mrt", {}, handle};
  full.use_cache = false;
  const SolveOutcome uncancelled = service.wait(service.submit(std::move(full)));
  ASSERT_EQ(uncancelled.status, SolveStatus::kOk);
  const double full_seconds = uncancelled.wall_seconds;

  SolveRequest request{"mrt", {}, handle};
  request.budget_seconds = full_seconds / 10.0;
  request.use_cache = false;
  const auto ticket = service.submit(std::move(request));
  const SolveOutcome outcome = service.wait(ticket);
  EXPECT_EQ(outcome.status, SolveStatus::kError);
  EXPECT_EQ(outcome.error.code, SolveErrorCode::kDeadlineExceeded);
  // "Well before normal completion": the stop lands within one check
  // stride of the budget, typically by a fifth of the full solve; the
  // bound leaves room for a stride that the host preempts.
  EXPECT_LT(outcome.wall_seconds, 0.75 * full_seconds)
      << "full solve " << full_seconds << " s, budget " << full_seconds / 10.0 << " s";
  EXPECT_EQ(service.stats().deadline_misses, 1u);
}

TEST_F(Deadlines, UndisturbedRequestsAreByteIdenticalWithAndWithoutBudget) {
  // An armed-but-never-firing check must not perturb the result: same
  // instance, same solver, one run with a generous budget, one without.
  const auto handle = InstanceHandle::intern(small_instance(55, /*tasks=*/120));
  SolveRequest plain{"mrt", {}, handle};
  SolveRequest budgeted{"mrt", {}, handle};
  budgeted.budget_seconds = 3600.0;
  const SolverResult a = SolverRegistry::global().solve(plain);
  const SolverResult b = SolverRegistry::global().solve(budgeted);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.schedule.assignments().size(), b.schedule.assignments().size());
  for (std::size_t i = 0; i < a.schedule.assignments().size(); ++i) {
    EXPECT_EQ(a.schedule.assignments()[i].start, b.schedule.assignments()[i].start);
    EXPECT_EQ(a.schedule.assignments()[i].first_proc, b.schedule.assignments()[i].first_proc);
    EXPECT_EQ(a.schedule.assignments()[i].num_procs, b.schedule.assignments()[i].num_procs);
  }
}

// --------------------------------------------------- admission + degrade

TEST_F(Admission, RejectTurnsOverflowTerminalImmediately) {
  const auto gate = std::make_shared<PollGate>();
  const auto registry = robustness_registry(gate);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  config.max_queue_depth = 2;
  config.overload_policy = "reject";
  SchedulerService service(config);

  const auto running = service.submit({"pollgate", {}, InstanceHandle::intern(small_instance(60))});
  gate->wait_entered();  // worker busy; the queue is empty again
  const auto queued_a = service.submit({"seq", {}, InstanceHandle::intern(small_instance(61))});
  const auto queued_b = service.submit({"seq", {}, InstanceHandle::intern(small_instance(62))});
  const auto refused = service.submit({"seq", {}, InstanceHandle::intern(small_instance(63))});

  const auto outcome = service.poll(refused);  // terminal without dispatch
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->status, SolveStatus::kError);
  EXPECT_EQ(outcome->error.code, SolveErrorCode::kRejected);
  EXPECT_EQ(outcome->worker, -1);

  gate->open.store(true);
  service.drain();
  EXPECT_EQ(service.wait(queued_a).status, SolveStatus::kOk);
  EXPECT_EQ(service.wait(queued_b).status, SolveStatus::kOk);
  EXPECT_EQ(service.wait(running).status, SolveStatus::kOk);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.failed, 1u);  // the rejection is the only error
  EXPECT_EQ(stats.completed, 3u);
}

TEST_F(Admission, ShedOldestEvictsTheOldestQueuedJob) {
  const auto gate = std::make_shared<PollGate>();
  const auto registry = robustness_registry(gate);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  config.max_queue_depth = 2;
  config.overload_policy = "shed_oldest";
  SchedulerService service(config);

  const auto running = service.submit({"pollgate", {}, InstanceHandle::intern(small_instance(64))});
  gate->wait_entered();
  const auto oldest = service.submit({"seq", {}, InstanceHandle::intern(small_instance(65))});
  const auto kept = service.submit({"seq", {}, InstanceHandle::intern(small_instance(66))});
  const auto admitted = service.submit({"seq", {}, InstanceHandle::intern(small_instance(67))});

  const auto shed = service.poll(oldest);  // evicted in favor of `admitted`
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->status, SolveStatus::kError);
  EXPECT_EQ(shed->error.code, SolveErrorCode::kRejected);
  EXPECT_NE(shed->error.detail.find("shed"), std::string::npos);

  gate->open.store(true);
  service.drain();
  EXPECT_EQ(service.wait(kept).status, SolveStatus::kOk);
  EXPECT_EQ(service.wait(admitted).status, SolveStatus::kOk);
  EXPECT_EQ(service.wait(running).status, SolveStatus::kOk);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(Admission, DegradeAnswersOverflowWithTheFallbackSolver) {
  const auto gate = std::make_shared<PollGate>();
  const auto registry = robustness_registry(gate);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  config.max_queue_depth = 1;
  config.overload_policy = "degrade";
  config.fallback_solver = "seq";
  SchedulerService service(config);

  const auto running = service.submit({"pollgate", {}, InstanceHandle::intern(small_instance(68))});
  gate->wait_entered();
  const auto normal = service.submit({"slowpoll", {}, InstanceHandle::intern(small_instance(69))});
  // Past the watermark: admitted, but flagged to run "seq" instead of the
  // 10 s "slowpoll" it asked for.
  const auto degraded =
      service.submit({"slowpoll", {}, InstanceHandle::intern(small_instance(70))});
  // Unblock: cancel the honest slowpoll (it would run 10 s) and release.
  EXPECT_TRUE(service.cancel(normal));
  gate->open.store(true);

  const SolveOutcome outcome = service.wait(degraded);
  EXPECT_EQ(outcome.status, SolveStatus::kOk);
  EXPECT_TRUE(outcome.fallback_used);
  EXPECT_FALSE(outcome.cache_hit);
  service.drain();
  EXPECT_EQ(service.wait(running).status, SolveStatus::kOk);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST_F(Admission, DegradeRetriesADeadlineMissOnTheFallback) {
  const auto gate = std::make_shared<PollGate>();
  const auto registry = robustness_registry(gate);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  config.max_queue_depth = 8;  // never overloaded; degrade only via deadline
  config.overload_policy = "degrade";
  config.fallback_solver = "seq";
  SchedulerService service(config);

  SolveRequest request{"slowpoll", {}, InstanceHandle::intern(small_instance(71))};
  request.budget_seconds = 0.05;
  const auto ticket = service.submit(std::move(request));
  const SolveOutcome outcome = service.wait(ticket);
  // The primary missed its deadline; the fast fallback answered instead of
  // surfacing the error.
  EXPECT_EQ(outcome.status, SolveStatus::kOk);
  EXPECT_TRUE(outcome.fallback_used);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(Admission, ShardedTierAppliesPerShardAdmission) {
  const auto gate = std::make_shared<PollGate>();
  const auto registry = robustness_registry(gate);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  config.max_queue_depth = 8;
  config.overload_policy = "degrade";
  config.fallback_solver = "seq";
  ShardedSchedulerService service(config, 2);

  SolveRequest request{"slowpoll", {}, InstanceHandle::intern(small_instance(72))};
  request.budget_seconds = 0.05;
  const auto ticket = service.submit(std::move(request));
  const SolveOutcome outcome = service.wait(ticket);
  EXPECT_EQ(outcome.status, SolveStatus::kOk);
  EXPECT_TRUE(outcome.fallback_used);
  EXPECT_GE(outcome.shard, 0);  // served and rewritten by a shard
  const ServiceStats stats = service.stats();  // accumulate() covers new fields
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.deadline_misses, 1u);
}

}  // namespace
}  // namespace malsched
