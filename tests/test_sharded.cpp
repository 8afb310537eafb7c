// Tests for the sharded serving tier (src/api/sharded_service.*), the
// process-wide intern table behind it (model/instance_handle), the
// ServiceConfig aggregate, and the typed SolveError taxonomy: byte-identical
// outcomes across shard AND worker counts, content routing, per-shard dedup
// with cross-shard independence, config rejection paths, and shutdown/drain
// with pending work on every shard.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/malsched.hpp"
#include "exec/batch_json.hpp"
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

/// Mixed-solver requests, one same-instance mrt pair that differs only in
/// epsilon (two cache misses on one instance), and exact-duplicate tails
/// (cache-hit material), seeded away from the other suites so the
/// process-wide intern table never aliases their content.
std::vector<SolveRequest> mixed_requests(std::size_t base_count) {
  const std::vector<std::pair<std::string, std::string>> configs{
      {"mrt", ""},
      {"two_phase", "rigid=ffdh"},
      {"naive", "policy=lpt-seq"},
      {"two_shelves_32", ""},
  };
  std::vector<SolveRequest> requests;
  for (std::size_t i = 0; i < base_count; ++i) {
    const auto& [solver, spec] = configs[i % configs.size()];
    requests.emplace_back(solver, SolverOptions::from_string(spec),
                          InstanceHandle::intern(small_instance(7100 + i)));
  }
  const auto pair_instance = InstanceHandle::intern(small_instance(7100 + base_count));
  requests.emplace_back("mrt", SolverOptions::from_string("epsilon=0.05"), pair_instance);
  requests.emplace_back("mrt", SolverOptions::from_string("epsilon=0.02"), pair_instance);
  requests.emplace_back(requests[1].solver, requests[1].options, requests[1].instance);
  requests.emplace_back(requests[2].solver, requests[2].options, requests[2].instance);
  return requests;
}

/// Outcomes reshaped as a BatchReport so the byte-compare reuses the proven
/// exec/batch_json serialization. Indices come from submission order, NOT
/// the (composite, per-shard) sharded tickets.
BatchReport report_from(const std::vector<SolveOutcome>& outcomes) {
  BatchReport report;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    BatchItem item;
    item.index = i;
    item.status = outcomes[i].status;
    item.result = outcomes[i].result;
    item.error = outcomes[i].error;
    switch (item.status) {
      case SolveStatus::kOk: ++report.ok; break;
      case SolveStatus::kError: ++report.errors; break;
      case SolveStatus::kCancelled: ++report.cancelled; break;
    }
    report.items.push_back(std::move(item));
  }
  return report;
}

/// Two-way latch for the blocking test solver (same shape as the
/// test_service one; duplicated because both live in anonymous namespaces).
struct Gate {
  Mutex mutex;
  CondVar cv;
  int entered MALSCHED_GUARDED_BY(mutex){0};
  bool open MALSCHED_GUARDED_BY(mutex){false};

  void enter_and_wait() MALSCHED_EXCLUDES(mutex) {
    const LockGuard lock(mutex);
    ++entered;
    cv.notify_all();
    while (!open) cv.wait(mutex);
  }
  void wait_entered(int count) MALSCHED_EXCLUDES(mutex) {
    const LockGuard lock(mutex);
    while (entered < count) cv.wait(mutex);
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

/// Registry with a fast solver and a counting, gate-blocked solver.
SolverRegistry gated_registry(const std::shared_ptr<Gate>& gate,
                              const std::shared_ptr<std::atomic<int>>& solves) {
  SolverRegistry registry;
  registry.add("seq", "sequential on processor 0",
               [](const Instance& instance, const SolverOptions&) {
                 return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
               });
  registry.add("counted-gate", "counts invocations, blocks until released",
               [gate, solves](const Instance& instance, const SolverOptions&) {
                 solves->fetch_add(1);
                 gate->enter_and_wait();
                 return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
               });
  return registry;
}

/// Two handles (from the given seed base) that route to DIFFERENT shards of
/// a `shards`-way service -- found by scanning seeds, so the test never
/// depends on how the fingerprint function distributes any one seed.
std::pair<InstanceHandle, InstanceHandle> handles_on_distinct_shards(
    const ShardedSchedulerService& service, std::uint64_t seed_base) {
  const InstanceHandle first = InstanceHandle::intern(small_instance(seed_base));
  for (std::uint64_t seed = seed_base + 1; seed < seed_base + 64; ++seed) {
    InstanceHandle candidate = InstanceHandle::intern(small_instance(seed));
    if (service.shard_of(candidate) != service.shard_of(first)) {
      return {first, std::move(candidate)};
    }
  }
  ADD_FAILURE() << "no distinct-shard seed found in 64 tries";
  return {first, first};
}

// ------------------------------------------------------------- determinism

// The tentpole acceptance property: for a fixed request sequence, outcomes
// are byte-identical across shard counts AND worker counts, and identical
// to the closed-batch reference.
TEST(ShardedService, ByteIdenticalOutcomesAcrossShardAndWorkerCounts) {
  const auto requests = mixed_requests(16);
  BatchJsonOptions json;
  json.include_timing = false;
  json.include_schedules = true;
  const std::string reference = batch_report_json(solve_batch(requests), json);

  for (const unsigned shards : {1u, 2u, 8u}) {
    for (const unsigned workers : {1u, 2u, 8u}) {
      ServiceConfig config;
      config.threads = workers;
      ShardedSchedulerService service(config, shards);
      const auto tickets = service.submit(requests);
      ASSERT_EQ(tickets.size(), requests.size());
      service.drain();

      std::vector<SolveOutcome> outcomes;
      outcomes.reserve(tickets.size());
      for (const auto ticket : tickets) outcomes.push_back(service.wait(ticket));
      EXPECT_EQ(batch_report_json(report_from(outcomes), json), reference)
          << "outcomes differ at " << shards << " shards x " << workers << " workers";

      const auto stats = service.stats();
      EXPECT_EQ(stats.submitted, requests.size());
      EXPECT_EQ(stats.completed, requests.size());
      EXPECT_EQ(stats.delivered, requests.size());
    }
  }
}

TEST(ShardedService, RoutesByFingerprintAndStampsShardProvenance) {
  ServiceConfig config;
  config.threads = 2;
  ShardedSchedulerService service(config, 4);
  EXPECT_EQ(service.shards(), 4u);
  EXPECT_EQ(service.threads(), 8u);

  for (std::uint64_t seed = 7300; seed < 7310; ++seed) {
    const auto handle = InstanceHandle::intern(small_instance(seed));
    const unsigned expected = static_cast<unsigned>(handle.fingerprint() % 4);
    EXPECT_EQ(service.shard_of(handle), expected);

    const auto ticket = service.submit({"mrt", {}, handle});
    const auto outcome = service.wait(ticket);
    EXPECT_EQ(outcome.status, SolveStatus::kOk);
    EXPECT_EQ(outcome.ticket, ticket.id) << "outcome carries the composite ticket";
    EXPECT_EQ(outcome.shard, static_cast<int>(expected));
  }
  // Equal content routes identically -- the invariant per-shard dedup and
  // caching rest on.
  const auto a = InstanceHandle::intern(small_instance(7300));
  const auto b = InstanceHandle::intern(small_instance(7300));
  EXPECT_EQ(service.shard_of(a), service.shard_of(b));

  EXPECT_THROW(static_cast<void>(service.shard_of(InstanceHandle{})), std::invalid_argument);
  // A ticket naming a shard this service never had.
  EXPECT_THROW(static_cast<void>(service.poll(JobTicket{std::uint64_t{7} << 48})),
               std::out_of_range);
}

// ------------------------------------------------------------ intern table

// Cross-shard handle identity: equal content interned concurrently from
// many threads converges on ONE allocation (the process-wide intern table),
// with exactly one fingerprint computation per intern() and zero re-hashing
// afterwards, all the way through a sharded submit/drain cycle.
TEST(ShardedService, ConcurrentEqualContentInternsShareOneAllocationAndNeverRehash) {
  constexpr int kThreads = 8;
  const Instance content = small_instance(7401, 24, 12);

  const auto hashes_before = InstanceHandle::content_hashes();
  const auto hits_before = InstanceHandle::intern_table_hits();

  std::vector<InstanceHandle> handles(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&handles, &content, t] {
        handles[t] = InstanceHandle::intern(Instance{content});  // own copy each
      });
    }
    for (auto& thread : threads) thread.join();
  }

  // One hash per intern (the probe itself), no extras.
  EXPECT_EQ(InstanceHandle::content_hashes(), hashes_before + kThreads);
  // Exactly one thread inserted; the other seven were served by the table.
  EXPECT_EQ(InstanceHandle::intern_table_hits(), hits_before + kThreads - 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(handles[t].shared().get(), handles[0].shared().get())
        << "equal-content handles must share one allocation";
    EXPECT_EQ(handles[t].fingerprint(), handles[0].fingerprint());
    EXPECT_EQ(handles[t].static_lower_bound(), handles[0].static_lower_bound());
    EXPECT_TRUE(handles[t] == handles[0]);  // pointer fast path
  }

  // Zero re-hash audit across the sharded serving path: submitting every
  // handle (cache keys included) must not touch profile bits again.
  const auto hashes_mid = InstanceHandle::content_hashes();
  ServiceConfig config;
  config.threads = 2;
  ShardedSchedulerService service(config, 2);
  std::vector<JobTicket> tickets;
  tickets.reserve(handles.size());
  for (const auto& handle : handles) {
    tickets.push_back(service.submit({"mrt", {}, handle}));
  }
  service.drain();
  for (const auto ticket : tickets) {
    EXPECT_EQ(service.wait(ticket).status, SolveStatus::kOk);
  }
  EXPECT_EQ(InstanceHandle::content_hashes(), hashes_mid)
      << "the submit path re-hashed an interned profile";
}

// --------------------------------------------------------- per-shard dedup

// Duplicates coalesce on their shard while a different-content request on
// another shard is served to completion with the first shard's leader still
// blocked -- shards do not contend.
TEST(ShardedService, DuplicatesJoinOnOneShardWhileOtherShardsServeIndependently) {
  const auto gate = std::make_shared<Gate>();
  const auto solves = std::make_shared<std::atomic<int>>(0);
  const auto registry = gated_registry(gate, solves);
  ServiceConfig config;
  config.threads = 2;  // leader blocks one worker; the spare drains joiners
  config.registry = &registry;
  ShardedSchedulerService service(config, 2);

  const auto [dup_handle, other_handle] = handles_on_distinct_shards(service, 7500);
  const unsigned dup_shard = service.shard_of(dup_handle);
  const unsigned other_shard = service.shard_of(other_handle);
  ASSERT_NE(dup_shard, other_shard);

  constexpr std::size_t kDuplicates = 4;
  std::vector<JobTicket> dup_tickets;
  for (std::size_t i = 0; i < kDuplicates; ++i) {
    dup_tickets.push_back(service.submit({"counted-gate", {}, dup_handle}));
  }
  gate->wait_entered(1);
  while (service.stats().dedup_joins < kDuplicates - 1) std::this_thread::yield();

  // The other shard's workers are untouched by the blocked leader: this
  // completes while the gate is still closed.
  const auto independent = service.wait(service.submit({"seq", {}, other_handle}));
  EXPECT_EQ(independent.status, SolveStatus::kOk);
  EXPECT_EQ(independent.shard, static_cast<int>(other_shard));
  EXPECT_EQ(solves->load(), 1) << "the leader must still be the only solve";

  gate->release();
  service.drain();

  EXPECT_EQ(solves->load(), 1) << "duplicates must coalesce onto one solve";
  const auto breakdown = service.shard_stats();
  ASSERT_EQ(breakdown.shards.size(), 2u);
  EXPECT_EQ(breakdown.shards[dup_shard].dedup_joins, kDuplicates - 1);
  EXPECT_EQ(breakdown.shards[dup_shard].submitted, kDuplicates);
  EXPECT_EQ(breakdown.shards[other_shard].dedup_joins, 0u);
  EXPECT_EQ(breakdown.shards[other_shard].completed, 1u);
  EXPECT_EQ(breakdown.total.submitted, kDuplicates + 1);
  EXPECT_EQ(breakdown.total.completed, kDuplicates + 1);
  EXPECT_EQ(breakdown.total.dedup_joins, kDuplicates - 1);
  EXPECT_EQ(service.stats().dedup_joins, kDuplicates - 1);

  for (const auto ticket : dup_tickets) {
    const auto outcome = service.wait(ticket);
    EXPECT_EQ(outcome.status, SolveStatus::kOk);
    EXPECT_EQ(outcome.shard, static_cast<int>(dup_shard));
  }
}

// ------------------------------------------------------------ ServiceConfig

TEST(ServiceConfigTest, DefaultsAreValidAndViolationsReadReasonably) {
  EXPECT_TRUE(ServiceConfig{}.validate().empty());
  EXPECT_NO_THROW(ServiceConfig{}.ensure_valid());

  ServiceConfig negative_ttl;
  negative_ttl.cache_ttl_seconds = -1.0;
  const auto ttl_errors = negative_ttl.validate();
  ASSERT_EQ(ttl_errors.size(), 1u);
  EXPECT_NE(ttl_errors[0].find("cache_ttl_seconds"), std::string::npos);

  ServiceConfig nan_ttl;
  nan_ttl.cache_ttl_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(nan_ttl.validate().size(), 1u);

  ServiceConfig zero_capacity;
  zero_capacity.cache = true;
  zero_capacity.cache_capacity = 0;
  const auto capacity_errors = zero_capacity.validate();
  ASSERT_EQ(capacity_errors.size(), 1u);
  EXPECT_NE(capacity_errors[0].find("cache_capacity"), std::string::npos);

  // cache off with capacity 0 is a fine way to say "no cache".
  ServiceConfig cache_off = zero_capacity;
  cache_off.cache = false;
  EXPECT_TRUE(cache_off.validate().empty());

  ServiceConfig absurd_threads;
  absurd_threads.threads = ServiceConfig::kMaxThreads + 1;
  EXPECT_EQ(absurd_threads.validate().size(), 1u);

  // Multiple violations are ALL reported, in one readable message.
  ServiceConfig doubly_bad;
  doubly_bad.cache_ttl_seconds = -2.0;
  doubly_bad.cache_capacity = 0;
  EXPECT_EQ(doubly_bad.validate().size(), 2u);
  try {
    doubly_bad.ensure_valid();
    FAIL() << "ensure_valid() must throw";
  } catch (const std::invalid_argument& err) {
    const std::string message = err.what();
    EXPECT_NE(message.find("cache_ttl_seconds"), std::string::npos);
    EXPECT_NE(message.find("cache_capacity"), std::string::npos);
  }
}

TEST(ServiceConfigTest, BothTiersRejectInvalidConfigsAtConstruction) {
  ServiceConfig bad;
  bad.cache_ttl_seconds = -1.0;
  EXPECT_THROW(SchedulerService{bad}, std::invalid_argument);
  EXPECT_THROW(ShardedSchedulerService(bad, 2), std::invalid_argument);
  EXPECT_THROW(ShardedSchedulerService({}, 0), std::invalid_argument);
  EXPECT_THROW(ShardedSchedulerService({}, ShardedSchedulerService::kMaxShards + 1),
               std::invalid_argument);
}

TEST(ServiceConfigTest, BothTiersRejectBadRobustnessKnobs) {
  ServiceConfig negative_depth;
  negative_depth.max_queue_depth = -3;
  const auto depth_errors = negative_depth.validate();
  ASSERT_EQ(depth_errors.size(), 1u);
  EXPECT_NE(depth_errors[0].find("max_queue_depth"), std::string::npos);
  EXPECT_THROW(SchedulerService{negative_depth}, std::invalid_argument);
  EXPECT_THROW(ShardedSchedulerService(negative_depth, 2), std::invalid_argument);

  ServiceConfig unknown_policy;
  unknown_policy.overload_policy = "panic";
  EXPECT_EQ(unknown_policy.validate().size(), 1u);
  EXPECT_THROW(SchedulerService{unknown_policy}, std::invalid_argument);
  EXPECT_THROW(ShardedSchedulerService(unknown_policy, 2), std::invalid_argument);

  ServiceConfig degrade_without_fallback;
  degrade_without_fallback.overload_policy = "degrade";
  EXPECT_EQ(degrade_without_fallback.validate().size(), 1u);
  EXPECT_THROW(ShardedSchedulerService(degrade_without_fallback, 2), std::invalid_argument);

  ServiceConfig unregistered_fallback;
  unregistered_fallback.fallback_solver = "not_a_solver";
  const auto fallback_errors = unregistered_fallback.validate();
  ASSERT_EQ(fallback_errors.size(), 1u);
  EXPECT_NE(fallback_errors[0].find("fallback_solver"), std::string::npos);
  EXPECT_THROW(ShardedSchedulerService(unregistered_fallback, 2), std::invalid_argument);

  // The effective registry is the CONFIGURED one: a fallback missing from a
  // custom registry is rejected even if the global registry has it, and a
  // custom solver unknown to the global registry validates fine.
  SolverRegistry custom;
  custom.add("fast", "custom fallback", [](const Instance& instance, const SolverOptions&) {
    return SolverResult{"", Schedule(instance.machines(), instance.size()), 0, 0, 0, 0, {}};
  });
  ServiceConfig custom_ok;
  custom_ok.registry = &custom;
  custom_ok.overload_policy = "degrade";
  custom_ok.fallback_solver = "fast";
  custom_ok.max_queue_depth = 1;
  EXPECT_TRUE(custom_ok.validate().empty());
  ServiceConfig custom_missing = custom_ok;
  custom_missing.fallback_solver = "two_phase";  // global-only name
  EXPECT_EQ(custom_missing.validate().size(), 1u);

  ServiceConfig good;
  good.max_queue_depth = 8;
  good.overload_policy = "shed_oldest";
  EXPECT_NO_THROW(ShardedSchedulerService(good, 2));
}

// ----------------------------------------------------------- typed errors

TEST(ShardedService, ErrorTaxonomyClassifiesFailureAndInvalidOption) {
  ServiceConfig config;
  config.threads = 1;
  ShardedSchedulerService service(config, 2);

  // Unknown option key -> rejected by OptionSpec validation before dispatch.
  const auto bad_option = service.wait(service.submit(
      {"mrt", SolverOptions::from_string("no_such_option=1"),
       InstanceHandle::intern(small_instance(7600))}));
  EXPECT_EQ(bad_option.status, SolveStatus::kError);
  EXPECT_EQ(bad_option.error.code, SolveErrorCode::kInvalidOption);
  EXPECT_NE(bad_option.error.detail.find("no_such_option"), std::string::npos);

  // Unknown solver name -> same code (a request the registry cannot take).
  const auto bad_solver = service.wait(service.submit(
      {"no-such-solver", {}, InstanceHandle::intern(small_instance(7601))}));
  EXPECT_EQ(bad_solver.status, SolveStatus::kError);
  EXPECT_EQ(bad_solver.error.code, SolveErrorCode::kInvalidOption);

  EXPECT_EQ(to_string(SolveErrorCode::kInvalidOption), "invalid_option");
  EXPECT_EQ(to_string(SolveErrorCode::kSolverFailure), "solver_failure");
  EXPECT_EQ(to_string(SolveErrorCode::kCancelled), "cancelled");
  EXPECT_EQ(to_string(SolveErrorCode::kShutdown), "shutdown");
  EXPECT_EQ(to_string(SolveErrorCode::kNone), "none");
}

// --------------------------------------------------------- shutdown / drain

// Shutdown with the pipeline full on every shard: running solves finish,
// queued jobs are cancelled with the kShutdown code, everything stays
// poll()-able, and the counters close over the per-shard breakdown.
TEST(ShardedService, ShutdownWithPendingWorkAcrossAllShards) {
  // One gate PER SHARD: shutdown() fans out shard by shard (cancel queued,
  // then join that shard's pool), so a single shared gate could not be
  // released without letting the not-yet-shut shard's worker steal its
  // queued job back.
  const auto gate_a = std::make_shared<Gate>();
  const auto gate_b = std::make_shared<Gate>();
  SolverRegistry registry;
  registry.add("seq", "sequential on processor 0",
               [](const Instance& instance, const SolverOptions&) {
                 return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
               });
  registry.add("gate-a", "blocks until the test releases gate_a",
               [gate_a](const Instance& instance, const SolverOptions&) {
                 gate_a->enter_and_wait();
                 return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
               });
  registry.add("gate-b", "blocks until the test releases gate_b",
               [gate_b](const Instance& instance, const SolverOptions&) {
                 gate_b->enter_and_wait();
                 return SolverResult{"", sequential_schedule(instance), 0, 0, 0, 0, {}};
               });
  ServiceConfig config;
  config.threads = 1;  // one worker per shard: the gated job blocks the shard
  config.registry = &registry;
  ShardedSchedulerService service(config, 2);

  const auto [handle_a, handle_b] = handles_on_distinct_shards(service, 7700);

  // One gated job per shard (both workers blocked), then a queued job per
  // shard that shutdown() must cancel.
  const auto running_a = service.submit({"gate-a", {}, handle_a});
  const auto running_b = service.submit({"gate-b", {}, handle_b});
  gate_a->wait_entered(1);
  gate_b->wait_entered(1);
  // use_cache=false keeps the queued duplicates from joining the gated
  // leaders -- they must sit QUEUED so shutdown() cancels them.
  const auto queued_a = service.submit({"seq", {}, handle_a, /*consult_cache=*/false});
  const auto queued_b = service.submit({"seq", {}, handle_b, /*consult_cache=*/false});
  EXPECT_EQ(service.state(queued_a), JobState::kQueued);
  EXPECT_EQ(service.state(queued_b), JobState::kQueued);

  // shutdown() runs on a helper thread (it joins the gated workers); each
  // gate is released only AFTER its shard's queued job has been cancelled
  // (turned terminal) -- releasing earlier would let that shard's worker
  // steal the queued job back. Shard shutdown order is an implementation
  // detail, so poll both and release whichever cancellation lands first.
  std::thread shutter([&service] { service.shutdown(); });
  bool released_a = false;
  bool released_b = false;
  while (!released_a || !released_b) {
    if (!released_a && service.state(queued_a) == JobState::kDone) {
      gate_a->release();
      released_a = true;
    }
    if (!released_b && service.state(queued_b) == JobState::kDone) {
      gate_b->release();
      released_b = true;
    }
    std::this_thread::yield();
  }
  shutter.join();

  for (const auto ticket : {running_a, running_b}) {
    const auto outcome = service.wait(ticket);
    EXPECT_EQ(outcome.status, SolveStatus::kOk) << "running solves finish on shutdown";
  }
  for (const auto ticket : {queued_a, queued_b}) {
    const auto outcome = service.wait(ticket);
    EXPECT_EQ(outcome.status, SolveStatus::kCancelled);
    EXPECT_EQ(outcome.error.code, SolveErrorCode::kShutdown);
  }

  const auto breakdown = service.shard_stats();
  EXPECT_EQ(breakdown.total.submitted, 4u);
  EXPECT_EQ(breakdown.total.completed, 2u);
  EXPECT_EQ(breakdown.total.cancelled, 2u);
  for (const auto& shard : breakdown.shards) {
    EXPECT_EQ(shard.submitted, 2u);
    EXPECT_EQ(shard.completed, 1u);
    EXPECT_EQ(shard.cancelled, 1u);
  }

  EXPECT_THROW(static_cast<void>(service.submit({"seq", {}, handle_a})), std::runtime_error);
  service.shutdown();  // idempotent
}

// drain() returns only when every shard's stream is flushed; a fresh
// service drains trivially.
TEST(ShardedService, DrainCoversEveryShard) {
  ServiceConfig config;
  config.threads = 1;
  ShardedSchedulerService service(config, 3);
  service.drain();  // empty: returns immediately

  std::vector<JobTicket> tickets;
  for (std::uint64_t seed = 7800; seed < 7812; ++seed) {
    tickets.push_back(service.submit({"mrt", {}, InstanceHandle::intern(small_instance(seed))}));
  }
  service.drain();
  const auto stats = service.stats();
  EXPECT_EQ(stats.delivered, tickets.size());
  for (const auto ticket : tickets) {
    EXPECT_EQ(service.state(ticket), JobState::kDone);
  }
}

// Streaming across shards: every outcome is delivered exactly once with the
// composite ticket and shard stamped; per-shard suborder follows per-shard
// ticket order.
TEST(ShardedService, StreamDeliversEveryOutcomeOnceWithShardProvenance) {
  ServiceConfig config;
  config.threads = 2;
  ShardedSchedulerService service(config, 4);

  struct Seen {
    Mutex mutex;
    std::vector<SolveOutcome> outcomes MALSCHED_GUARDED_BY(mutex);
  };
  const auto seen = std::make_shared<Seen>();
  service.on_result([seen](const SolveOutcome& outcome) {
    const LockGuard lock(seen->mutex);
    seen->outcomes.push_back(outcome);
  });

  std::vector<JobTicket> tickets;
  for (std::uint64_t seed = 7900; seed < 7920; ++seed) {
    tickets.push_back(service.submit({"mrt", {}, InstanceHandle::intern(small_instance(seed))}));
  }
  service.drain();

  const LockGuard lock(seen->mutex);
  ASSERT_EQ(seen->outcomes.size(), tickets.size());
  std::vector<std::uint64_t> delivered;
  std::vector<std::uint64_t> expected;
  std::vector<std::uint64_t> last_inner_per_shard(4, 0);
  for (const auto& outcome : seen->outcomes) {
    ASSERT_GE(outcome.shard, 0);
    ASSERT_LT(outcome.shard, 4);
    delivered.push_back(outcome.ticket);
    // Within one shard, delivery follows per-shard ticket order.
    const auto inner = outcome.ticket & ((std::uint64_t{1} << 48) - 1);
    auto& last = last_inner_per_shard[static_cast<std::size_t>(outcome.shard)];
    EXPECT_GE(inner, last);
    last = inner;
  }
  for (const auto ticket : tickets) expected.push_back(ticket.id);
  std::sort(delivered.begin(), delivered.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(delivered, expected) << "each ticket delivered exactly once";
}

}  // namespace
}  // namespace malsched
