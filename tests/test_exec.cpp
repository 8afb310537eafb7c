// Tests for src/exec: the deterministic BatchRunner fan-out, its JSON
// serialization, and the api/solve_batch facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/solve_batch.hpp"
#include "exec/batch_json.hpp"
#include "exec/batch_runner.hpp"
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

/// A mixed batch: families rotate with the seed, solvers with the index.
std::vector<SolveRequest> mixed_jobs(std::size_t count) {
  const std::vector<std::pair<std::string, std::string>> configs{
      {"mrt", ""},
      {"two_phase", "rigid=ffdh"},
      {"naive", "policy=lpt-seq"},
      {"two_shelves_32", ""},
  };
  std::vector<SolveRequest> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& [solver, spec] = configs[i % configs.size()];
    jobs.push_back({solver, SolverOptions::from_string(spec),
                    InstanceHandle::intern(small_instance(100 + i))});
  }
  return jobs;
}

/// Registry with one well-behaved solver and one that always throws.
SolverRegistry flaky_registry() {
  SolverRegistry registry;
  registry.add("seq", "puts every task on one processor, back to back",
               [](const Instance& instance, const SolverOptions&) {
                 Schedule schedule(instance.machines(), instance.size());
                 double t = 0.0;
                 for (int i = 0; i < instance.size(); ++i) {
                   schedule.assign(i, t, instance.task(i).time(1), 0, 1);
                   t += instance.task(i).time(1);
                 }
                 return SolverResult{"", std::move(schedule), 0, 0, 0, 0, {}};
               });
  registry.add("boom", "always throws", [](const Instance&, const SolverOptions&) -> SolverResult {
    throw std::runtime_error("boom: simulated solver failure");
  });
  return registry;
}

// --------------------------------------------------------------- BatchRunner

TEST(BatchRunner, EmptyBatchIsANoop) {
  const auto report = BatchRunner().run(std::vector<SolveRequest>{});
  EXPECT_TRUE(report.items.empty());
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.ok + report.errors + report.cancelled, 0u);
}

TEST(BatchRunner, ItemsComeBackInJobOrder) {
  const auto jobs = mixed_jobs(12);
  const auto hashes_before = InstanceHandle::content_hashes();
  BatchRunnerOptions options;
  options.threads = 4;
  const auto report = BatchRunner(SolverRegistry::global(), options).run(jobs);
  EXPECT_EQ(InstanceHandle::content_hashes(), hashes_before)
      << "the request path must not re-fingerprint interned instances";
  ASSERT_EQ(report.items.size(), jobs.size());
  EXPECT_EQ(report.ok, jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(report.items[i].index, i);
    ASSERT_TRUE(report.items[i].result.has_value());
    EXPECT_EQ(report.items[i].result->solver, jobs[i].solver);
  }
}

TEST(BatchRunner, MatchesSerialRegistryDispatch) {
  const auto jobs = mixed_jobs(8);
  BatchRunnerOptions options;
  options.threads = 3;
  const auto report = BatchRunner(SolverRegistry::global(), options).run(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto direct = SolverRegistry::global().solve(jobs[i]);
    ASSERT_TRUE(report.items[i].result.has_value());
    EXPECT_DOUBLE_EQ(report.items[i].result->makespan, direct.makespan);
    EXPECT_DOUBLE_EQ(report.items[i].result->lower_bound, direct.lower_bound);
  }
}

// The acceptance property of the whole subsystem: a 64-instance batch on 8
// threads serializes byte-identically to the 1-thread run (schedules
// included; only wall times may differ, and those are excluded).
TEST(BatchRunner, ByteIdenticalAcrossThreadCounts) {
  const auto jobs = mixed_jobs(64);
  BatchJsonOptions json;
  json.include_timing = false;
  json.include_schedules = true;

  std::string baseline;
  for (const unsigned threads : {1u, 2u, 8u}) {
    BatchRunnerOptions options;
    options.threads = threads;
    const auto report = BatchRunner(SolverRegistry::global(), options).run(jobs);
    EXPECT_EQ(report.ok, jobs.size());
    EXPECT_EQ(report.threads, std::min<std::size_t>(threads, jobs.size()));
    const auto text = batch_report_json(report, json);
    if (baseline.empty()) {
      baseline = text;
    } else {
      EXPECT_EQ(text, baseline) << "results depend on the thread count at " << threads;
    }
  }
}

TEST(BatchRunner, RequestWithEmptyHandleIsRejectedUpFront) {
  std::vector<SolveRequest> requests(1);  // default = empty handle
  EXPECT_THROW(static_cast<void>(BatchRunner().run(requests)), std::invalid_argument);
}

TEST(BatchRunner, OversubscriptionStressStaysDeterministic) {
  // Far more workers than cores (this container has few) and than jobs'
  // natural parallelism; tiny instances maximize scheduling churn.
  std::vector<SolveRequest> jobs;
  for (std::size_t i = 0; i < 100; ++i) {
    jobs.push_back({"naive", SolverOptions::from_string("policy=lpt-seq"),
                    InstanceHandle::intern(small_instance(i, /*tasks=*/6, /*machines=*/4))});
  }
  BatchJsonOptions json;
  json.include_timing = false;
  json.include_schedules = true;

  BatchRunnerOptions serial;
  serial.threads = 1;
  const auto reference = batch_report_json(BatchRunner(SolverRegistry::global(), serial).run(jobs), json);

  BatchRunnerOptions oversubscribed;
  oversubscribed.threads = 32;
  const auto report = BatchRunner(SolverRegistry::global(), oversubscribed).run(jobs);
  EXPECT_EQ(report.ok, jobs.size());
  EXPECT_EQ(report.threads, 32u);
  EXPECT_EQ(batch_report_json(report, json), reference);
}

TEST(BatchRunner, OneThrowingSolveDoesNotPoisonTheBatch) {
  const auto registry = flaky_registry();
  std::vector<SolveRequest> jobs;
  for (std::size_t i = 0; i < 10; ++i) {
    jobs.push_back({i % 2 == 0 ? "seq" : "boom", {}, InstanceHandle::intern(small_instance(i))});
  }
  BatchRunnerOptions options;
  options.threads = 4;
  const auto report = BatchRunner(registry, options).run(jobs);
  EXPECT_EQ(report.ok, 5u);
  EXPECT_EQ(report.errors, 5u);
  EXPECT_EQ(report.cancelled, 0u);
  EXPECT_FALSE(report.all_ok());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(report.items[i].status, SolveStatus::kOk);
      ASSERT_TRUE(report.items[i].result.has_value());
      EXPECT_TRUE(report.items[i].result->schedule.complete());
    } else {
      EXPECT_EQ(report.items[i].status, SolveStatus::kError);
      EXPECT_EQ(report.items[i].error.code, SolveErrorCode::kSolverFailure);
      EXPECT_NE(report.items[i].error.detail.find("boom"), std::string::npos);
      EXPECT_FALSE(report.items[i].result.has_value());
    }
  }
}

TEST(BatchRunner, UnknownSolverNameIsIsolatedToo) {
  std::vector<SolveRequest> jobs;
  jobs.push_back({"mrt", {}, InstanceHandle::intern(small_instance(1))});
  jobs.push_back({"no-such-solver", {}, InstanceHandle::intern(small_instance(2))});
  const auto report = BatchRunner().run(jobs);
  EXPECT_EQ(report.ok, 1u);
  EXPECT_EQ(report.errors, 1u);
  EXPECT_EQ(report.items[1].error.code, SolveErrorCode::kInvalidOption);
  EXPECT_NE(report.items[1].error.detail.find("unknown solver"), std::string::npos);
}

TEST(BatchRunner, StopOnErrorCancelsTheRemainder) {
  const auto registry = flaky_registry();
  std::vector<SolveRequest> jobs;
  jobs.push_back({"seq", {}, InstanceHandle::intern(small_instance(0))});
  jobs.push_back({"boom", {}, InstanceHandle::intern(small_instance(1))});
  jobs.push_back({"seq", {}, InstanceHandle::intern(small_instance(2))});
  jobs.push_back({"seq", {}, InstanceHandle::intern(small_instance(3))});
  BatchRunnerOptions options;
  options.threads = 1;  // serial dispatch makes the cancellation point exact
  options.stop_on_error = true;
  const auto report = BatchRunner(registry, options).run(jobs);
  EXPECT_EQ(report.items[0].status, SolveStatus::kOk);
  EXPECT_EQ(report.items[1].status, SolveStatus::kError);
  EXPECT_EQ(report.items[2].status, SolveStatus::kCancelled);
  EXPECT_EQ(report.items[3].status, SolveStatus::kCancelled);
  EXPECT_EQ(report.ok, 1u);
  EXPECT_EQ(report.errors, 1u);
  EXPECT_EQ(report.cancelled, 2u);
}

TEST(BatchRunner, StopOnErrorDoesNotFireTheCallersToken) {
  const auto registry = flaky_registry();
  std::vector<SolveRequest> jobs;
  jobs.push_back({"boom", {}, InstanceHandle::intern(small_instance(0))});
  jobs.push_back({"seq", {}, InstanceHandle::intern(small_instance(1))});
  BatchRunnerOptions options;
  options.threads = 1;
  options.stop_on_error = true;
  CancelToken token;  // shared with, say, a shutdown watcher
  const auto report = BatchRunner(registry, options).run(jobs, token);
  EXPECT_EQ(report.errors, 1u);
  EXPECT_EQ(report.cancelled, 1u);
  EXPECT_FALSE(token.cancelled()) << "a failing job must not look like external cancellation";
}

TEST(BatchRunner, PreCancelledTokenSkipsEveryJob) {
  CancelToken token;
  token.cancel();
  const auto report = BatchRunner().run(mixed_jobs(6), token);
  EXPECT_EQ(report.cancelled, 6u);
  EXPECT_EQ(report.ok, 0u);
  for (const auto& item : report.items) {
    EXPECT_EQ(item.status, SolveStatus::kCancelled);
    EXPECT_FALSE(item.result.has_value());
  }
}

TEST(BatchRunner, CopiedTokensShareOneFlag) {
  CancelToken token;
  const CancelToken copy = token;
  token.cancel();
  EXPECT_TRUE(copy.cancelled());
}

TEST(BatchReport, AggregateStatsSumSolverCounters) {
  std::vector<SolveRequest> jobs;
  for (std::size_t i = 0; i < 4; ++i) {
    jobs.push_back({"mrt", {}, InstanceHandle::intern(small_instance(i))});
  }
  const auto report = BatchRunner().run(jobs);
  ASSERT_EQ(report.ok, jobs.size());
  double expected_iterations = 0.0;
  for (const auto& item : report.items) expected_iterations += item.result->stat("iterations");
  double aggregated = 0.0;
  for (const auto& [key, value] : report.aggregate_stats()) {
    if (key == "iterations") aggregated = value;
  }
  EXPECT_GT(aggregated, 0.0);
  EXPECT_DOUBLE_EQ(aggregated, expected_iterations);
}

// --------------------------------------------------------------- solve_batch

TEST(SolveBatch, DispatchesThroughTheGlobalRegistry) {
  const auto jobs = mixed_jobs(5);
  const auto report = solve_batch(jobs);
  EXPECT_EQ(report.ok, jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(report.items[i].result->solver, jobs[i].solver);
  }
  EXPECT_GE(report.wall_seconds, 0.0);
  EXPECT_GE(report.threads, 1u);
}

TEST(SolveBatch, HonorsCancellation) {
  CancelToken token;
  token.cancel();
  const auto report = solve_batch(mixed_jobs(3), {}, token);
  EXPECT_EQ(report.cancelled, 3u);
}

// ---------------------------------------------------------------- batch_json

TEST(BatchJson, SerializesStatusErrorAndResultFields) {
  const auto registry = flaky_registry();
  std::vector<SolveRequest> jobs;
  jobs.push_back({"seq", {}, InstanceHandle::intern(small_instance(0))});
  jobs.push_back({"boom", {}, InstanceHandle::intern(small_instance(1))});
  const auto report = BatchRunner(registry).run(jobs);
  const auto text = batch_report_json(report);
  EXPECT_NE(text.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(text.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(text.find("\"error\":\"boom: simulated solver failure\""), std::string::npos);
  EXPECT_NE(text.find("\"solver\":\"seq\""), std::string::npos);
  EXPECT_NE(text.find("\"makespan\":"), std::string::npos);
  EXPECT_NE(text.find("\"wall_seconds\":"), std::string::npos);
  EXPECT_NE(text.find("\"aggregate_stats\":"), std::string::npos);
}

TEST(BatchJson, TimingAndScheduleTogglesChangeTheDocument) {
  std::vector<SolveRequest> jobs;
  jobs.push_back({"mrt", {}, InstanceHandle::intern(small_instance(0))});
  const auto report = BatchRunner().run(jobs);

  BatchJsonOptions bare;
  bare.include_timing = false;
  const auto without_timing = batch_report_json(report, bare);
  EXPECT_EQ(without_timing.find("wall_seconds"), std::string::npos);
  EXPECT_EQ(without_timing.find("\"schedule\""), std::string::npos);

  BatchJsonOptions full;
  full.include_schedules = true;
  const auto with_schedules = batch_report_json(report, full);
  EXPECT_NE(with_schedules.find("\"schedule\":["), std::string::npos);
  EXPECT_NE(with_schedules.find("\"first_proc\":"), std::string::npos);
}

}  // namespace
}  // namespace malsched
