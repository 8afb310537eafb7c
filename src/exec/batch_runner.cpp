#include "exec/batch_runner.hpp"

#include <exception>
#include <map>
#include <stdexcept>
#include <utility>

#include "support/parallel_for.hpp"
#include "support/stopwatch.hpp"

namespace malsched {

std::vector<std::pair<std::string, double>> BatchReport::aggregate_stats() const {
  std::map<std::string, double> totals;
  for (const auto& item : items) {
    if (!item.result) continue;
    for (const auto& [key, value] : item.result->stats) totals[key] += value;
  }
  return {totals.begin(), totals.end()};
}

BatchRunner::BatchRunner(const SolverRegistry& registry, BatchRunnerOptions options)
    : registry_(&registry), options_(options) {}

BatchReport BatchRunner::run(const std::vector<SolveRequest>& requests) const {
  return run(requests, CancelToken{});
}

BatchReport BatchRunner::run(const std::vector<SolveRequest>& requests,
                             CancelToken cancel) const {
  const Stopwatch stopwatch;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!requests[i].instance.valid()) {
      throw std::invalid_argument("BatchRunner: request " + std::to_string(i) +
                                  " carries an empty InstanceHandle");
    }
  }
  BatchReport report;
  report.items.resize(requests.size());
  if (requests.empty()) {
    report.wall_seconds = stopwatch.seconds();
    return report;
  }

  // Shared with parallel_for so report.threads records the worker count the
  // pool below actually uses.
  const unsigned workers = resolve_worker_count(requests.size(), options_.threads);

  // stop_on_error fires a run-local token, never the caller's: a failing job
  // must not look like an external cancellation to whatever else shares it.
  CancelToken aborted;

  // Each worker writes exclusively into its job's preallocated slot, so the
  // output never depends on completion order -- only the wall time does.
  // This index-partitioned ownership is why the runner needs no mutex at
  // all: the only cross-thread state is the two CancelTokens (atomics) and
  // parallel_for's dispatch counter.
  const auto run_one = [&](std::size_t i) {
    BatchItem& item = report.items[i];
    item.index = i;
    if (cancel.cancelled() || aborted.cancelled()) {
      item.status = SolveStatus::kCancelled;
      item.error.code = SolveErrorCode::kCancelled;
      return;
    }
    try {
      item.result = registry_->solve(requests[i]);
      item.status = SolveStatus::kOk;
    } catch (const std::exception& err) {
      item.status = SolveStatus::kError;
      item.error = classify_solve_exception(err);
      if (options_.stop_on_error) aborted.cancel();
    } catch (...) {
      item.status = SolveStatus::kError;
      item.error = {SolveErrorCode::kSolverFailure, "non-standard exception"};
      if (options_.stop_on_error) aborted.cancel();
    }
  };

  // One threading implementation in the repo: the shared-counter pool of
  // support/parallel_for (workers draw contiguous index blocks from a single
  // atomic, no per-worker deques). run_one catches everything itself, so
  // parallel_for's first-exception rethrow path never fires.
  parallel_for(requests.size(), run_one, workers);

  for (const auto& item : report.items) {
    switch (item.status) {
      case SolveStatus::kOk: ++report.ok; break;
      case SolveStatus::kError: ++report.errors; break;
      case SolveStatus::kCancelled: ++report.cancelled; break;
    }
  }
  report.threads = workers;
  report.wall_seconds = stopwatch.seconds();
  return report;
}

}  // namespace malsched
