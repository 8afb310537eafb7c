#pragma once

#include <vector>

#include "exec/batch_runner.hpp"

/// Batch entry point of the api facade: many SolveRequests, one
/// deterministic parallel run through the global SolverRegistry.
///
/// The one-liner front ends reach for: a BatchRunner over the global
/// registry. Results come back in request order with per-job error
/// isolation; see exec/batch_runner.hpp for the full guarantees. For
/// continuous traffic (submit over time, streaming delivery, result caching,
/// in-flight dedup) use the long-lived front door instead:
/// api/scheduler_service.hpp.
namespace malsched {

[[nodiscard]] BatchReport solve_batch(const std::vector<SolveRequest>& requests,
                                      const BatchRunnerOptions& options = {});

/// As above with caller-owned cancellation.
[[nodiscard]] BatchReport solve_batch(const std::vector<SolveRequest>& requests,
                                      const BatchRunnerOptions& options, CancelToken cancel);

}  // namespace malsched
