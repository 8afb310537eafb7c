#include "api/solve_batch.hpp"

#include <utility>

namespace malsched {

BatchReport solve_batch(const std::vector<SolveRequest>& requests,
                        const BatchRunnerOptions& options) {
  return BatchRunner(SolverRegistry::global(), options).run(requests);
}

BatchReport solve_batch(const std::vector<SolveRequest>& requests,
                        const BatchRunnerOptions& options, CancelToken cancel) {
  return BatchRunner(SolverRegistry::global(), options).run(requests, std::move(cancel));
}

}  // namespace malsched
