#include "api/service_config.hpp"

#include <stdexcept>
#include <string>

#include "registry/solver_registry.hpp"

namespace malsched {

std::vector<std::string> ServiceConfig::validate() const {
  std::vector<std::string> errors;
  if (threads > kMaxThreads) {
    errors.push_back("threads = " + std::to_string(threads) + " exceeds the sanity ceiling of " +
                     std::to_string(kMaxThreads) +
                     " (did a negative count wrap through unsigned?)");
  }
  if (cache && cache_capacity == 0) {
    errors.push_back(
        "cache is enabled but cache_capacity is 0 (a zero entry budget disables it "
        "silently); set cache = false to run without a cache, or give it a capacity");
  }
  if (max_queue_depth < 0) {
    errors.push_back("max_queue_depth = " + std::to_string(max_queue_depth) +
                     " is negative; use 0 for an unbounded queue");
  }
  if (overload_policy != "reject" && overload_policy != "shed_oldest" &&
      overload_policy != "degrade") {
    errors.push_back("overload_policy = \"" + overload_policy +
                     "\" is not one of reject/shed_oldest/degrade");
  } else if (overload_policy == "degrade" && fallback_solver.empty()) {
    errors.push_back(
        "overload_policy = \"degrade\" needs a fallback_solver to degrade onto "
        "(e.g. \"two_phase\")");
  }
  if (queue_discipline != "fifo" && queue_discipline != "edf") {
    errors.push_back("queue_discipline = \"" + queue_discipline +
                     "\" is not one of fifo/edf");
  }
  if (fast_path_max_tasks < 0) {
    errors.push_back("fast_path_max_tasks = " + std::to_string(fast_path_max_tasks) +
                     " is negative; use 0 to disable the fast path");
  }
  if (!fallback_solver.empty()) {
    const SolverRegistry& effective = registry != nullptr ? *registry : SolverRegistry::global();
    if (!effective.contains(fallback_solver)) {
      errors.push_back("fallback_solver = \"" + fallback_solver +
                       "\" is not registered in the effective registry");
    }
  }
  return errors;
}

void ServiceConfig::ensure_valid() const {
  const std::vector<std::string> errors = validate();
  if (errors.empty()) return;
  std::string message = "invalid ServiceConfig:";
  for (const std::string& error : errors) {
    message += "\n  * " + error;
  }
  throw std::invalid_argument(message);
}

}  // namespace malsched
