#include "workload/trace.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "model/monotonize.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace malsched {

Instance trace_snapshot(const TraceOptions& options, std::uint64_t seed) {
  Rng rng(seed);
  const int cap = options.max_parallelism_cap > 0
                      ? std::min(options.max_parallelism_cap, options.machines)
                      : options.machines;

  Instance instance(options.machines);
  instance.reserve(options.jobs);
  for (int j = 0; j < options.jobs; ++j) {
    const double seq =
        options.median_seq_hours * std::exp(rng.normal(0.0, options.sigma));
    // Downey-style: near-linear speedup until the job's own maximum
    // parallelism A, flat beyond.
    const auto max_par = static_cast<int>(rng.uniform_int(1, cap));
    const double alpha = rng.uniform(0.7, 0.98);
    std::vector<double> profile(static_cast<std::size_t>(options.machines));
    for (int p = 1; p <= options.machines; ++p) {
      const int effective = std::min(p, max_par);
      profile[static_cast<std::size_t>(p) - 1] =
          seq / std::pow(static_cast<double>(effective), alpha);
    }
    instance.add_task(monotonize(std::move(profile)), label("job", j));
  }
  return instance;
}

}  // namespace malsched
