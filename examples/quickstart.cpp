// Quickstart: build a small malleable instance, run the sqrt(3) scheduler,
// inspect the result.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <iostream>

#include "core/mrt_scheduler.hpp"
#include "model/lower_bounds.hpp"
#include "model/speedup_models.hpp"
#include "sched/gantt.hpp"
#include "sched/validate.hpp"
#include "support/math_utils.hpp"

int main() {
  using namespace malsched;

  // A 16-processor machine and a handful of jobs with different scaling
  // behavior: an Amdahl solver, two power-law kernels, a communication-bound
  // stencil, and a few sequential chores.
  const int machines = 16;
  Instance instance(machines);
  instance.add_task(amdahl_profile(/*seq_time=*/12.0, /*serial_fraction=*/0.08, machines),
                    "solver");
  instance.add_task(power_law_profile(9.0, /*alpha=*/0.85, machines), "fft");
  instance.add_task(power_law_profile(7.5, 0.7, machines), "assembly");
  instance.add_task(comm_overhead_profile(10.0, /*overhead=*/0.05, machines), "stencil");
  instance.add_task(sequential_profile(2.0, machines), "io");
  instance.add_task(sequential_profile(1.2, machines), "log-merge");
  instance.add_task(sequential_profile(2.8, machines), "checkpoint");

  // Solve. mrt_schedule runs the dual-approximation search of the paper:
  // guess a makespan d, either build a schedule <= sqrt(3)*d or prove
  // OPT > d, and bisect.
  MrtOptions options;
  options.search.epsilon = 0.01;
  const MrtResult result = mrt_schedule(instance, options);

  std::cout << "makespan        : " << result.makespan << "\n";
  std::cout << "lower bound     : " << result.lower_bound << " (certified)\n";
  std::cout << "ratio           : " << result.ratio << "  (guarantee "
            << kSqrt3 * (1.0 + options.search.epsilon) << ")\n";
  std::cout << "dual iterations : " << result.iterations << ", gaps: " << result.gaps << "\n";
  std::cout << "branches        :";
  for (int b = 0; b < kDualBranchCount; ++b) {
    if (result.branch_counts[static_cast<std::size_t>(b)] > 0) {
      std::cout << " " << to_string(static_cast<DualBranch>(b)) << "="
                << result.branch_counts[static_cast<std::size_t>(b)];
    }
  }
  std::cout << "\n\n";

  // Every schedule in this library validates; show it.
  const auto report = validate_schedule(result.schedule, instance);
  std::cout << "valid schedule  : " << (report.ok ? "yes" : report.str()) << "\n\n";

  render_gantt(std::cout, result.schedule);
  return report.ok ? 0 : 1;
}
