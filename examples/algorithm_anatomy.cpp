// Anatomy of the sqrt(3) dual approximation -- regenerates the paper's
// schematic figures from live runs:
//   Figure 1: a malleable list schedule (parallel tasks at t = 0, LPT tail)
//   Figure 2: the staircase idle areas of a canonical list schedule
//   Figures 3-4: the canonical allocation and the two-shelf lambda-schedule
//   Figure 5: a trivial solution (one huge task alone on the short shelf)
// plus a trace of the dichotomic search (Section 2.2).
//
// Run: ./build/examples/algorithm_anatomy

#include <iostream>

#include "core/canonical.hpp"
#include "core/canonical_list.hpp"
#include "core/malleable_list.hpp"
#include "core/mrt_scheduler.hpp"
#include "core/two_shelf.hpp"
#include "model/lower_bounds.hpp"
#include "model/speedup_models.hpp"
#include "sched/gantt.hpp"
#include "support/math_utils.hpp"
#include "workload/generators.hpp"

namespace {

using namespace malsched;

std::vector<double> width_profile(int width, double height, int machines) {
  std::vector<double> profile(static_cast<std::size_t>(machines));
  for (int p = 1; p <= machines; ++p) {
    profile[static_cast<std::size_t>(p) - 1] =
        height * static_cast<double>(width) / static_cast<double>(p);
  }
  return profile;
}

void figure1_malleable_list() {
  std::cout << "--- Figure 1: a malleable list schedule ---------------------------\n";
  std::cout << "(parallel tasks all start at t=0; sequential tasks follow LPT-style)\n\n";
  Instance instance(10);
  instance.add_task(width_profile(3, 0.9, 10), "par1");
  instance.add_task(width_profile(3, 0.8, 10), "par2");
  instance.add_task(width_profile(2, 0.85, 10), "par3");
  for (int i = 0; i < 6; ++i) {
    instance.add_task(sequential_profile(0.35 + 0.05 * i, 10), "seq" + std::to_string(i));
  }
  const auto schedule = malleable_list_schedule(instance, 1.0);
  render_gantt(std::cout, *schedule);
  std::cout << "guarantee at m=10: 2 - 2/11 = " << malleable_list_guarantee(10)
            << " * guess; measured " << schedule->makespan() << "\n\n";
}

void figure2_canonical_list_stairs() {
  std::cout << "--- Figure 2: staircase idle areas in a canonical list schedule ---\n\n";
  GeneratorOptions options;
  options.tasks = 24;
  options.machines = 12;
  const auto instance = generate_instance(WorkloadFamily::kStairs, options, 8);
  const double guess = 1.05 * makespan_lower_bound(instance);
  const auto outcome = canonical_list_schedule(instance, guess);
  if (outcome.schedule) {
    render_gantt(std::cout, *outcome.schedule);
    std::cout << "W = " << outcome.canonical_area << " vs mu*m*d = "
              << kMu * 12 * guess << " (area condition "
              << (outcome.area_condition ? "holds" : "fails") << ")\n\n";
  }
}

void figures3to5_two_shelf() {
  std::cout << "--- Figures 3-4: the knapsack lambda-schedule ---------------------\n";
  std::cout << "(shelf 1 = window [0,d]; shelf 2 = window [d, d+lambda*d])\n\n";
  // Total canonical work 3*3*0.75 + 0.6 + 0.3 + 0.25 = 7.9 <= m = 8, yet
  // S1 wants 9 processors: q1 = 1 forces a knapsack migration.
  Instance instance(8);
  instance.add_task(width_profile(3, 0.75, 8), "tall1");
  instance.add_task(width_profile(3, 0.75, 8), "tall2");
  instance.add_task(width_profile(3, 0.75, 8), "tall3");
  instance.add_task(sequential_profile(0.6, 8), "mid");
  instance.add_task(sequential_profile(0.3, 8), "small1");
  instance.add_task(sequential_profile(0.25, 8), "small2");
  TwoShelfOptions options;
  const auto outcome = two_shelf_schedule(instance, 1.0, options);
  std::cout << "partition: |S1|=" << outcome.s1_count << " |S2|=" << outcome.s2_count
            << " |S3|=" << outcome.s3_count << "  q1=" << outcome.q1 << " q2=" << outcome.q2
            << " q3=" << outcome.q3 << " capacity=" << outcome.knapsack_capacity << "\n";
  if (outcome.schedule) {
    render_gantt(std::cout, *outcome.schedule);
    std::cout << "makespan " << outcome.schedule->makespan() << " <= 1+lambda = " << kSqrt3
              << "\n\n";
  }

  std::cout << "--- Figure 5: a trivial solution of 4_lambda ----------------------\n";
  std::cout << "(one huge task alone on the short shelf, everything else on shelf 1)\n\n";
  Instance trivial_instance(8);
  std::vector<double> huge(8);
  for (int p = 1; p <= 8; ++p) huge[static_cast<std::size_t>(p) - 1] = 5.6 / p;
  trivial_instance.add_task(huge, "huge");
  trivial_instance.add_task(sequential_profile(0.8, 8), "flat1");
  trivial_instance.add_task(sequential_profile(0.8, 8), "flat2");
  trivial_instance.add_task(sequential_profile(0.8, 8), "flat3");
  const auto trivial = two_shelf_schedule(trivial_instance, 1.0, options);
  if (trivial.schedule) {
    render_gantt(std::cout, *trivial.schedule);
    std::cout << (trivial.used_trivial ? "(constructed by the trivial-solution scan)"
                                       : "(covered by the knapsack route)")
              << "\n\n";
  }
}

void dual_search_trace() {
  std::cout << "--- Section 2.2: the dichotomic search ----------------------------\n\n";
  GeneratorOptions options;
  options.tasks = 40;
  options.machines = 16;
  const auto instance = generate_instance(WorkloadFamily::kUniform, options, 77);
  const double lb = makespan_lower_bound(instance);
  std::cout << "static lower bound " << lb << "\n";
  for (const double factor : {0.9, 1.0, 1.1, 1.25, 1.5}) {
    const double guess = lb * factor;
    const auto outcome = mrt_dual_step(instance, guess);
    std::cout << "  guess " << guess << ": "
              << (outcome.schedule
                      ? "ACCEPT via " + to_string(outcome.branch) + " (makespan " +
                            std::to_string(outcome.schedule->makespan()) + " <= sqrt(3)*d)"
                      : std::string(outcome.certified_reject ? "REJECT (Property 2 certificate)"
                                                             : "reject (no certificate)"))
              << "\n";
  }
  const auto result = mrt_schedule(instance);
  std::cout << "full search: makespan " << result.makespan << ", certified LB "
            << result.lower_bound << ", ratio " << result.ratio << " (guarantee "
            << kSqrt3 * 1.01 << ")\n";
}

}  // namespace

int main() {
  std::cout << "Anatomy of the Mounie-Rapine-Trystram sqrt(3) algorithm\n\n";
  figure1_malleable_list();
  figure2_canonical_list_stairs();
  figures3to5_two_shelf();
  dual_search_trace();
  return 0;
}
