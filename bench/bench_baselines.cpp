// EXP-T5 -- head-to-head comparison the paper's Section 5 anticipates
// ("experiments are currently under progress"): the sqrt(3) scheduler
// against every baseline, per workload family, including the paper-
// motivating ocean workload and a moldable batch trace. Every algorithm is
// dispatched through the SolverRegistry, so this bench exercises exactly
// the production entry point.
//
// Shape to verify: MRT wins or ties nearly everywhere; the two-phase
// methods trail by the gap between guarantees (sqrt(3) vs 2); naive anchors
// lose badly on their adversarial families.

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "registry/solver_registry.hpp"
#include "support/parallel_for.hpp"
#include "support/statistics.hpp"
#include "support/table.hpp"
#include "workload/generators.hpp"
#include "workload/ocean.hpp"
#include "workload/trace.hpp"

namespace {
constexpr int kSeeds = 16;

/// A registry dispatch: solver name plus its option bag.
struct NamedSolver {
  std::string display;
  std::string solver;
  malsched::SolverOptions options;
};

}  // namespace

int main() {
  using namespace malsched;
  std::cout << "EXP-T5: baseline makespans relative to the sqrt(3) scheduler\n";
  std::cout << "(mean of baseline/MRT per family; >1 means MRT is better; win% = share\n";
  std::cout << " of seeds where MRT is strictly shorter)\n\n";

  struct NamedInstanceSource {
    std::string name;
    std::function<Instance(std::uint64_t)> make;
  };
  std::vector<NamedInstanceSource> sources;
  for (const auto family :
       {WorkloadFamily::kUniform, WorkloadFamily::kBimodal, WorkloadFamily::kHeavyTail,
        WorkloadFamily::kStairs, WorkloadFamily::kPackedOpt1}) {
    sources.push_back({to_string(family), [family](std::uint64_t seed) {
                         GeneratorOptions generator;
                         generator.machines = 32;
                         generator.tasks = 64;
                         return generate_instance(family, generator, seed);
                       }});
  }
  sources.push_back({"ocean-amr", [](std::uint64_t seed) {
                       OceanOptions options;
                       options.machines = 32;
                       return ocean_instance(options, seed);
                     }});
  sources.push_back({"batch-trace", [](std::uint64_t seed) {
                       TraceOptions options;
                       options.machines = 32;
                       options.jobs = 48;
                       return trace_snapshot(options, seed);
                     }});

  const std::vector<NamedSolver> baselines{
      {"2phase-ffdh", "two_phase", SolverOptions::from_string("rigid=ffdh")},
      {"2phase-nfdh", "two_phase", SolverOptions::from_string("rigid=nfdh")},
      {"2phase-list", "two_phase", SolverOptions::from_string("rigid=list")},
      {"3/2-shelves", "two_shelves_32", {}},
      {"half-speedup", "naive", SolverOptions::from_string("policy=half-speedup")},
      {"lpt-seq", "naive", SolverOptions::from_string("policy=lpt-seq")},
      {"gang", "naive", SolverOptions::from_string("policy=gang")},
  };

  Table table({"family", "baseline", "baseline/MRT mean", "baseline/MRT max", "MRT win%"});

  for (const auto& source : sources) {
    std::vector<std::vector<double>> rel(baselines.size(), std::vector<double>(kSeeds));
    parallel_for(kSeeds, [&](std::size_t seed_index) {
      const auto& registry = SolverRegistry::global();
      const auto instance =
          InstanceHandle::intern(source.make(9000 + static_cast<std::uint64_t>(seed_index)));
      const double mrt = registry.solve(SolveRequest("mrt", {}, instance)).makespan;
      for (std::size_t b = 0; b < baselines.size(); ++b) {
        rel[b][seed_index] =
            registry.solve(SolveRequest(baselines[b].solver, baselines[b].options, instance))
                .makespan /
            mrt;
      }
    });
    for (std::size_t b = 0; b < baselines.size(); ++b) {
      Summary summary;
      int wins = 0;
      for (const double r : rel[b]) {
        summary.add(r);
        wins += r > 1.0 + 1e-9;
      }
      table.add_row({source.name, baselines[b].display, cell(summary.mean(), 3),
                     cell(summary.max(), 3),
                     cell(100.0 * wins / static_cast<double>(kSeeds), 0)});
    }
  }
  table.print(std::cout);
  return 0;
}
