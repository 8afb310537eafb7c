#include "pools.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/rng.hpp"
#include "workload/generators.hpp"
#include "workload/ocean.hpp"

namespace perfbench {

using malsched::GeneratorOptions;
using malsched::Instance;
using malsched::Rng;
using malsched::WorkloadFamily;

const std::vector<std::string>& all_families() {
  static const std::vector<std::string> families = [] {
    std::vector<std::string> names;
    for (const auto family : malsched::all_workload_families()) {
      names.push_back(malsched::to_string(family));
    }
    names.emplace_back("ocean");
    return names;
  }();
  return families;
}

Instance make_instance(const std::string& family, int tasks, int machines,
                       std::uint64_t seed) {
  if (family == "ocean") {
    malsched::OceanOptions options;
    options.machines = machines;
    if (tasks >= 128) {
      // A coarse block refines into about 5.6 leaves on average at the
      // default refinement probability and depth.
      options.base_grid = static_cast<int>(std::lround(std::sqrt(tasks / 5.6)));
    } else {
      // Small targets: a 4x4 grid refined at most once, with the split
      // probability that gives `tasks` blocks on average (16 to 64).
      options.base_grid = 4;
      options.max_refine_level = 1;
      options.refine_prob = std::clamp((tasks / 16.0 - 1.0) / 3.0, 0.0, 1.0);
    }
    return malsched::ocean_instance(options, seed);
  }
  for (const auto kind : malsched::all_workload_families()) {
    if (malsched::to_string(kind) != family) continue;
    GeneratorOptions options;
    options.tasks = tasks;
    options.machines = machines;
    return malsched::generate_instance(kind, options, seed);
  }
  throw std::invalid_argument("unknown family '" + family + "'");
}

namespace {

/// One instance of each listed family per listed task count, families
/// interleaved so a pass over the pool alternates between them. Fixed sizes
/// keep the pool's total work close across seeds.
std::vector<PoolEntry> stratified_pool(const std::vector<std::string>& families,
                                       const std::vector<int>& task_counts, int machines,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PoolEntry> pool;
  for (const int tasks : task_counts) {
    for (const auto& family : families) {
      pool.push_back({family, make_instance(family, tasks, machines, rng.fork_seed())});
    }
  }
  return pool;
}

}  // namespace

std::vector<PoolEntry> solve_large_pool(std::uint64_t seed) {
  return stratified_pool({"sequential-only", "uniform", "ocean", "stairs", "heavy-tail"},
                         {1000, 1000, 1250, 1250, 1500, 1500, 1750, 1750, 2000, 2000}, 256,
                         seed ^ 0x51ull);
}

std::vector<PoolEntry> serve_poisson_pool(std::uint64_t seed) {
  return stratified_pool(all_families(), std::vector<int>(32, 512), 128, seed ^ 0x9011ull);
}

std::vector<PoolEntry> serve_hot_contents(std::uint64_t seed, int count) {
  Rng rng(seed ^ 0x407ull);
  const auto& families = all_families();
  std::vector<PoolEntry> contents;
  contents.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto& family = families[static_cast<std::size_t>(i) % families.size()];
    contents.push_back({family, make_instance(family, 32, 16, rng.fork_seed())});
  }
  return contents;
}

}  // namespace perfbench
