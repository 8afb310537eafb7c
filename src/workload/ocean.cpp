#include "workload/ocean.hpp"

#include <string>
#include <vector>

#include "model/speedup_models.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace malsched {

namespace {

struct Block {
  int level;
  int x;
  int y;
};

}  // namespace

Instance ocean_instance(const OceanOptions& options, std::uint64_t seed) {
  Rng rng(seed);

  // Quadtree refinement: each coarse block either stays or splits into four
  // children, recursively up to max_refine_level.
  std::vector<Block> leaves;
  std::vector<Block> frontier;
  for (int x = 0; x < options.base_grid; ++x) {
    for (int y = 0; y < options.base_grid; ++y) frontier.push_back({0, x, y});
  }
  while (!frontier.empty()) {
    const Block block = frontier.back();
    frontier.pop_back();
    if (block.level < options.max_refine_level && rng.bernoulli(options.refine_prob)) {
      for (int dx = 0; dx < 2; ++dx) {
        for (int dy = 0; dy < 2; ++dy) {
          frontier.push_back({block.level + 1, 2 * block.x + dx, 2 * block.y + dy});
        }
      }
    } else {
      leaves.push_back(block);
    }
  }

  Instance instance(options.machines);
  instance.reserve(static_cast<int>(leaves.size()));
  for (const auto& block : leaves) {
    // A refined block covers 1/4 of the parent's area but runs at double
    // resolution and half the time step, so per-step work per cell is
    // constant; cells per side stay fixed while physical size shrinks.
    const auto side = static_cast<double>(options.cells_per_block);
    const double cells = side * side;
    // Deeper levels sub-cycle: 2^level substeps per coarse step.
    const double substeps = static_cast<double>(1 << block.level);
    const double work = cells * options.cell_work * substeps * rng.uniform(0.85, 1.15);
    const double halo = options.halo_cost * 4.0 * side * substeps;
    instance.add_task(comm_overhead_profile(work, halo, options.machines),
                      label("blk-L", block.level, "-", block.x, ".", block.y));
  }
  return instance;
}

}  // namespace malsched
