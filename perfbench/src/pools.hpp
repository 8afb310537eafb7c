#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/instance.hpp"

/// Seeded instance pools of the three benchmark workloads. Every pool is a
/// pure function of the run seed; the program only ever sees the generated
/// instances.
namespace perfbench {

/// One generated instance and the family it was drawn from.
struct PoolEntry {
  std::string family;
  malsched::Instance instance;
};

/// Family names accepted by make_instance(): the six generator families
/// plus "ocean".
[[nodiscard]] const std::vector<std::string>& all_families();

/// Draws one instance of `family` with `tasks` tasks on `machines` machines.
/// Ocean's block count follows its seeded refinement, so for ocean `tasks` is
/// the expected count (16 to 64 blocks for small targets).
[[nodiscard]] malsched::Instance make_instance(const std::string& family, int tasks,
                                               int machines, std::uint64_t seed);

/// solve-large: two 1000-, 1250-, 1500-, 1750- and 2000-task x 256-machine
/// instances of each of the families whose dual search converges in one step
/// (sequential-only, uniform, ocean) and of nine-step ones (stairs,
/// heavy-tail).
[[nodiscard]] std::vector<PoolEntry> solve_large_pool(std::uint64_t seed);

/// serve-poisson: 32 512-task x 128-machine instances of every family. With
/// 16 the capacity the slo_qps ladder finds moved by up to 17% from seed to
/// seed, because a few slow instances set the p99 near the knee.
[[nodiscard]] std::vector<PoolEntry> serve_poisson_pool(std::uint64_t seed);

/// serve-hot: `count` distinct 32-task x 16-machine instances, cycling
/// through every family.
[[nodiscard]] std::vector<PoolEntry> serve_hot_contents(std::uint64_t seed, int count);

}  // namespace perfbench
