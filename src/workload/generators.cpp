#include "workload/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "model/speedup_models.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace malsched {

std::string to_string(WorkloadFamily family) {
  switch (family) {
    case WorkloadFamily::kUniform:
      return "uniform";
    case WorkloadFamily::kBimodal:
      return "bimodal";
    case WorkloadFamily::kHeavyTail:
      return "heavy-tail";
    case WorkloadFamily::kStairs:
      return "stairs";
    case WorkloadFamily::kPackedOpt1:
      return "packed-opt1";
    case WorkloadFamily::kSequentialOnly:
      return "sequential-only";
  }
  return "unknown";
}

std::vector<WorkloadFamily> all_workload_families() {
  return {WorkloadFamily::kUniform,    WorkloadFamily::kBimodal,
          WorkloadFamily::kHeavyTail,  WorkloadFamily::kStairs,
          WorkloadFamily::kPackedOpt1, WorkloadFamily::kSequentialOnly};
}

namespace {

/// Random profile from the model zoo for one task.
std::vector<double> random_profile(Rng& rng, double seq_time, int machines) {
  const double pick = rng.next_double();
  if (pick < 0.4) {
    return amdahl_profile(seq_time, rng.uniform(0.02, 0.35), machines);
  }
  if (pick < 0.8) {
    return power_law_profile(seq_time, rng.uniform(0.5, 0.95), machines);
  }
  return comm_overhead_profile(seq_time, seq_time * rng.uniform(0.001, 0.01), machines);
}

Instance uniform_instance(const GeneratorOptions& options, Rng& rng) {
  Instance instance(options.machines);
  instance.reserve(options.tasks);
  for (int i = 0; i < options.tasks; ++i) {
    const double seq = rng.log_uniform(options.seq_time_lo, options.seq_time_hi);
    instance.add_task(random_profile(rng, seq, options.machines),
                      label("u", i));
  }
  return instance;
}

Instance bimodal_instance(const GeneratorOptions& options, Rng& rng) {
  Instance instance(options.machines);
  instance.reserve(options.tasks);
  for (int i = 0; i < options.tasks; ++i) {
    if (rng.bernoulli(0.2)) {
      const double seq = options.seq_time_hi * rng.uniform(2.0, 6.0);
      instance.add_task(power_law_profile(seq, rng.uniform(0.85, 0.98), options.machines),
                        label("big", i));
    } else {
      const double seq = rng.uniform(options.seq_time_lo, 2.0 * options.seq_time_lo);
      instance.add_task(amdahl_profile(seq, rng.uniform(0.3, 0.8), options.machines),
                        label("small", i));
    }
  }
  return instance;
}

Instance heavy_tail_instance(const GeneratorOptions& options, Rng& rng) {
  Instance instance(options.machines);
  instance.reserve(options.tasks);
  constexpr double kParetoShape = 1.3;
  for (int i = 0; i < options.tasks; ++i) {
    double u = 0.0;
    do {
      u = rng.next_double();
    } while (u <= 0.0);
    const double seq = std::min(options.seq_time_lo * std::pow(u, -1.0 / kParetoShape),
                                options.seq_time_hi * 10.0);
    instance.add_task(random_profile(rng, seq, options.machines),
                      label("ht", i));
  }
  return instance;
}

Instance stairs_instance(const GeneratorOptions& options, Rng& rng) {
  // Geometric ladder: level j holds 2^j tasks of roughly T/2^j sequential
  // time, producing the staircase structure of the paper's Figure 2.
  Instance instance(options.machines);
  instance.reserve(options.tasks);
  const double top = options.seq_time_hi;
  int produced = 0;
  for (int level = 0; produced < options.tasks; ++level) {
    const int count = 1 << std::min(level, 12);
    for (int i = 0; i < count && produced < options.tasks; ++i, ++produced) {
      const double seq = top / static_cast<double>(1 << std::min(level, 12)) *
                         rng.uniform(0.9, 1.1);
      instance.add_task(
          power_law_profile(std::max(seq, 1e-3), rng.uniform(0.8, 0.95), options.machines),
          label("s", produced));
    }
  }
  return instance;
}

Instance sequential_only_instance(const GeneratorOptions& options, Rng& rng) {
  Instance instance(options.machines);
  instance.reserve(options.tasks);
  for (int i = 0; i < options.tasks; ++i) {
    const double seq = rng.log_uniform(options.seq_time_lo, options.seq_time_hi);
    instance.add_task(sequential_profile(seq, options.machines), label("q", i));
  }
  return instance;
}

}  // namespace

Instance packed_instance(int machines, std::uint64_t seed, int target_tasks) {
  if (machines < 1) throw std::invalid_argument("packed_instance: machines must be >= 1");
  Rng rng(seed);
  struct Cell {
    int first_proc;
    int procs;
    double start;
    double length;
  };
  std::vector<Cell> cells{{0, machines, 0.0, 1.0}};
  const int target = target_tasks > 0 ? target_tasks : std::min(2 * machines + 4, 256);
  constexpr double kMinLength = 0.08;

  int stuck_guard = 16 * target;
  while (static_cast<int>(cells.size()) < target && stuck_guard-- > 0) {
    std::vector<double> weights;
    weights.reserve(cells.size());
    for (const auto& cell : cells) {
      weights.push_back(static_cast<double>(cell.procs) * cell.length);
    }
    const std::size_t pick = rng.weighted_index(weights);
    Cell cell = cells[pick];
    const bool can_split_procs = cell.procs > 1;
    const bool can_split_time = cell.length > 2.0 * kMinLength;
    if (!can_split_procs && !can_split_time) continue;
    const bool split_procs = can_split_procs && (!can_split_time || rng.bernoulli(0.55));
    cells.erase(cells.begin() + static_cast<std::ptrdiff_t>(pick));
    if (split_procs) {
      const int cut = static_cast<int>(rng.uniform_int(1, cell.procs - 1));
      cells.push_back({cell.first_proc, cut, cell.start, cell.length});
      cells.push_back({cell.first_proc + cut, cell.procs - cut, cell.start, cell.length});
    } else {
      const double frac = rng.uniform(0.35, 0.65);
      const double first = std::max(kMinLength, cell.length * frac);
      cells.push_back({cell.first_proc, cell.procs, cell.start, first});
      cells.push_back({cell.first_proc, cell.procs, cell.start + first, cell.length - first});
    }
  }

  Instance instance(machines);
  instance.reserve(static_cast<int>(cells.size()));
  int index = 0;
  for (const auto& cell : cells) {
    const double beta = rng.uniform(0.6, 1.0);
    std::vector<double> profile(static_cast<std::size_t>(machines));
    for (int q = 1; q <= machines; ++q) {
      profile[static_cast<std::size_t>(q) - 1] =
          cell.length *
          std::pow(static_cast<double>(cell.procs) / static_cast<double>(q), beta);
    }
    instance.add_task(profile, label("cell", index++));
  }
  return instance;
}

Instance generate_instance(WorkloadFamily family, const GeneratorOptions& options,
                           std::uint64_t seed) {
  Rng rng(seed);
  switch (family) {
    case WorkloadFamily::kUniform:
      return uniform_instance(options, rng);
    case WorkloadFamily::kBimodal:
      return bimodal_instance(options, rng);
    case WorkloadFamily::kHeavyTail:
      return heavy_tail_instance(options, rng);
    case WorkloadFamily::kStairs:
      return stairs_instance(options, rng);
    case WorkloadFamily::kPackedOpt1:
      return packed_instance(options.machines, seed, options.tasks);
    case WorkloadFamily::kSequentialOnly:
      return sequential_only_instance(options, rng);
  }
  throw std::invalid_argument("generate_instance: unknown family");
}

}  // namespace malsched
