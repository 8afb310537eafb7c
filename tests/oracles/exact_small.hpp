#pragma once

#include <optional>

#include "model/instance.hpp"
#include "sched/schedule.hpp"

/// Exhaustive search over allotments and list orders for tiny instances.
///
/// Test oracle, built only with the tests: enumerating every allotment vector and every priority
/// permutation, placing greedily, yields a strong *upper bound* on the
/// optimal contiguous makespan (and frequently the optimum itself -- when it
/// meets the area/critical-path lower bound the tests know OPT exactly).
/// The dual-approximation soundness tests use it: if the solver rejects a
/// guess d, no brute-force schedule may beat d.
namespace malsched {

struct BruteForceResult {
  double makespan{0.0};
  Schedule schedule{1, 0};
};

/// Best schedule found by full enumeration; std::nullopt when the search
/// space m^n * n! exceeds `budget` simulations.
[[nodiscard]] std::optional<BruteForceResult> brute_force_schedule(
    const Instance& instance, long long budget = 20'000'000);

}  // namespace malsched
