#pragma once

#include <span>

#include "knapsack/knapsack.hpp"

/// Exhaustive 0/1 knapsack search: the reference optimum the exact DP and
/// the two-shelf step's migration sets are checked against. Test oracle,
/// built only with the tests.
namespace malsched {

/// Best-profit subset within `capacity` over all 2^n subsets, for n <= 24.
/// Throws std::invalid_argument on more items or on a negative weight or
/// profit.
[[nodiscard]] KnapsackSelection knapsack_brute_force(std::span<const KnapsackItem> items,
                                                     long long capacity);

}  // namespace malsched
