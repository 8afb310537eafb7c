#include "oracles/knapsack_brute_force.hpp"

#include <cstdint>
#include <stdexcept>

namespace malsched {

KnapsackSelection knapsack_brute_force(std::span<const KnapsackItem> items, long long capacity) {
  for (const auto& item : items) {
    if (item.weight < 0 || item.profit < 0) {
      throw std::invalid_argument("knapsack: weights and profits must be non-negative");
    }
  }
  if (items.size() > 24) {
    throw std::invalid_argument("knapsack_brute_force: limited to 24 items");
  }
  KnapsackSelection best;
  if (capacity < 0) return best;
  const auto n = items.size();
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    long long weight = 0;
    long long profit = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::uint64_t{1} << i)) {
        weight += items[i].weight;
        profit += items[i].profit;
      }
    }
    if (weight <= capacity && profit > best.profit) {
      best.items.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (mask & (std::uint64_t{1} << i)) best.items.push_back(static_cast<int>(i));
      }
      best.weight = weight;
      best.profit = profit;
    }
  }
  return best;
}

}  // namespace malsched
