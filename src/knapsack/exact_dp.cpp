#include <algorithm>
#include <stdexcept>
#include <vector>

#include "knapsack/knapsack.hpp"

namespace malsched {

namespace {

void validate_items(std::span<const KnapsackItem> items) {
  for (const auto& item : items) {
    if (item.weight < 0 || item.profit < 0) {
      throw std::invalid_argument("knapsack: weights and profits must be non-negative");
    }
  }
}

// Memory guard for DP choice tables (bytes).
constexpr std::size_t kDpCellGuard = std::size_t{1} << 29;  // 512 MB

}  // namespace

KnapsackSelection knapsack_exact(std::span<const KnapsackItem> items, long long capacity,
                                 KnapsackScratch& scratch) {
  validate_items(items);
  KnapsackSelection result;
  if (capacity < 0 || items.empty()) return result;

  const auto n = items.size();
  const auto cap = static_cast<std::size_t>(capacity);
  // Divided, not multiplied: n * (cap + 1) can wrap around size_t.
  if (cap + 1 > kDpCellGuard / n) {
    throw std::length_error("knapsack_exact: DP table exceeds memory guard");
  }

  // best[c] = max profit using a prefix of items within capacity c;
  // take[i * (cap+1) + c] records whether item i was used at residual
  // capacity c (flattened row-per-item layout so the scratch is one buffer).
  auto& best = scratch.best;
  auto& take = scratch.take;
  if (best.capacity() < cap + 1) ++scratch.alloc_events;
  best.assign(cap + 1, 0);
  if (take.capacity() < n * (cap + 1)) ++scratch.alloc_events;
  take.assign(n * (cap + 1), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto w = static_cast<std::size_t>(items[i].weight);
    const long long p = items[i].profit;
    if (w > cap) continue;
    char* const take_row = take.data() + i * (cap + 1);
    for (std::size_t c = cap + 1; c-- > w;) {
      const long long candidate = best[c - w] + p;
      if (candidate > best[c]) {
        best[c] = candidate;
        take_row[c] = 1;
      }
    }
  }

  std::size_t c = cap;
  for (std::size_t i = n; i-- > 0;) {
    if (take[i * (cap + 1) + c]) {
      result.items.push_back(static_cast<int>(i));
      result.weight += items[i].weight;
      result.profit += items[i].profit;
      c -= static_cast<std::size_t>(items[i].weight);
    }
  }
  std::reverse(result.items.begin(), result.items.end());
  return result;
}

KnapsackSelection knapsack_exact(std::span<const KnapsackItem> items, long long capacity) {
  KnapsackScratch scratch;
  return knapsack_exact(items, capacity, scratch);
}

}  // namespace malsched
