#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "knapsack/knapsack.hpp"

namespace malsched {

namespace detail {
void validate_items(std::span<const KnapsackItem> items);
}

namespace {

constexpr long long kInf = std::numeric_limits<long long>::max() / 4;

/// Memory guard on both DPs' choice tables (one char per cell, ~512 MB).
constexpr std::size_t kTableGuard = std::size_t{1} << 29;

// Exact DP over profit: minimize weight subject to profit >= demand.
std::optional<KnapsackSelection> solve_min(std::span<const KnapsackItem> items,
                                           long long demand) {
  KnapsackSelection result;
  if (demand <= 0) return result;  // empty set already satisfies the demand

  const auto n = items.size();
  const auto q_max = static_cast<std::size_t>(demand);
  // dp[q] = min weight achieving profit >= q (profit clipped at demand).
  std::vector<long long> dp(q_max + 1, kInf);
  dp[0] = 0;
  std::vector<std::vector<char>> take(n, std::vector<char>(q_max + 1, 0));
  for (std::size_t i = 0; i < n; ++i) {
    const long long p = items[i].profit;
    const long long w = items[i].weight;
    if (p <= 0) continue;
    for (std::size_t q = q_max + 1; q-- > 0;) {
      if (q == 0) continue;
      const auto q_prev =
          static_cast<std::size_t>(std::max<long long>(0, static_cast<long long>(q) - p));
      if (dp[q_prev] >= kInf) continue;
      const long long candidate = dp[q_prev] + w;
      if (candidate < dp[q]) {
        dp[q] = candidate;
        take[i][q] = 1;
      }
    }
  }
  if (dp[q_max] >= kInf) return std::nullopt;

  std::size_t q = q_max;
  for (std::size_t i = n; i-- > 0;) {
    if (q > 0 && take[i][q]) {
      result.items.push_back(static_cast<int>(i));
      result.weight += items[i].weight;
      result.profit += items[i].profit;
      q = static_cast<std::size_t>(
          std::max<long long>(0, static_cast<long long>(q) - items[i].profit));
    }
  }
  std::reverse(result.items.begin(), result.items.end());
  return result;
}

// The cover of `demand` with the least scaled weight, over the items of
// positive weight <= guess and positive profit. Weights are divided by the
// integer K = max(1, floor(eps * guess / (2k))), k the number of such
// items: a max-profit DP over scaled capacities 0..floor(guess / K), then
// the smallest capacity whose best profit covers the demand. Profits stay
// exact, so a returned cover always meets the demand. If guess >= OPT the
// optimum's scaled weight fits, so a cover is found, and its true weight
// is below K * (its scaled weight + k) <= OPT + eps * guess / 2.
std::optional<KnapsackSelection> scaled_cover(std::span<const KnapsackItem> items,
                                              long long demand, long long guess, double eps) {
  std::vector<int> kept;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].weight > 0 && items[i].weight <= guess && items[i].profit > 0) {
      kept.push_back(static_cast<int>(i));
    }
  }
  const std::size_t n = kept.size();
  if (n == 0) return std::nullopt;
  const long long scale = std::max(
      1LL, static_cast<long long>(eps * static_cast<double>(guess) / (2.0 * static_cast<double>(n))));
  const auto width = static_cast<std::size_t>(guess / scale) + 1;
  if (n * width > kTableGuard) {
    throw std::length_error("min_knapsack_approx: DP table exceeds memory guard");
  }
  // best[c] = most profit (clipped at demand) of a subset of scaled weight <= c.
  std::vector<long long> best(width, 0);
  std::vector<char> take(n * width, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const KnapsackItem& item = items[static_cast<std::size_t>(kept[k])];
    const auto w = static_cast<std::size_t>(item.weight / scale);
    for (std::size_t c = width; c-- > w;) {
      const long long candidate = best[c - w] + std::min(item.profit, demand - best[c - w]);
      if (candidate > best[c]) {
        best[c] = candidate;
        take[k * width + c] = 1;
      }
    }
  }
  const auto covered =
      std::find_if(best.begin(), best.end(), [demand](long long p) { return p >= demand; });
  if (covered == best.end()) return std::nullopt;

  KnapsackSelection cover;
  auto c = static_cast<std::size_t>(covered - best.begin());
  for (std::size_t k = n; k-- > 0;) {
    if (!take[k * width + c]) continue;
    const KnapsackItem& item = items[static_cast<std::size_t>(kept[k])];
    cover.items.push_back(kept[k]);
    cover.weight += item.weight;
    cover.profit += item.profit;
    c -= static_cast<std::size_t>(item.weight / scale);
  }
  return cover;
}

}  // namespace

std::optional<KnapsackSelection> min_knapsack_exact(std::span<const KnapsackItem> items,
                                                    long long demand) {
  detail::validate_items(items);
  if (demand > 0 && items.size() * (static_cast<std::size_t>(demand) + 1) > kTableGuard) {
    throw std::length_error("min_knapsack_exact: DP table exceeds memory guard");
  }
  return solve_min(items, demand);
}

std::optional<KnapsackSelection> min_knapsack_approx(std::span<const KnapsackItem> items,
                                                     long long demand, double eps) {
  detail::validate_items(items);
  if (!(eps > 0.0) || eps >= 1.0) {
    throw std::invalid_argument("min_knapsack_approx: eps must lie in (0, 1)");
  }
  if (demand <= 0) return KnapsackSelection{};

  // Below the budget the exact DP over profit is affordable.
  const std::size_t budget = std::size_t{1} << 26;
  if (items.size() * (static_cast<std::size_t>(demand) + 1) <= budget) {
    return min_knapsack_exact(items, demand);
  }

  // Above it, round the objective, never the constraint: profits stay exact
  // and scaled_cover runs on weights, for doubling guesses of the optimum's
  // weight. Zero-weight items cost nothing, so all of them are taken first.
  KnapsackSelection chosen;
  long long rest = demand;  // demand the zero-weight items leave uncovered
  long long total = 0;      // weight of the other items, saturated
  for (std::size_t i = 0; i < items.size(); ++i) {
    const KnapsackItem& item = items[i];
    if (item.profit == 0) continue;
    if (item.weight == 0) {
      chosen.items.push_back(static_cast<int>(i));
      chosen.profit += item.profit;
      rest -= std::min(item.profit, rest);
    } else {
      total = item.weight > std::numeric_limits<long long>::max() - total
                  ? std::numeric_limits<long long>::max()
                  : total + item.weight;
    }
  }
  if (rest == 0) return chosen;

  // Any cover now has weight OPT >= 1 (integer weights). The first guess
  // that yields a cover is either below OPT, where the cover weighs
  // < (1 + eps/2) * guess, or lies in [OPT, 2 * OPT) -- it is 1, or the
  // guess before it failed and so was below OPT -- where the cover weighs
  // < OPT + eps * guess / 2. Both are below (1 + eps) * OPT. At
  // guess >= total every cover fits, so failing there means none exists.
  for (long long guess = 1;; guess = guess > total / 2 ? total : 2 * guess) {
    if (auto cover = scaled_cover(items, rest, guess, eps)) {
      chosen.items.insert(chosen.items.end(), cover->items.begin(), cover->items.end());
      std::sort(chosen.items.begin(), chosen.items.end());
      chosen.weight += cover->weight;
      chosen.profit += cover->profit;
      return chosen;
    }
    if (guess >= total) return std::nullopt;
  }
}

}  // namespace malsched
