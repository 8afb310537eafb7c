// Tests for src/knapsack: the exact DP, cross-checked against brute force on
// general, zero-valued and migrant-shaped items, its invariances (capacity
// monotonicity, item order), its scratch reuse and its memory guard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "knapsack/knapsack.hpp"
#include "oracles/knapsack_brute_force.hpp"
#include "support/rng.hpp"

namespace malsched {
namespace {

std::vector<KnapsackItem> random_items(Rng& rng, int count, long long max_weight,
                                       long long max_profit) {
  std::vector<KnapsackItem> items(static_cast<std::size_t>(count));
  for (auto& item : items) {
    item.weight = rng.uniform_int(0, max_weight);
    item.profit = rng.uniform_int(0, max_profit);
  }
  return items;
}

long long selection_weight(const std::vector<KnapsackItem>& items,
                           const KnapsackSelection& sel) {
  long long total = 0;
  for (const int i : sel.items) total += items[static_cast<std::size_t>(i)].weight;
  return total;
}

long long selection_profit(const std::vector<KnapsackItem>& items,
                           const KnapsackSelection& sel) {
  long long total = 0;
  for (const int i : sel.items) total += items[static_cast<std::size_t>(i)].profit;
  return total;
}

// ------------------------------------------------------------ exact max DP

class KnapsackRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackRandomTest, ExactMatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 18));
    const auto items = random_items(rng, n, 30, 50);
    const long long capacity = rng.uniform_int(0, 120);
    const auto exact = knapsack_exact(items, capacity);
    const auto brute = knapsack_brute_force(items, capacity);
    EXPECT_EQ(exact.profit, brute.profit);
    EXPECT_LE(exact.weight, capacity);
    // Reported totals must match the actual selection.
    EXPECT_EQ(selection_weight(items, exact), exact.weight);
    EXPECT_EQ(selection_profit(items, exact), exact.profit);
  }
}

TEST_P(KnapsackRandomTest, ExactMatchesBruteForceWithZeroWeightsAndProfits) {
  // A zero-weight item fits at every capacity and a zero-profit item adds
  // nothing; about a quarter of the weights and of the profits are zero.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 3000);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 16));
    auto items = random_items(rng, n, 30, 50);
    for (auto& item : items) {
      if (rng.uniform_int(0, 3) == 0) item.weight = 0;
      if (rng.uniform_int(0, 3) == 0) item.profit = 0;
    }
    const long long capacity = rng.uniform_int(0, 60);
    const auto exact = knapsack_exact(items, capacity);
    EXPECT_EQ(exact.profit, knapsack_brute_force(items, capacity).profit);
    EXPECT_LE(exact.weight, capacity);
    EXPECT_EQ(selection_weight(items, exact), exact.weight);
    EXPECT_EQ(selection_profit(items, exact), exact.profit);
    // A weightless item with a profit raises any selection that lacks it,
    // so every optimum holds it.
    for (int i = 0; i < n; ++i) {
      const auto& item = items[static_cast<std::size_t>(i)];
      if (item.weight == 0 && item.profit > 0) {
        EXPECT_TRUE(std::find(exact.items.begin(), exact.items.end(), i) != exact.items.end())
            << "trial " << trial << " item " << i;
      }
    }
  }
}

TEST_P(KnapsackRandomTest, ExactMatchesBruteForceOnMigrantShapedItems) {
  // The items the two-shelf step builds: profit gamma_i in [1, m], weight
  // gamma^lambda_i in [gamma_i, m] (the shorter deadline needs at least as
  // many processors), capacity m - q2 - q3 in [0, m].
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 6000);
  for (int trial = 0; trial < 30; ++trial) {
    const long long machines = rng.uniform_int(1, 64);
    const int n = static_cast<int>(rng.uniform_int(0, 18));
    std::vector<KnapsackItem> items(static_cast<std::size_t>(n));
    for (auto& item : items) {
      item.profit = rng.uniform_int(1, machines);
      item.weight = rng.uniform_int(item.profit, machines);
    }
    const long long capacity = rng.uniform_int(0, machines);
    const auto exact = knapsack_exact(items, capacity);
    EXPECT_EQ(exact.profit, knapsack_brute_force(items, capacity).profit)
        << "m=" << machines << " trial " << trial;
    EXPECT_LE(exact.weight, capacity);
    EXPECT_EQ(selection_weight(items, exact), exact.weight);
    EXPECT_EQ(selection_profit(items, exact), exact.profit);
  }
}

TEST_P(KnapsackRandomTest, ExactProfitIsMonotoneInCapacity) {
  // More room never lowers the optimum, and once every item fits the optimum
  // is the total profit. One scratch serves every capacity.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 7000);
  KnapsackScratch scratch;
  for (int trial = 0; trial < 10; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 12));
    const auto items = random_items(rng, n, 20, 30);
    long long total_weight = 0;
    long long total_profit = 0;
    for (const auto& item : items) {
      total_weight += item.weight;
      total_profit += item.profit;
    }
    long long previous = 0;
    for (long long capacity = 0; capacity <= total_weight + 2; ++capacity) {
      const auto sel = knapsack_exact(items, capacity, scratch);
      EXPECT_GE(sel.profit, previous) << "trial " << trial << " capacity " << capacity;
      EXPECT_LE(sel.weight, capacity);
      EXPECT_EQ(selection_weight(items, sel), sel.weight);
      EXPECT_EQ(selection_profit(items, sel), sel.profit);
      previous = sel.profit;
    }
    EXPECT_EQ(previous, total_profit) << "trial " << trial;
  }
}

TEST_P(KnapsackRandomTest, ExactOptimumIgnoresItemOrder) {
  // Permuting the items permutes the indices of a selection, not the
  // optimum; the permuted selection maps back to a feasible set of the same
  // profit.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 8000);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 18));
    const auto items = random_items(rng, n, 30, 50);
    const long long capacity = rng.uniform_int(0, 120);
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    for (int i = n - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(0, i));
      std::swap(order[static_cast<std::size_t>(i)], order[j]);
    }
    std::vector<KnapsackItem> permuted;
    for (const int i : order) permuted.push_back(items[static_cast<std::size_t>(i)]);
    const auto base = knapsack_exact(items, capacity);
    const auto sel = knapsack_exact(permuted, capacity);
    EXPECT_EQ(sel.profit, base.profit) << "trial " << trial;
    long long weight = 0;
    long long profit = 0;
    for (const int k : sel.items) {
      const auto& item = items[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])];
      weight += item.weight;
      profit += item.profit;
    }
    EXPECT_LE(weight, capacity);
    EXPECT_EQ(weight, sel.weight);
    EXPECT_EQ(profit, sel.profit);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackRandomTest, ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------------------------- edges

TEST(Knapsack, EmptyAndZeroCapacity) {
  EXPECT_EQ(knapsack_exact({}, 10).profit, 0);
  const std::vector<KnapsackItem> items{{5, 7}};
  EXPECT_EQ(knapsack_exact(items, 0).profit, 0);
  EXPECT_EQ(knapsack_exact(items, -1).profit, 0);
  EXPECT_EQ(knapsack_exact(items, 5).profit, 7);
}

TEST(Knapsack, ZeroWeightItemsAlwaysFit) {
  const std::vector<KnapsackItem> items{{0, 3}, {0, 4}, {10, 100}};
  const auto sel = knapsack_exact(items, 0);
  EXPECT_EQ(sel.profit, 7);
}

TEST(Knapsack, TakesEveryItemWhenAllFit) {
  const std::vector<KnapsackItem> items{{3, 1}, {4, 5}, {2, 2}, {6, 9}};
  const auto sel = knapsack_exact(items, 15);
  EXPECT_EQ(sel.items, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sel.weight, 15);
  EXPECT_EQ(sel.profit, 17);
}

TEST(Knapsack, NeverChoosesAnItemHeavierThanTheCapacity) {
  // Item 1's profit dwarfs the rest, but it cannot fit; the best of the
  // others is items 2 and 3 (weight 9, profit 10).
  const std::vector<KnapsackItem> items{{2, 3}, {11, 1000}, {4, 4}, {5, 6}};
  const auto sel = knapsack_exact(items, 10);
  EXPECT_EQ(sel.items, (std::vector<int>{2, 3}));
  EXPECT_EQ(sel.weight, 9);
  EXPECT_EQ(sel.profit, 10);
}

TEST(Knapsack, BeatsTheProfitDensityGreedy) {
  // Greedy by profit per weight takes item 0 (10/6) and then nothing else
  // fits; the optimum is the two lighter items.
  const std::vector<KnapsackItem> items{{6, 10}, {5, 7}, {5, 7}};
  const auto sel = knapsack_exact(items, 10);
  EXPECT_EQ(sel.items, (std::vector<int>{1, 2}));
  EXPECT_EQ(sel.weight, 10);
  EXPECT_EQ(sel.profit, 14);
}

TEST(Knapsack, LargeProfitsSumExactly) {
  // Twenty profits of 4e17 sum to 8e18, which still fits a long long; one
  // unit less room drops exactly one of them.
  const std::vector<KnapsackItem> items(20, KnapsackItem{1, 400'000'000'000'000'000});
  const auto sel = knapsack_exact(items, 20);
  EXPECT_EQ(sel.items.size(), 20U);
  EXPECT_EQ(sel.profit, 8'000'000'000'000'000'000);
  EXPECT_EQ(knapsack_exact(items, 19).profit, 7'600'000'000'000'000'000);
}

TEST(Knapsack, ValidatesItemsBeforeAnyCapacityCheck) {
  // A bad item is an input error at every capacity: below zero, where
  // nothing would fit, and past the memory guard.
  const std::vector<KnapsackItem> bad{{3, 1}, {-1, 2}};
  EXPECT_THROW(knapsack_exact(bad, -1), std::invalid_argument);
  EXPECT_THROW(knapsack_exact(bad, 1LL << 40), std::invalid_argument);
}

TEST(Knapsack, EmptyItemsNeverReachTheGuard) {
  // With no items the table has no rows, whatever the capacity: the empty
  // selection comes back instead of a length_error (or a division by n = 0).
  EXPECT_TRUE(knapsack_exact({}, 1LL << 40).items.empty());
  EXPECT_EQ(knapsack_exact({}, std::numeric_limits<long long>::max()).profit, 0);
}

TEST(Knapsack, RejectsNegativeInputs) {
  const std::vector<KnapsackItem> bad{{-1, 2}};
  EXPECT_THROW(knapsack_exact(bad, 5), std::invalid_argument);
  const std::vector<KnapsackItem> bad2{{1, -2}};
  EXPECT_THROW(knapsack_exact(bad2, 5), std::invalid_argument);
}

TEST(Knapsack, ExactMemoryGuardThrows) {
  const std::vector<KnapsackItem> items(4, KnapsackItem{1, 1});
  EXPECT_THROW(knapsack_exact(items, 1LL << 40), std::length_error);
  // 32 * 2^59 cells wrap a 64-bit size_t to 0; the guard must still refuse
  // the table before allocating it.
  const std::vector<KnapsackItem> many(32, KnapsackItem{1, 1});
  EXPECT_THROW(knapsack_exact(many, (1LL << 59) - 1), std::length_error);
}

TEST(Knapsack, ExactMemoryGuardRefusesBeforeTouchingTheScratch) {
  // The refusal comes before any buffer grows, and the scratch serves the
  // next solve as if the refused call had not happened.
  Rng rng(31337);
  const auto items = random_items(rng, 10, 20, 30);
  KnapsackScratch scratch;
  const auto before = knapsack_exact(items, 50, scratch);
  const auto events = scratch.alloc_events;
  const auto best_capacity = scratch.best.capacity();
  const auto take_capacity = scratch.take.capacity();
  EXPECT_THROW(knapsack_exact(items, 1LL << 40, scratch), std::length_error);
  EXPECT_EQ(scratch.alloc_events, events);
  EXPECT_EQ(scratch.best.capacity(), best_capacity);
  EXPECT_EQ(scratch.take.capacity(), take_capacity);
  const auto after = knapsack_exact(items, 50, scratch);
  EXPECT_EQ(after.items, before.items);
  EXPECT_EQ(after.profit, before.profit);
  EXPECT_EQ(scratch.alloc_events, events);
}

TEST(Knapsack, ExactWithScratchMatchesPlainExact) {
  Rng rng(5150);
  KnapsackScratch scratch;
  for (int trial = 0; trial < 25; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 12));
    const auto items = random_items(rng, n, 20, 30);
    const long long capacity = rng.uniform_int(0, 60);
    const auto plain = knapsack_exact(items, capacity);
    const auto reused = knapsack_exact(items, capacity, scratch);
    EXPECT_EQ(plain.items, reused.items);
    EXPECT_EQ(plain.weight, reused.weight);
    EXPECT_EQ(plain.profit, reused.profit);
  }
  // The scratch warms up once per high-water mark, then stops allocating.
  const auto items = random_items(rng, 12, 20, 30);
  (void)knapsack_exact(items, 60, scratch);  // establishes the high-water mark
  const auto warmed = scratch.alloc_events;
  (void)knapsack_exact(items, 60, scratch);
  (void)knapsack_exact(items, 30, scratch);
  EXPECT_EQ(scratch.alloc_events, warmed);
}

TEST(Knapsack, BruteForceLimit) {
  const std::vector<KnapsackItem> items(25, KnapsackItem{1, 1});
  EXPECT_THROW(knapsack_brute_force(items, 5), std::invalid_argument);
}

TEST(Knapsack, BruteForceRejectsNegativeInputs) {
  // The oracle checks its own input instead of relying on the solvers'
  // validation, so a bad item cannot slip into a cross-check unnoticed.
  const std::vector<KnapsackItem> bad{{-1, 2}};
  EXPECT_THROW(knapsack_brute_force(bad, 5), std::invalid_argument);
  const std::vector<KnapsackItem> bad2{{1, -2}};
  EXPECT_THROW(knapsack_brute_force(bad2, 5), std::invalid_argument);
  // A negative capacity is not an input error: nothing fits.
  const std::vector<KnapsackItem> good{{1, 2}};
  EXPECT_EQ(knapsack_brute_force(good, -1).profit, 0);
}

TEST(Knapsack, SelectionIndicesSortedAndUnique) {
  Rng rng(888);
  const auto items = random_items(rng, 12, 10, 10);
  const auto sel = knapsack_exact(items, 30);
  for (std::size_t i = 1; i < sel.items.size(); ++i) {
    EXPECT_LT(sel.items[i - 1], sel.items[i]);
  }
}

}  // namespace
}  // namespace malsched
