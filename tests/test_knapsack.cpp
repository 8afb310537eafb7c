// Tests for src/knapsack: the exact DP, the FPTAS and the dual (min)
// knapsack, cross-checked against brute force.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

/// Brute-force optimum of the *dual* problem: min weight with profit >= demand.
std::optional<long long> brute_min_weight(const std::vector<KnapsackItem>& items,
                                          long long demand) {
  std::optional<long long> best;
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
    if (profit >= demand && (!best || weight < *best)) best = weight;
  }
  return best;
}

// ------------------------------------------------------------ exact max DP

class KnapsackRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackRandomTest, ExactMatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 12));
    const auto items = random_items(rng, n, 20, 30);
    const long long capacity = rng.uniform_int(0, 60);
    const auto exact = knapsack_exact(items, capacity);
    const auto brute = knapsack_brute_force(items, capacity);
    EXPECT_EQ(exact.profit, brute.profit);
    EXPECT_LE(exact.weight, capacity);
    // Reported totals must match the actual selection.
    EXPECT_EQ(selection_weight(items, exact), exact.weight);
    EXPECT_EQ(selection_profit(items, exact), exact.profit);
  }
}

TEST_P(KnapsackRandomTest, FptasWithinFactor) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  for (const double eps : {0.5, 0.25, 0.1}) {
    for (int trial = 0; trial < 20; ++trial) {
      const int n = static_cast<int>(rng.uniform_int(1, 12));
      const auto items = random_items(rng, n, 25, 500);
      const long long capacity = rng.uniform_int(0, 80);
      const auto approx = knapsack_fptas(items, capacity, eps);
      const auto brute = knapsack_brute_force(items, capacity);
      EXPECT_LE(approx.weight, capacity);
      EXPECT_GE(static_cast<double>(approx.profit) + 1e-9,
                (1.0 - eps) * static_cast<double>(brute.profit))
          << "eps=" << eps;
    }
  }
}

TEST_P(KnapsackRandomTest, MinKnapsackMatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 3000);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 11));
    const auto items = random_items(rng, n, 20, 15);
    const long long demand = rng.uniform_int(0, 70);
    const auto dp = min_knapsack_exact(items, demand);
    const auto brute = brute_min_weight(items, demand);
    ASSERT_EQ(dp.has_value(), brute.has_value());
    if (dp) {
      EXPECT_EQ(dp->weight, *brute);
      EXPECT_GE(selection_profit(items, *dp), demand);
      EXPECT_EQ(selection_weight(items, *dp), dp->weight);
    }
  }
}

TEST_P(KnapsackRandomTest, MinKnapsackApproxIsExactBelowTheBudget) {
  // min_knapsack_approx is what the two-shelf construction calls. While
  // n * (demand + 1) stays under its DP budget it solves exactly, so the
  // (1+eps) guarantee tightens to the optimum itself for every eps.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 5000);
  for (const double eps : {0.5, 0.1}) {
    for (int trial = 0; trial < 20; ++trial) {
      const int n = static_cast<int>(rng.uniform_int(0, 11));
      const auto items = random_items(rng, n, 20, 15);
      const long long demand = rng.uniform_int(0, 70);
      const auto approx = min_knapsack_approx(items, demand, eps);
      const auto brute = brute_min_weight(items, demand);
      ASSERT_EQ(approx.has_value(), brute.has_value()) << "eps=" << eps;
      if (approx) {
        EXPECT_EQ(approx->weight, *brute) << "eps=" << eps;
        EXPECT_GE(selection_profit(items, *approx), demand);
        EXPECT_EQ(selection_weight(items, *approx), approx->weight);
      }
    }
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

TEST(Knapsack, RejectsNegativeInputs) {
  const std::vector<KnapsackItem> bad{{-1, 2}};
  EXPECT_THROW(knapsack_exact(bad, 5), std::invalid_argument);
  const std::vector<KnapsackItem> bad2{{1, -2}};
  EXPECT_THROW(knapsack_exact(bad2, 5), std::invalid_argument);
}

TEST(Knapsack, ExactMemoryGuardThrows) {
  const std::vector<KnapsackItem> items(4, KnapsackItem{1, 1});
  EXPECT_THROW(knapsack_exact(items, 1LL << 40), std::length_error);
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

TEST(Knapsack, ExactAutoFallsBackToBranchAndBoundOverTheGuard) {
  // A capacity huge enough that the DP table would blow the ~512 MB guard:
  // knapsack_exact throws, knapsack_exact_auto must solve it exactly via
  // branch and bound instead of propagating std::length_error (the two-shelf
  // construction relies on this for huge-machine instances).
  const long long capacity = 1LL << 40;
  std::vector<KnapsackItem> items;
  items.push_back({capacity / 2, 10});
  items.push_back({capacity / 2, 9});
  items.push_back({capacity / 2 + 1, 25});
  items.push_back({3, 1});
  ASSERT_TRUE(knapsack_exact_exceeds_guard(items, capacity));
  EXPECT_THROW(knapsack_exact(items, capacity), std::length_error);

  const auto sel = knapsack_exact_auto(items, capacity);
  EXPECT_EQ(sel.profit, 26);  // {capacity/2 + 1, 25} + {3, 1}
  EXPECT_LE(selection_weight(items, sel), capacity);
  EXPECT_EQ(selection_profit(items, sel), sel.profit);

  // In-guard inputs keep taking the byte-identical DP route.
  Rng rng(99);
  const auto small = random_items(rng, 10, 20, 30);
  ASSERT_FALSE(knapsack_exact_exceeds_guard(small, 50));
  const auto via_auto = knapsack_exact_auto(small, 50);
  const auto via_dp = knapsack_exact(small, 50);
  EXPECT_EQ(via_auto.items, via_dp.items);
  EXPECT_EQ(via_auto.profit, via_dp.profit);
}

TEST(Knapsack, FptasRejectsBadEps) {
  const std::vector<KnapsackItem> items{{1, 1}};
  EXPECT_THROW(knapsack_fptas(items, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(knapsack_fptas(items, 1, 1.0), std::invalid_argument);
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

TEST(MinKnapsack, ZeroDemandIsEmpty) {
  const std::vector<KnapsackItem> items{{3, 4}};
  const auto sel = min_knapsack_exact(items, 0);
  ASSERT_TRUE(sel.has_value());
  EXPECT_TRUE(sel->items.empty());
  EXPECT_EQ(sel->weight, 0);
}

TEST(MinKnapsack, InfeasibleDemand) {
  const std::vector<KnapsackItem> items{{3, 4}, {2, 5}};
  EXPECT_FALSE(min_knapsack_exact(items, 10).has_value());
}

TEST(MinKnapsack, ApproxKeepsHardConstraint) {
  Rng rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    const auto items = random_items(rng, n, 20, 15);
    long long total_profit = 0;
    for (const auto& item : items) total_profit += item.profit;
    const long long demand = rng.uniform_int(0, total_profit);
    const auto sel = min_knapsack_approx(items, demand, 0.25);
    ASSERT_TRUE(sel.has_value());
    EXPECT_GE(selection_profit(items, *sel), demand);
  }
}

TEST(MinKnapsack, ScaledApproxKeepsHardConstraintAboveTheBudget) {
  // Demands in the hundreds of millions push n * (demand + 1) past the exact
  // DP budget, onto the profit-scaling path. Rounding the demand up must
  // still cover the true demand, and no answer can undercut the optimum.
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(4, 12));
    const auto items = random_items(rng, n, 1000, 200'000'000);
    long long total_profit = 0;
    for (const auto& item : items) total_profit += item.profit;
    const long long demand = rng.uniform_int(total_profit / 4, total_profit / 2);
    ASSERT_GT(static_cast<long long>(items.size()) * (demand + 1), 1LL << 26);
    const auto sel = min_knapsack_approx(items, demand, 0.25);
    ASSERT_TRUE(sel.has_value());
    EXPECT_GE(selection_profit(items, *sel), demand);
    EXPECT_EQ(selection_weight(items, *sel), sel->weight);
    EXPECT_GE(sel->weight, *brute_min_weight(items, demand));
  }
}

TEST(MinKnapsack, ScaledApproxFindsTheCoverAnExactDemandNeeds) {
  // Above the budget, flooring the profits and ceiling the demand lost this
  // cover: the two items together meet the demand exactly.
  const std::vector<KnapsackItem> items{{1, 100'000'001}, {1, 99'999'999}};
  const long long demand = 200'000'000;
  ASSERT_GT(static_cast<long long>(items.size()) * (demand + 1), 1LL << 26);
  const auto sel = min_knapsack_approx(items, demand, 0.25);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->items, (std::vector<int>{0, 1}));
  EXPECT_EQ(sel->weight, 2);
  EXPECT_EQ(sel->profit, demand);
}

TEST(MinKnapsack, ScaledApproxMatchesBruteForceAboveTheBudget) {
  // Every draw is above the exact DP's budget; zero weights and zero profits
  // are mixed in. A cover comes back exactly when brute force finds one,
  // meets the demand, and weighs at most (1+eps) * OPT.
  constexpr long long kBudget = 1LL << 26;
  Rng rng(9090);
  int covers = 0;
  int infeasible = 0;
  for (const double eps : {0.5, 0.25, 0.1}) {
    for (int trial = 0; trial < 300; ++trial) {
      const int n = static_cast<int>(rng.uniform_int(2, 12));
      auto items = random_items(rng, n, 1000, 200'000'000);
      for (auto& item : items) {
        if (rng.uniform_int(0, 5) == 0) item.weight = 0;
        if (rng.uniform_int(0, 5) == 0) item.profit = 0;
      }
      long long total_profit = 0;
      for (const auto& item : items) total_profit += item.profit;
      const long long demand =
          std::max<long long>(rng.uniform_int(total_profit / 2, total_profit + 10), kBudget / n);
      ASSERT_GT(static_cast<long long>(n) * (demand + 1), kBudget);
      const auto sel = min_knapsack_approx(items, demand, eps);
      const auto brute = brute_min_weight(items, demand);
      ASSERT_EQ(sel.has_value(), brute.has_value()) << "eps=" << eps << " trial " << trial;
      if (!sel) {
        ++infeasible;
        continue;
      }
      ++covers;
      EXPECT_GE(selection_profit(items, *sel), demand);
      EXPECT_EQ(selection_profit(items, *sel), sel->profit);
      EXPECT_EQ(selection_weight(items, *sel), sel->weight);
      EXPECT_LE(static_cast<double>(sel->weight), (1.0 + eps) * static_cast<double>(*brute))
          << "eps=" << eps << " trial " << trial;
      for (std::size_t i = 1; i < sel->items.size(); ++i) {
        EXPECT_LT(sel->items[i - 1], sel->items[i]);
      }
    }
  }
  EXPECT_GT(covers, 0);
  EXPECT_GT(infeasible, 0);
}

TEST(MinKnapsack, ScaledApproxTakesZeroWeightItemsFree) {
  // Above the budget. The two zero-weight items cover a demand of 1e8 on
  // their own, at no weight; at 2e8 they leave 9e7 uncovered, which the
  // lighter of the two weighted items covers.
  const std::vector<KnapsackItem> items{
      {5, 150'000'000}, {0, 60'000'000}, {3, 150'000'000}, {0, 50'000'000}};
  const long long demand = 100'000'000;
  ASSERT_GT(static_cast<long long>(items.size()) * (demand + 1), 1LL << 26);
  auto sel = min_knapsack_approx(items, demand, 0.25);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->items, (std::vector<int>{1, 3}));
  EXPECT_EQ(sel->weight, 0);
  EXPECT_EQ(sel->profit, 110'000'000);

  sel = min_knapsack_approx(items, 2 * demand, 0.25);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->items, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sel->weight, 3);
  EXPECT_EQ(sel->profit, 260'000'000);
}

TEST(MinKnapsack, ScaledApproxCoversTheTotalProfitAndNothingMore) {
  // Above the budget, a demand equal to the total profit needs every item;
  // one more unit has no cover.
  const std::vector<KnapsackItem> items{{1, 100'000'000}, {0, 50'000'000}, {7, 49'999'999}};
  const long long total = 199'999'999;
  ASSERT_GT(static_cast<long long>(items.size()) * (total + 1), 1LL << 26);
  const auto sel = min_knapsack_approx(items, total, 0.25);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->items, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sel->weight, 8);
  EXPECT_EQ(sel->profit, total);
  EXPECT_FALSE(min_knapsack_approx(items, total + 1, 0.25).has_value());
}

TEST(MinKnapsack, ApproxRejectsBadEps) {
  const std::vector<KnapsackItem> items{{1, 1}};
  EXPECT_THROW(min_knapsack_approx(items, 1, 0.0), std::invalid_argument);
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
