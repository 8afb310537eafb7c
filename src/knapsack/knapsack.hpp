#pragma once

#include <optional>
#include <span>
#include <vector>

#include "support/cancellation.hpp"

/// Knapsack solvers backing the paper's allotment selection (Section 4).
///
/// The two-shelf construction chooses which tasks of S1 migrate to the
/// second shelf by solving
///
///   (P)  maximize sum of profits  s.t.  sum of weights <= capacity
///
/// where profit_i = canonical processors gamma_i and weight_i = processors
/// needed to finish within the short shelf. The paper also uses the dual
///
///   (P') minimize sum of weights  s.t.  sum of profits >= demand
///
/// so that a (1+eps)-approximation of either problem still yields a feasible
/// shelf assignment (Lemma 2). Both weights and profits are processor counts,
/// hence non-negative integers; solvers below exploit that.
namespace malsched {

struct KnapsackItem {
  long long weight{0};  ///< must be >= 0
  long long profit{0};  ///< must be >= 0
};

/// A chosen subset with its totals. `items` holds indices into the input span
/// in increasing order.
struct KnapsackSelection {
  std::vector<int> items;
  long long weight{0};
  long long profit{0};
};

/// Reusable DP buffers for the exact solver: profit row + flattened choice
/// table. Callers that solve many knapsacks (the two-shelf dual loop) keep
/// one scratch alive so the per-call heap allocations disappear after
/// warm-up; `alloc_events` counts the growths that did happen.
struct KnapsackScratch {
  std::vector<long long> best;
  std::vector<char> take;
  long long alloc_events{0};
};

/// Exact pseudo-polynomial DP, O(n * capacity) time and memory [13].
/// Throws std::invalid_argument on negative inputs and std::length_error when
/// the DP table would exceed an internal memory guard (~512 MB).
[[nodiscard]] KnapsackSelection knapsack_exact(std::span<const KnapsackItem> items,
                                               long long capacity);

/// As above, with caller-owned scratch (identical selection, no per-call
/// allocation once the scratch has warmed up).
[[nodiscard]] KnapsackSelection knapsack_exact(std::span<const KnapsackItem> items,
                                               long long capacity, KnapsackScratch& scratch);

/// True when knapsack_exact would refuse `items` x `capacity` because the DP
/// choice table would exceed the ~512 MB memory guard.
[[nodiscard]] bool knapsack_exact_exceeds_guard(std::span<const KnapsackItem> items,
                                                long long capacity);

/// Exact solve that never trips the memory guard: the pseudo-polynomial DP
/// when the table fits, depth-first branch and bound (O(n) memory) when the
/// capacity is too large -- so a huge-capacity instance degrades to a slower
/// exact search instead of a std::length_error.
[[nodiscard]] KnapsackSelection knapsack_exact_auto(std::span<const KnapsackItem> items,
                                                    long long capacity);

/// As above, with caller-owned DP scratch for the in-guard path, and an
/// optional borrowed cancellation probe forwarded to the branch-and-bound
/// fallback (ticked per explored node; nullptr or unarmed changes nothing).
[[nodiscard]] KnapsackSelection knapsack_exact_auto(std::span<const KnapsackItem> items,
                                                    long long capacity,
                                                    KnapsackScratch& scratch,
                                                    const CancelCheck* cancel = nullptr);

/// Fully polynomial approximation scheme: profit within (1 - eps) of optimal,
/// weight within capacity, O(n^2 * n/eps) time via profit scaling [13].
[[nodiscard]] KnapsackSelection knapsack_fptas(std::span<const KnapsackItem> items,
                                               long long capacity, double eps);

/// Exact depth-first branch and bound with the Dantzig fractional upper
/// bound. Memory is O(n) (no DP table), so it complements the pseudo-
/// polynomial DP when the capacity is huge; exponential worst-case time,
/// bounded by `node_budget` explored nodes (throws std::runtime_error when
/// exceeded). `cancel`, when non-null and armed, is ticked once per explored
/// node (strided -- see CancelCheck) so a deep search also stops on
/// cancellation or deadline expiry.
[[nodiscard]] KnapsackSelection knapsack_branch_and_bound(std::span<const KnapsackItem> items,
                                                          long long capacity,
                                                          long long node_budget = 50'000'000,
                                                          const CancelCheck* cancel = nullptr);

/// Exact solver for the dual problem (P'): minimum total weight subset with
/// profit >= demand. Returns std::nullopt when even all items together fall
/// short of `demand`. DP over profit, O(n * demand); throws
/// std::length_error when its table would exceed the ~512 MB memory guard.
[[nodiscard]] std::optional<KnapsackSelection> min_knapsack_exact(
    std::span<const KnapsackItem> items, long long demand);

/// (1+eps)-approximation of (P'): returns a subset with profit >= demand and
/// weight <= (1+eps) * optimal weight, or std::nullopt when infeasible.
/// Exact (min_knapsack_exact) while n * (demand + 1) <= 2^26. Above that it
/// keeps profits exact and runs a DP over weights scaled for doubling
/// guesses of the optimum, O(n^2 / eps) per guess; throws std::length_error
/// when that table would exceed the same memory guard.
[[nodiscard]] std::optional<KnapsackSelection> min_knapsack_approx(
    std::span<const KnapsackItem> items, long long demand, double eps);

}  // namespace malsched
