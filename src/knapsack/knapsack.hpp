#pragma once

#include <span>
#include <vector>

/// The knapsack solver behind the paper's allotment selection (Section 4).
///
/// The two-shelf construction chooses which tasks of S1 migrate to the
/// second shelf by solving
///
///   (P)  maximize sum of profits  s.t.  sum of weights <= capacity
///
/// where profit_i = canonical processors gamma_i and weight_i = processors
/// needed to finish within the short shelf. Both are processor counts, so the
/// capacity is at most m and the exact DP of Section 4.3 runs in O(|S1| * m).
/// Every task stores at least m times, so that table is never larger than the
/// instance itself; the paper's FPTAS route with the dual (P') (Section 4.4),
/// which matters only when m is not bounded by the input, is not needed here.
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
/// Throws std::invalid_argument on negative inputs and std::length_error,
/// before anything is allocated, when the DP choice table would exceed an
/// internal memory guard (~512 MB).
[[nodiscard]] KnapsackSelection knapsack_exact(std::span<const KnapsackItem> items,
                                               long long capacity);

/// As above, with caller-owned scratch (identical selection, no per-call
/// allocation once the scratch has warmed up).
[[nodiscard]] KnapsackSelection knapsack_exact(std::span<const KnapsackItem> items,
                                               long long capacity, KnapsackScratch& scratch);

}  // namespace malsched
