#pragma once

#include <optional>
#include <vector>

#include "knapsack/knapsack.hpp"
#include "model/instance.hpp"
#include "packing/first_fit.hpp"
#include "sched/schedule.hpp"
#include "support/cancellation.hpp"

/// The knapsack-based two-shelf construction of Section 4.
///
/// For a guess d (assume OPT <= d) and lambda = sqrt(3) - 1, the instance is
/// partitioned by canonical execution time t_i(gamma_i(d)):
///
///   S1 = { i : t_i(gamma_i) >  lambda*d }   "tall" tasks
///   S2 = { i : d/2 < t_i(gamma_i) <= lambda*d }
///   S3 = { i : t_i(gamma_i) <= d/2 }         sequential by Property 1
///
/// with q1 = sum_{S1} gamma_i - m (first-shelf processor overflow),
/// q2 = sum_{S2} gamma_i, and q3 = FF(S3, lambda*d) (processors First Fit
/// needs for the small tasks under deadline lambda*d).
///
/// A *lambda-schedule* consists of two shelves: shelf 1 (window [0, d])
/// carries S1 \ S at canonical allotment; shelf 2 (window [d, d + lambda*d])
/// carries the migrated set S (allotted gamma^lambda_i = min procs for time
/// <= lambda*d), all of S2 (canonical allotment), and S3 packed by First
/// Fit. The subset S is feasible iff
///
///   sum_{S} gamma_i        >= q1             (shelf 1 fits in m), and
///   sum_{S} gamma^lambda_i <= m - q2 - q3    (shelf 2 fits in m),
///
/// which is exactly the knapsack problem (P): maximize sum gamma_i subject
/// to sum gamma^lambda_i <= m - q2 - q3. The paper proves (Lemma 2-4) that
/// whenever OPT <= d and the canonical area W exceeds mu*m*d, either the
/// knapsack (exactly, or via its FPTAS together with the dual (P')) or a
/// linear-time "trivial solution" (one huge task alone on shelf 2) yields a
/// feasible lambda-schedule -- total length (1 + lambda)*d = sqrt(3)*d.
namespace malsched {

class DualWorkspace;

namespace detail {

/// An S1 task that may migrate to the second shelf (the knapsack's ground
/// set); exposed here only so TwoShelfScratch can reuse its storage.
struct TwoShelfMigrant {
  int task{0};
  int gamma{0};         ///< canonical processors for deadline d
  int gamma_lambda{0};  ///< minimal processors for deadline lambda*d
};

}  // namespace detail

/// Reusable buffers for the two-shelf construction: one per DualWorkspace,
/// cleared (capacity retained) on every attempt so a dual step allocates
/// nothing here after warm-up. `alloc_events` counts the attempts on which
/// some buffer's capacity grew (audited by two_shelf_schedule).
struct TwoShelfScratch {
  std::vector<int> s1;
  std::vector<int> s2;
  std::vector<int> s3;
  std::vector<double> sizes;  ///< S3 sequential times (First Fit input)
  std::vector<detail::TwoShelfMigrant> candidates;
  std::vector<detail::TwoShelfMigrant> migrants;
  std::vector<KnapsackItem> items;
  std::vector<char> migrated;
  std::vector<double> ff_loads;  ///< First Fit bin loads for q3 counting
  BinPacking ff_packing;         ///< reused S3 packing for schedule builds
  KnapsackScratch knapsack;
  long long alloc_events{0};
};

/// Knapsack backend for the allotment selection.
enum class KnapsackMode {
  kExact,  ///< pseudo-polynomial DP, O(|S1| * m) -- exact (Section 4.3)
  kFptas,  ///< approximation scheme on (P) with fallback to (P') (Section 4.4)
};

/// The second shelf is kLambda * d long (support/math_utils.hpp), the
/// paper's lambda = sqrt(3) - 1, and the Section 4.5 scan for trivial
/// solutions always runs after the knapsack.
struct TwoShelfOptions {
  KnapsackMode knapsack{KnapsackMode::kExact};
  /// Epsilon for the FPTAS backend (ignored in exact mode).
  double fptas_eps{0.05};
  /// Cooperative cancellation/deadline probe, forwarded into the knapsack
  /// branch-and-bound (ticked per explored node, strided) -- the one
  /// potentially exponential corner of the construction. Unarmed by default
  /// (byte-identical selections).
  CancelCheck cancel;
};

/// Diagnostics of a two-shelf attempt.
struct TwoShelfOutcome {
  /// The lambda-schedule, length <= (1+lambda)*d; std::nullopt when no
  /// feasible subset was found (or infeasibility was certified).
  std::optional<Schedule> schedule;

  bool certified_reject{false};  ///< Property-2 certificate fired
  bool used_trivial{false};      ///< solved by a trivial solution of 4_lambda
  bool used_dual_knapsack{false};///< (P') provided the subset (FPTAS mode)

  // Partition snapshot.
  int s1_count{0};
  int s2_count{0};
  int s3_count{0};
  long long q1{0};
  long long q2{0};
  long long q3{0};
  long long knapsack_capacity{0};  ///< m - q2 - q3
  long long knapsack_profit{0};    ///< achieved sum of gamma_i over S
};

/// Attempts to build a lambda-schedule for guess `deadline`. The canonical
/// allotment comes from the workspace's per-step cache and every
/// intermediate container (partition, candidates, knapsack DP tables, First
/// Fit loads) lives in its reused scratch -- only an accepted Schedule
/// allocates.
[[nodiscard]] TwoShelfOutcome two_shelf_schedule(DualWorkspace& workspace, double deadline,
                                                 const TwoShelfOptions& options = {});

/// One-shot form: builds a DualWorkspace for `instance` and forwards.
[[nodiscard]] TwoShelfOutcome two_shelf_schedule(const Instance& instance, double deadline,
                                                 const TwoShelfOptions& options = {});

}  // namespace malsched
