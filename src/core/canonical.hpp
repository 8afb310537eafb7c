#pragma once

#include <optional>
#include <vector>

#include "model/instance.hpp"

/// Canonical allotments and the quantities of Section 2 of the paper.
///
/// For a dual guess d (the hypothesized optimal makespan), the *canonical
/// number of processors* of task i is gamma_i(d) = min{p : t_i(p) <= d}.
/// Everything in the paper's analysis is phrased relative to this allotment.
namespace malsched {

class DualWorkspace;

/// Canonical allotment of a whole instance for deadline `deadline`.
struct CanonicalAllotment {
  double deadline{0.0};

  /// True when every task admits gamma_i(deadline) (i.e. t_i(m) <= d).
  /// When false, `procs` is empty and OPT > deadline is *certified*.
  bool feasible{false};

  /// gamma_i(deadline) per task (only when feasible).
  std::vector<int> procs;

  /// Sum over tasks of canonical work w_i(gamma_i).
  double total_work{0.0};

  /// Sum over tasks of gamma_i.
  long long total_procs{0};
};

/// Computes the canonical allotment (binary search per task, O(n log m)).
[[nodiscard]] CanonicalAllotment canonical_allotment(const Instance& instance, double deadline);

/// Property 2 rejection test: if OPT <= d then total canonical work <= m*d.
/// Returns true when the instance is *certifiably* infeasible at `deadline`
/// (either some gamma_i is undefined or the area bound fails).
[[nodiscard]] bool certified_infeasible(const Instance& instance,
                                        const CanonicalAllotment& allotment);

/// Property 1: for gamma_i >= 2, t_i(gamma_i) > (gamma_i - 1)/gamma_i * d.
/// Checked for a single task; the test suite sweeps it across generators.
[[nodiscard]] bool property1_holds(const MalleableTask& task, int gamma, double deadline);

/// The canonical area W of Definition 1: tasks sorted by non-increasing
/// canonical time are stacked onto an unbounded machine; W is the fractional
/// area falling on the first m processors. With k the minimal index such
/// that the prefix processor sum reaches m,
///   W = sum_{j<=k} w_j - (prefix_procs - m) * t_k(gamma_k),
/// and simply the total canonical work when the sum never reaches m.
///
/// This form sorts afresh on every call (order_by_decreasing); it is the
/// reference the workspace form is tested against, and what one-shot
/// callers use.
[[nodiscard]] double canonical_area(const Instance& instance,
                                    const CanonicalAllotment& allotment);

/// The dual step's form: the same value, with the decreasing-time order taken
/// from the workspace's once-per-step sort (shared with the canonical list
/// algorithm). `allotment` must be the workspace's current canonical
/// allotment.
[[nodiscard]] double canonical_area(DualWorkspace& workspace,
                                    const CanonicalAllotment& allotment);

/// The paper's regime threshold: the knapsack route is guaranteed when
/// W >= mu * m * d with mu = sqrt(3)/2, the list route when below [R].
[[nodiscard]] double area_threshold(const Instance& instance, double deadline);

}  // namespace malsched
