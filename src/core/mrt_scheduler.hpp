#pragma once

#include <array>
#include <optional>
#include <string>

#include "core/canonical_list.hpp"
#include "core/dual_approx.hpp"
#include "core/two_shelf.hpp"
#include "model/instance.hpp"
#include "sched/schedule.hpp"

/// The combined sqrt(3) dual approximation of Mounie, Rapine & Trystram
/// (Theorem 3) and its dichotomic-search wrapper -- the library's primary
/// public entry point.
///
/// For a guess d the dual step (Theorem 3's case split, reconstructed):
///   1. Certified rejection via Property 2 (missing canonical allotment or
///      canonical work above m*d).
///   2. If the canonical allotment fits m processors outright, a single
///      shelf of length d suffices.
///   3. Otherwise, route on the canonical area W against mu*m*d:
///      the knapsack two-shelf construction when W is large, the canonical
///      list algorithm when W is small; each falls back to the other, then
///      to the malleable list algorithm (which alone certifies sqrt(3) for
///      m <= 6). An acceptance always carries a *validated* schedule of
///      length <= sqrt(3)*d; if every branch misses the bound (impossible
///      per the paper; conceivable only through a reconstruction gap) the
///      step reports an uncertified rejection that never inflates the
///      certified lower bound.
///
/// mrt_schedule() then runs dual_search, yielding a schedule within
/// sqrt(3)*(1+eps) of the certified lower bound (Section 2.2's conversion).
namespace malsched {

/// Which rule produced (or refused) the schedule at one dual step.
enum class DualBranch {
  kRejected = 0,         ///< certified OPT > d
  kSingleShelf,          ///< canonical allotment fits m processors
  kTwoShelfKnapsack,     ///< Section 4 knapsack lambda-schedule
  kTwoShelfTrivial,      ///< Section 4.5 trivial solution
  kCanonicalList,        ///< Section 3.2 list schedule
  kMalleableList,        ///< Section 3.1 list schedule
  kGap,                  ///< nothing accepted, nothing certified
};
inline constexpr int kDualBranchCount = 7;

[[nodiscard]] std::string to_string(DualBranch branch);

struct MrtOptions {
  /// Empty, and read by no library code: kept for perfbench's traced replay,
  /// which passes it to two_shelf_schedule (see TwoShelfOptions).
  TwoShelfOptions two_shelf{};
  CanonicalListOptions canonical_list{};
  /// Termination, step budget and cancellation of the one dual search
  /// (dual_search: ramp from the static lower bound, then geometric
  /// bisection); its guess sequence is not an option.
  DualSearchOptions search{};
  /// Slide tasks earlier after construction (never hurts the bound).
  bool use_compaction{true};
  /// Branch toggles for ablation studies.
  bool enable_two_shelf{true};
  bool enable_canonical_list{true};
  bool enable_malleable_list{true};
  /// Evaluate every branch and keep the shortest accepted schedule instead
  /// of stopping at the first success (ablation; slower, never worse).
  bool pick_best_branch{false};
};

/// Result of one dual step at a fixed guess (exposed for tests/benches).
struct MrtDualOutcome {
  DualBranch branch{DualBranch::kGap};
  std::optional<Schedule> schedule;  ///< present iff accepted
  bool certified_reject{false};
  double canonical_area{0.0};        ///< W at this guess (0 when rejected)
  bool area_condition{false};        ///< W <= mu*m*d
};

/// Runs the sqrt(3) dual step at `deadline` on `workspace`, which shares the
/// canonical allotment, the area sort, and the branch scratch across the
/// branches (and, within one solve, across steps).
[[nodiscard]] MrtDualOutcome mrt_dual_step(DualWorkspace& workspace, double deadline,
                                           const MrtOptions& options = {});

/// One-shot form: builds a DualWorkspace for `instance` and forwards.
[[nodiscard]] MrtDualOutcome mrt_dual_step(const Instance& instance, double deadline,
                                           const MrtOptions& options = {});

/// Full solve: dichotomic search over guesses.
struct MrtResult {
  Schedule schedule;
  double makespan{0.0};
  double lower_bound{0.0};  ///< certified lower bound on OPT
  double ratio{0.0};        ///< makespan / lower_bound (<= sqrt(3)(1+eps) when gap-free)
  double final_guess{0.0};
  int iterations{0};
  int gaps{0};
  /// How often each branch fired across the search, indexed by DualBranch.
  std::array<int, kDualBranchCount> branch_counts{};
  /// The solve's DualWorkspace counters, totals over the whole solve:
  /// scratch growths (the hot loop's allocation audit) and canonical
  /// allotments actually computed vs. served from the per-step cache. Every
  /// solve builds its own workspace, so both are functions of (instance,
  /// options) alone.
  long long workspace_allocations{0};
  long long canonical_evals{0};
};

[[nodiscard]] MrtResult mrt_schedule(const Instance& instance, const MrtOptions& options = {});

}  // namespace malsched
