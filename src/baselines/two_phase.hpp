#pragma once

#include <string>

#include "model/instance.hpp"
#include "sched/schedule.hpp"

/// The two-phase baseline family of Turek, Wolf & Yu [18] / Ludwig [12].
///
/// Phase 1 (allotment selection): Turek et al. showed that running a
/// non-malleable algorithm A on a polynomial set of *candidate allotments*
/// preserves A's guarantee for the malleable problem; with monotonic tasks
/// the candidates are exactly the canonical allotments gamma(L) for the
/// O(n*m) distinct profile values L (Ludwig's refinement of the selection).
///
/// Phase 2 (rigid scheduling): a strip-packing / list algorithm on the
/// chosen allotment. We provide the classical level packers (NFDH, FFDH)
/// and plain list scheduling. Ludwig's published guarantee of 2 relies on
/// Steinberg's packing; our packers are the standard practical stand-ins
/// (documented substitution -- see DESIGN.md) and their measured behavior
/// lands in the same ~2x regime the paper compares against.
namespace malsched {

/// Rigid scheduling algorithm used in phase 2.
enum class RigidAlgo {
  kNfdh,          ///< Next Fit Decreasing Height level packing
  kFfdh,          ///< First Fit Decreasing Height level packing
  kListSchedule,  ///< greedy contiguous list scheduling by decreasing time
};

[[nodiscard]] std::string to_string(RigidAlgo algo);

struct TwoPhaseOptions {
  RigidAlgo rigid{RigidAlgo::kFfdh};
  /// Candidate thresholds evaluated. The candidates are the distinct t_i(p)
  /// values at or above max_i t_i(m) (the Turek/Ludwig set; a smaller value
  /// admits no allotment). 0 = all of them; otherwise an even subsample of
  /// that sorted set, trading fidelity for speed on large instances.
  int max_candidates{96};
};

struct TwoPhaseResult {
  Schedule schedule;
  double makespan;
  int candidates_tried;
  double best_threshold;  ///< deadline L whose allotment won
};

/// Runs the two-phase baseline; the returned schedule is feasible and
/// contiguous.
[[nodiscard]] TwoPhaseResult two_phase_schedule(const Instance& instance,
                                                const TwoPhaseOptions& options = {});

}  // namespace malsched
