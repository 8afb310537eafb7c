#pragma once

#include <optional>
#include <vector>

#include "model/instance.hpp"
#include "sched/schedule.hpp"
#include "support/cancellation.hpp"
#include "support/math_utils.hpp"

/// The Canonical List Algorithm of Section 3.2 (Theorem 2) with the
/// appendix's reallocation refinement.
///
/// Allotment: every task gets its canonical number of processors
/// gamma_i(d). Scheduling: list by non-increasing canonical execution time,
/// ties broken leftmost when starting at time 0 and rightmost otherwise
/// (which keeps the schedule contiguous).
///
/// Guarantee (Theorem 2): when the instance admits a schedule of length d,
/// the canonical area W is at most mu*m*d [R], and m >= m_mu, every task of
/// the first two levels completes by 2*mu*d (Property 3) and every other
/// task is sequential, shorter than d/2, and completes by 3d/2 (Lemma 1).
/// With mu = sqrt(3)/2 both bounds are sqrt(3)*d.
///
/// Appendix refinement: when the first task reaching the second level still
/// finds at least khat = ceil((k*+1)/2) processors idle on the first level
/// (k* the largest k with k/(k+1) < mu), it is *reallocated*: squeezed onto
/// khat first-level processors instead. Halving the processors at most
/// doubles the execution time (work monotonicity), keeping it within
/// 2*mu*d, and removes the pathological stair that forces large m_mu.
namespace malsched {

class DualWorkspace;

/// Reusable buffers for the canonical-list placement, one per DualWorkspace,
/// both grown through detail::resize_counted (sched/sliding.hpp has their
/// users): the storage of the AvailabilityTree, 2*bit_ceil(m) doubles whose
/// leaves are the processor availabilities, and the window kernel's buffer
/// of m doubles for tasks wider than one processor.
struct CanonicalListScratch {
  std::vector<double> tree;
  std::vector<double> window;
  long long alloc_events{0};
};

struct CanonicalListOptions {
  /// Regime parameter; the paper's choice is sqrt(3)/2.
  double mu{kMu};
  /// Apply the appendix's reallocation rule.
  bool use_reallocation{true};
  /// Cooperative cancellation/deadline probe, ticked once per placed task
  /// (strided -- see CancelCheck), so a 10k-task placement loop stops within
  /// one stride of cancel()/expiry. Unarmed by default (byte-identical
  /// schedules).
  CancelCheck cancel;
};

/// Diagnostics accompanying a canonical-list run.
struct CanonicalListOutcome {
  /// Feasible schedule; std::nullopt only with a Property-2 certificate
  /// that no schedule of length `deadline` exists.
  std::optional<Schedule> schedule;
  /// Canonical area W of Definition 1 (0 when rejected).
  double canonical_area{0.0};
  /// True when W <= mu * m * d, i.e. Theorem 2's hypothesis holds and the
  /// 2*mu*d bound is guaranteed (for m >= m_mu).
  bool area_condition{false};
  /// True when the reallocation rule fired.
  bool reallocated{false};
};

/// Largest k with k/(k+1) < mu; tasks short enough for the second shelf
/// never need more than k*+1 canonical processors (Property 1).
[[nodiscard]] int kstar(double mu);

/// Width ceil((k*+1)/2) used by the reallocation rule.
[[nodiscard]] int reallocation_width(double mu);

/// Runs the algorithm for guess `deadline`. The canonical allotment, area,
/// and priority order come from the workspace's per-step cache (one radix
/// sort of the canonical times per dual step, shared with canonical_area
/// and the other branches) and the list loop runs out of reused scratch --
/// only the returned Schedule allocates.
[[nodiscard]] CanonicalListOutcome canonical_list_schedule(
    DualWorkspace& workspace, double deadline, const CanonicalListOptions& options = {});

/// One-shot form: builds a DualWorkspace for `instance` and forwards.
[[nodiscard]] CanonicalListOutcome canonical_list_schedule(
    const Instance& instance, double deadline, const CanonicalListOptions& options = {});

}  // namespace malsched
