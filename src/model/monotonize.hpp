#pragma once

#include <span>
#include <vector>

/// Repairing arbitrary time profiles into valid monotonic ones.
///
/// Real measured speedup curves frequently violate the paper's assumptions
/// locally (cache effects, Graham anomalies -- see the paper's Section 2.1
/// discussion). `monotonize` is the canonical repair used by the workload
/// generators: it returns the closest-from-above profile satisfying both
/// monotonicity conditions.
namespace malsched {

/// Returns a profile with t(p) non-increasing and p*t(p) non-decreasing.
///
/// Two realizability-preserving passes:
///   1. t(p) <- min(t(p), t(p-1)): a time promised for p-1 processors is
///      achievable with p by leaving one idle, so clamping down is safe;
///   2. t(p) <- max(t(p), w(p-1)/p): super-linear dips are raised until the
///      work is non-decreasing. The raise keeps pass 1 valid because
///      w(p-1)/p <= t(p-1).
/// Idempotent; input must be non-empty with positive entries.
[[nodiscard]] std::vector<double> monotonize(std::vector<double> times);

/// True when the profile already satisfies both monotonicity conditions.
[[nodiscard]] bool is_monotonic_profile(std::span<const double> times);

}  // namespace malsched
