#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

/// Numeric helpers shared by every module.
///
/// All scheduling feasibility checks compare floating-point times; a single,
/// consistent tolerance policy avoids spurious infeasibility when a shelf
/// deadline is an irrational constant such as sqrt(3).
namespace malsched {

/// Relative tolerance used by every feasibility comparison in the library.
inline constexpr double kRelEps = 1e-9;

/// Absolute floor so comparisons near zero still behave.
inline constexpr double kAbsEps = 1e-12;

/// sqrt(3), the paper's performance guarantee.
inline constexpr double kSqrt3 = 1.7320508075688772;

/// lambda = sqrt(3) - 1, the length of the second shelf (Section 4).
inline constexpr double kLambda = kSqrt3 - 1.0;

/// mu = sqrt(3) / 2, the canonical-list regime parameter (Section 3.2).
inline constexpr double kMu = kSqrt3 / 2.0;

/// True when `a <= b` up to the library tolerance (relative in magnitude).
[[nodiscard]] inline bool leq(double a, double b) noexcept {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  return a <= b + kRelEps * scale + kAbsEps;
}

/// True when `a >= b` up to the library tolerance.
[[nodiscard]] inline bool geq(double a, double b) noexcept { return leq(b, a); }

/// True when `a` and `b` agree up to the library tolerance.
[[nodiscard]] inline bool approx_eq(double a, double b) noexcept {
  return leq(a, b) && leq(b, a);
}

}  // namespace malsched
