#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "support/math_utils.hpp"

/// The window kernel behind every contiguous list placement: for a
/// processor-availability vector it yields, in O(m), the ready time of every
/// width-w contiguous window, the earliest of them, and the tied window a
/// placement rule picks.
namespace malsched {

/// Window maxima of one availability vector and their minimum.
struct WindowMaxima {
  /// ready[s] = max(values[s .. s+width-1]); a view of either the values
  /// themselves (width 1) or the caller's buffer.
  std::span<const double> ready;
  /// min over ready: the earliest start of a width-w contiguous window.
  double earliest{0.0};
};

namespace detail {

/// Minimum of `values` (+inf when empty) over four independent running
/// minima, so the reduction is not one serial dependency chain.
[[nodiscard]] inline double min_value(std::span<const double> values) {
  double lane0 = std::numeric_limits<double>::infinity();
  double lane1 = lane0;
  double lane2 = lane0;
  double lane3 = lane0;
  const std::size_t n = values.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lane0 = std::min(lane0, values[i]);
    lane1 = std::min(lane1, values[i + 1]);
    lane2 = std::min(lane2, values[i + 2]);
    lane3 = std::min(lane3, values[i + 3]);
  }
  for (; i < n; ++i) lane0 = std::min(lane0, values[i]);
  return std::min(std::min(lane0, lane1), std::min(lane2, lane3));
}

}  // namespace detail

/// Computes every width-`width` window maximum of `values` together with
/// their minimum (requires 1 <= width <= values.size(); `buffer` holds at
/// least values.size() entries and backs the returned view for width > 1).
/// Width 1 reads `values` directly.
///
/// Van Herk / Gil-Werman: split the values into blocks of `width`; a window
/// starting at s spans the suffix of s's block and a prefix of the next, so
/// its maximum is max(block suffix max at s, block prefix max at s+width-1).
/// The suffix maxima are written into `buffer` and overwritten in place by
/// the window maxima, each read exactly once.
///
/// std::max and std::min return one of their operands, so every ready time
/// and `earliest` carry the bits of some value in `values`, whatever the
/// evaluation order (availability times are sums of non-negative times and
/// never mix +0.0 with -0.0, the one pair of equal values whose bits differ).
[[nodiscard]] inline WindowMaxima window_maxima(std::span<const double> values, int width,
                                                std::span<double> buffer) {
  const std::size_t n = values.size();
  const auto w = static_cast<std::size_t>(width);
  if (w == 1) return {values, detail::min_value(values)};
  // Only full blocks hold window starts (s <= n - w).
  for (std::size_t begin = 0; begin + w <= n; begin += w) {
    double run = values[begin + w - 1];
    for (std::size_t s = begin + w; s-- > begin;) {
      run = std::max(run, values[s]);
      buffer[s] = run;
    }
  }
  double earliest = buffer[0];  // window 0 is block 0
  for (std::size_t begin = w; begin < n; begin += w) {
    const std::size_t end = std::min(begin + w, n);
    double prefix = values[begin];
    for (std::size_t j = begin; j < end; ++j) {
      prefix = std::max(prefix, values[j]);
      const std::size_t s = j + 1 - w;
      buffer[s] = std::max(buffer[s], prefix);
      earliest = std::min(earliest, buffer[s]);
    }
  }
  return {std::span<const double>(buffer.data(), n - w + 1), earliest};
}

/// The first window, scanning from the left (or from the right), whose ready
/// time equals `windows.earliest` up to the library tolerance; -1 only for
/// an empty view.
///
/// Every ready time r satisfies r >= e = earliest, so approx_eq(r, e) implies
/// r <= e + kRelEps*max(r, 1) + kAbsEps, which implies the cheap cutoff
/// r <= e + 4*kRelEps*max(|e|, 1) + 4*kAbsEps. Testing the cutoff first only
/// skips windows the exact comparison would reject, in the same scan order.
[[nodiscard]] inline int tied_window(const WindowMaxima& windows, bool leftmost) {
  const double earliest = windows.earliest;
  const double cutoff =
      earliest + 4.0 * kRelEps * std::max(std::abs(earliest), 1.0) + 4.0 * kAbsEps;
  const auto ready = windows.ready;
  const auto tied = [&](std::size_t s) {
    return ready[s] <= cutoff && approx_eq(ready[s], earliest);
  };
  if (leftmost) {
    for (std::size_t s = 0; s < ready.size(); ++s) {
      if (tied(s)) return static_cast<int>(s);
    }
  } else {
    for (std::size_t s = ready.size(); s-- > 0;) {
      if (tied(s)) return static_cast<int>(s);
    }
  }
  return -1;
}

/// result[s] = max(values[s .. s+width-1]); requires 1 <= width <= size.
[[nodiscard]] inline std::vector<double> sliding_window_max(std::span<const double> values,
                                                            int width) {
  std::vector<double> buffer(values.size());
  const auto windows = window_maxima(values, width, buffer);
  return {windows.ready.begin(), windows.ready.end()};
}

}  // namespace malsched
