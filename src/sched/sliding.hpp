#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "support/math_utils.hpp"

/// The placement primitives behind every contiguous list placement:
///   * AvailabilityTree, processor availability kept in a min tree, which
///     answers a width-1 placement (its earliest start and tied column) in
///     O(log m) and records a placement of width w in O(w + log m);
///   * the window kernel, which yields in O(m) the ready time of every wider
///     contiguous window, the earliest of them, and the tied window a
///     placement rule picks;
///   * earliest_window, §3.2's placement rule over both.
namespace malsched {

/// Window maxima of one availability vector and their minimum.
struct WindowMaxima {
  /// ready[s] = max(values[s .. s+width-1]); a view of the caller's buffer.
  std::span<const double> ready;
  /// min over ready: the earliest start of a width-w contiguous window.
  double earliest{0.0};
};

namespace detail {

/// The tie test's cheap pre-filter. Every ready time r satisfies r >= e =
/// earliest, so approx_eq(r, e) implies r <= e + kRelEps*max(r, 1) + kAbsEps,
/// which implies r <= e + 4*kRelEps*max(|e|, 1) + 4*kAbsEps. Testing this
/// cutoff first only skips windows the exact comparison would reject.
[[nodiscard]] inline double tie_cutoff(double earliest) {
  return earliest + 4.0 * kRelEps * std::max(std::abs(earliest), 1.0) + 4.0 * kAbsEps;
}

}  // namespace detail

/// Computes every width-`width` window maximum of `values` together with
/// their minimum (requires 1 <= width <= values.size(); `buffer` holds at
/// least values.size() entries and backs the returned view).
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
/// an empty view. Each window is tested against detail::tie_cutoff before
/// the exact approx_eq.
[[nodiscard]] inline int tied_window(const WindowMaxima& windows, bool leftmost) {
  const double earliest = windows.earliest;
  const double cutoff = detail::tie_cutoff(earliest);
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

/// Processor availability of m processors in a min tree over caller-owned
/// storage of storage_size(m) doubles, in heap order: node 1 is the root,
/// node v's children are 2v and 2v+1, node 0 is unused. The bit_ceil(m)
/// leaves start at node bit_ceil(m); the first m are the processors, in
/// order, so leaves() is the availability vector itself, and the rest are
/// padding that holds +inf. Every internal node holds the min of its
/// children, so the root is the earliest availability, carrying the bits of
/// some leaf (std::min returns one of its operands).
class AvailabilityTree {
 public:
  /// Doubles of storage a tree over `machines` processors needs.
  [[nodiscard]] static std::size_t storage_size(int machines) {
    return 2 * std::bit_ceil(static_cast<std::size_t>(machines));
  }

  /// Every processor idle at time 0. Requires machines >= 1 and `storage` of
  /// at least storage_size(machines) doubles, which must outlive the tree.
  AvailabilityTree(std::span<double> storage, int machines)
      : first_leaf_(std::bit_ceil(static_cast<std::size_t>(machines))),
        machines_(static_cast<std::size_t>(machines)),
        nodes_(storage.first(2 * first_leaf_)) {
    const auto leaves = nodes_.subspan(first_leaf_);
    std::fill(leaves.begin(), leaves.begin() + machines, 0.0);
    std::fill(leaves.begin() + machines, leaves.end(), std::numeric_limits<double>::infinity());
    for (std::size_t v = first_leaf_; v-- > 1;) nodes_[v] = min_of_children(v);
  }

  /// The availability of processors 0 .. m-1.
  [[nodiscard]] std::span<const double> leaves() const {
    return nodes_.subspan(first_leaf_, machines_);
  }

  /// The earliest availability: the start of a width-1 placement.
  [[nodiscard]] double earliest() const { return nodes_[1]; }

  /// tied_window at width 1, in O(log m) per candidate: the first leaf,
  /// scanning from the left (or from the right), whose availability equals
  /// earliest() up to the library tolerance. The candidates are the leaves
  /// at or below detail::tie_cutoff, visited in scan order by descending to
  /// the first (last) of them and, when approx_eq rejects it, resuming past
  /// it, so they meet the same two tests in the same order as in
  /// tied_window's scan.
  [[nodiscard]] int tied_leaf(bool leftmost) const {
    const double earliest = nodes_[1];
    const double cutoff = detail::tie_cutoff(earliest);
    const auto candidate = [&](std::size_t v) { return nodes_[v] <= cutoff; };
    // From a node whose subtree holds a candidate down to its first (last).
    const auto descend = [&](std::size_t v) {
      while (v < first_leaf_) {
        v *= 2;
        if (leftmost ? !candidate(v) : candidate(v + 1)) ++v;
      }
      return v;
    };
    std::size_t v = descend(1);
    while (!approx_eq(nodes_[v], earliest)) {
      // Climb to the nearest sibling subtree past v that holds a candidate.
      // The leaf holding earliest() lies past v, so this stops below the root.
      while (leftmost ? (v % 2 == 1 || !candidate(v + 1)) : (v % 2 == 0 || !candidate(v - 1))) {
        v /= 2;
      }
      v = descend(leftmost ? v + 1 : v - 1);
    }
    return static_cast<int>(v - first_leaf_);
  }

  /// Makes processors first .. first+width-1 available from `time`: writes
  /// their leaves, then recomputes only their ancestors, level by level.
  void fill(int first, int width, double time) {
    std::size_t lo = first_leaf_ + static_cast<std::size_t>(first);
    std::size_t hi = lo + static_cast<std::size_t>(width) - 1;
    for (std::size_t v = lo; v <= hi; ++v) nodes_[v] = time;
    while (lo > 1) {
      lo /= 2;
      hi /= 2;
      for (std::size_t v = lo; v <= hi; ++v) nodes_[v] = min_of_children(v);
    }
  }

 private:
  [[nodiscard]] double min_of_children(std::size_t v) const {
    return std::min(nodes_[2 * v], nodes_[2 * v + 1]);
  }

  std::size_t first_leaf_;
  std::size_t machines_;
  std::span<double> nodes_;
};

/// Where a contiguous list placement puts a task.
struct ContiguousWindow {
  double start{0.0};  ///< the earliest start of `width` contiguous processors
  int column{0};      ///< the first processor of the tied window the rule picks
};

/// The window a contiguous list placement of `width` processors picks on
/// `avail` under §3.2's rule: the earliest start, at the leftmost tied
/// window when that start is 0 and at the rightmost otherwise, which keeps
/// the schedule contiguous. Width 1 reads the tree; wider windows run the
/// window kernel over its leaves into `buffer`, which holds at least m
/// doubles.
[[nodiscard]] inline ContiguousWindow earliest_window(const AvailabilityTree& avail, int width,
                                                      std::span<double> buffer) {
  if (width == 1) {
    const double start = avail.earliest();
    return {start, avail.tied_leaf(approx_eq(start, 0.0))};
  }
  const auto windows = window_maxima(avail.leaves(), width, buffer);
  return {windows.earliest, tied_window(windows, approx_eq(windows.earliest, 0.0))};
}

}  // namespace malsched
