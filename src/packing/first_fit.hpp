#pragma once

#include <span>
#include <vector>

/// One-dimensional First Fit packing.
///
/// Section 4.1 of the paper packs the "small" sequential tasks (canonical
/// time <= 1/2) onto shelf processors with the First Fit rule; FF(S, d)
/// denotes the number of processors First Fit needs to pack the set S under
/// time deadline d. The paper only relies on the elementary property that if
/// FF(S, d) > 1 then the total size of S exceeds d * FF(S, d) / 2 (every bin
/// but possibly one is more than half full); `first_fit_half_full_bound`
/// exposes that check for the tests.
namespace malsched {

/// Result of a 1-D packing: bin b holds item indices `bins[b]` whose sizes
/// sum to `loads[b] <= capacity`. `bins` may keep cleared spare slots past
/// bin_count() (first_fit_into retains them so reused packings keep their
/// inner capacity); `loads` always has exactly bin_count() entries.
struct BinPacking {
  std::vector<std::vector<int>> bins;
  std::vector<double> loads;

  [[nodiscard]] int bin_count() const noexcept { return static_cast<int>(loads.size()); }
};

/// First Fit: items in the given order, each into the lowest-index bin that
/// still has room, packed into caller-owned storage. The bin and load
/// vectors (and the inner per-bin vectors, up to shrinkage) retain their
/// capacity across calls, so hot loops repack without fresh heap allocation
/// after warm-up. Throws std::invalid_argument if an item exceeds the
/// capacity (up to tolerance).
void first_fit_into(std::span<const double> sizes, double capacity, BinPacking& out);

/// First Fit Decreasing: sorts by non-increasing size first (the classical
/// 11/9 OPT + 4 bound, Johnson et al. [11] in the paper's references).
[[nodiscard]] BinPacking first_fit_decreasing(std::span<const double> sizes, double capacity);

/// FF(S, d) of the paper: number of bins First Fit opens, the same count as
/// first_fit_into's. The bin loads live in a caller-owned buffer so hot
/// loops (the two-shelf partition recomputed at every dual guess) open no
/// heap allocation after warm-up.
[[nodiscard]] int first_fit_bin_count(std::span<const double> sizes, double capacity,
                                      std::vector<double>& loads);

/// The property the paper quotes: with k = FF(S, d) bins, total size
/// > d * (k - 1) / 2 (all bins except possibly the last are pairwise
/// incompatible). Returns true when the packing satisfies it.
[[nodiscard]] bool first_fit_half_full_bound(const BinPacking& packing, double capacity);

}  // namespace malsched
