#include "packing/first_fit.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "support/math_utils.hpp"

namespace malsched {

namespace {

/// The First Fit placement rule, shared by every first-fit entry point so
/// the feasibility test (and with it q3 = FF(S3) accounting in the
/// two-shelf construction) cannot drift between copies: lowest-index bin
/// whose load still admits `size`, or -1 to open a new bin.
int first_fit_bin_for(const std::vector<double>& loads, double size, double capacity) {
  for (std::size_t b = 0; b < loads.size(); ++b) {
    if (leq(loads[b] + size, capacity)) return static_cast<int>(b);
  }
  return -1;
}

BinPacking pack_in_order(std::span<const double> sizes, std::span<const int> order,
                         double capacity) {
  BinPacking packing;
  for (const int item : order) {
    const double size = sizes[static_cast<std::size_t>(item)];
    if (!(size > 0.0)) throw std::invalid_argument("first_fit: item sizes must be positive");
    if (!leq(size, capacity)) {
      throw std::invalid_argument("first_fit: item larger than bin capacity");
    }
    const int bin = first_fit_bin_for(packing.loads, size, capacity);
    if (bin >= 0) {
      packing.bins[static_cast<std::size_t>(bin)].push_back(item);
      packing.loads[static_cast<std::size_t>(bin)] += size;
    } else {
      packing.bins.push_back({item});
      packing.loads.push_back(size);
    }
  }
  return packing;
}

}  // namespace

void first_fit_into(std::span<const double> sizes, double capacity, BinPacking& out) {
  out.loads.clear();
  std::size_t used = 0;  // bins [0, used) are live; the rest keep capacity
  for (std::size_t item = 0; item < sizes.size(); ++item) {
    const double size = sizes[item];
    if (!(size > 0.0)) throw std::invalid_argument("first_fit: item sizes must be positive");
    if (!leq(size, capacity)) {
      throw std::invalid_argument("first_fit: item larger than bin capacity");
    }
    const int bin = first_fit_bin_for(out.loads, size, capacity);
    if (bin >= 0) {
      out.bins[static_cast<std::size_t>(bin)].push_back(static_cast<int>(item));
      out.loads[static_cast<std::size_t>(bin)] += size;
    } else {
      if (used == out.bins.size()) out.bins.emplace_back();
      out.bins[used].clear();
      out.bins[used].push_back(static_cast<int>(item));
      ++used;
      out.loads.push_back(size);
    }
  }
  // Spare slots past `used` are cleared but kept (bin_count() reads loads),
  // so a reused packing never re-allocates inner vectors it already owned.
  for (std::size_t b = used; b < out.bins.size(); ++b) out.bins[b].clear();
}

BinPacking first_fit_decreasing(std::span<const double> sizes, double capacity) {
  std::vector<int> order(sizes.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return sizes[static_cast<std::size_t>(a)] > sizes[static_cast<std::size_t>(b)];
  });
  return pack_in_order(sizes, order, capacity);
}

int first_fit_bin_count(std::span<const double> sizes, double capacity,
                        std::vector<double>& loads) {
  // Same placement rule and load accumulation order as first_fit_into (both
  // go through first_fit_bin_for), so the count is byte-identical; only the
  // bin membership lists are not materialized.
  loads.clear();
  for (const double size : sizes) {
    if (!(size > 0.0)) throw std::invalid_argument("first_fit: item sizes must be positive");
    if (!leq(size, capacity)) {
      throw std::invalid_argument("first_fit: item larger than bin capacity");
    }
    const int bin = first_fit_bin_for(loads, size, capacity);
    if (bin >= 0) {
      loads[static_cast<std::size_t>(bin)] += size;
    } else {
      loads.push_back(size);
    }
  }
  return static_cast<int>(loads.size());
}

bool first_fit_half_full_bound(const BinPacking& packing, double capacity) {
  const int k = packing.bin_count();
  if (k <= 1) return true;
  const double total = std::accumulate(packing.loads.begin(), packing.loads.end(), 0.0);
  return total > capacity * static_cast<double>(k - 1) / 2.0 - kAbsEps;
}

}  // namespace malsched
