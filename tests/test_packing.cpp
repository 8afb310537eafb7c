// Tests for src/packing: First Fit with deadlines, shelf allocation, and the
// level strip-packing algorithms used by the baselines.

#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "packing/first_fit.hpp"
#include "packing/shelf.hpp"
#include "packing/strip_packing.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"

namespace malsched {
namespace {

// ---------------------------------------------------------------- first fit

/// First Fit into a fresh packing.
BinPacking pack_first_fit(std::span<const double> sizes, double capacity) {
  BinPacking packing;
  first_fit_into(sizes, capacity, packing);
  return packing;
}

TEST(FirstFit, PacksKnownExample) {
  // capacity 1: {0.6, 0.5, 0.4, 0.3} -> FF bins {0.6,0.4}, {0.5,0.3}? No:
  // FF puts 0.5 into a new bin, 0.4 joins 0.6's bin (1.0), 0.3 joins 0.5's.
  const std::vector<double> sizes{0.6, 0.5, 0.4, 0.3};
  const auto packing = pack_first_fit(sizes, 1.0);
  EXPECT_EQ(packing.bin_count(), 2);
  EXPECT_NEAR(packing.loads[0], 1.0, 1e-12);
  EXPECT_NEAR(packing.loads[1], 0.8, 1e-12);
}

TEST(FirstFit, RespectsCapacity) {
  Rng rng(404);
  for (int trial = 0; trial < 100; ++trial) {
    const double capacity = rng.uniform(0.5, 2.0);
    std::vector<double> sizes(static_cast<std::size_t>(rng.uniform_int(1, 60)));
    for (auto& s : sizes) s = rng.uniform(0.01, capacity);
    const auto packing = pack_first_fit(sizes, capacity);
    for (const double load : packing.loads) EXPECT_TRUE(leq(load, capacity));
    // Every item placed exactly once.
    std::size_t placed = 0;
    for (const auto& bin : packing.bins) placed += bin.size();
    EXPECT_EQ(placed, sizes.size());
  }
}

TEST(FirstFit, OversizedItemThrows) {
  EXPECT_THROW(pack_first_fit(std::vector<double>{1.5}, 1.0), std::invalid_argument);
  EXPECT_THROW(pack_first_fit(std::vector<double>{0.0}, 1.0), std::invalid_argument);
}

TEST(FirstFit, HalfFullPropertyThePaperReliesOn) {
  // (paper Section 4.1: if FF(S,d) > 1 the total size exceeds d*(k-1)/2)
  Rng rng(405);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> sizes(static_cast<std::size_t>(rng.uniform_int(1, 40)));
    for (auto& s : sizes) s = rng.uniform(0.05, 1.0);
    const auto packing = pack_first_fit(sizes, 1.0);
    EXPECT_TRUE(first_fit_half_full_bound(packing, 1.0));
  }
}

TEST(FirstFitDecreasing, NeverWorseOnSeedSweep) {
  // FFD is not pointwise better than FF in general, but both must be valid;
  // check validity and that FFD meets the same half-full property.
  Rng rng(406);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> sizes(static_cast<std::size_t>(rng.uniform_int(1, 40)));
    for (auto& s : sizes) s = rng.uniform(0.05, 1.0);
    const auto ffd = first_fit_decreasing(sizes, 1.0);
    for (const double load : ffd.loads) EXPECT_TRUE(leq(load, 1.0));
    std::size_t placed = 0;
    for (const auto& bin : ffd.bins) placed += bin.size();
    EXPECT_EQ(placed, sizes.size());
  }
}

TEST(FirstFitDecreasing, PacksKnownExampleInFewerBinsThanFirstFit) {
  // The sizes sum to 30 at capacity 10. In the given order First Fit opens
  // four bins; sorted decreasing (8 7 5 4 3 2 1) every bin fills exactly.
  const std::vector<double> sizes{2, 5, 4, 7, 1, 3, 8};
  EXPECT_EQ(pack_first_fit(sizes, 10.0).bin_count(), 4);
  const auto packing = first_fit_decreasing(sizes, 10.0);
  ASSERT_EQ(packing.bin_count(), 3);
  EXPECT_EQ(packing.bins[0], (std::vector<int>{6, 0}));
  EXPECT_EQ(packing.bins[1], (std::vector<int>{3, 5}));
  EXPECT_EQ(packing.bins[2], (std::vector<int>{1, 2, 4}));
  for (const double load : packing.loads) EXPECT_DOUBLE_EQ(load, 10.0);
}

TEST(FirstFitDecreasing, BinsHoldOriginalIndicesAndMeetTheHalfFullBound) {
  Rng rng(407);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> sizes(static_cast<std::size_t>(rng.uniform_int(1, 40)));
    for (auto& s : sizes) s = rng.uniform(0.05, 1.0);
    const auto packing = first_fit_decreasing(sizes, 1.0);
    std::vector<int> placed(sizes.size(), 0);
    for (int b = 0; b < packing.bin_count(); ++b) {
      double load = 0.0;
      for (const int i : packing.bins[static_cast<std::size_t>(b)]) {
        ++placed[static_cast<std::size_t>(i)];
        load += sizes[static_cast<std::size_t>(i)];
      }
      EXPECT_NEAR(load, packing.loads[static_cast<std::size_t>(b)], 1e-9);
    }
    for (const int count : placed) EXPECT_EQ(count, 1);
    EXPECT_TRUE(first_fit_half_full_bound(packing, 1.0));
  }
}

TEST(FirstFitDecreasing, OversizedItemThrows) {
  EXPECT_THROW(first_fit_decreasing(std::vector<double>{0.5, 1.5}, 1.0), std::invalid_argument);
  EXPECT_THROW(first_fit_decreasing(std::vector<double>{0.0}, 1.0), std::invalid_argument);
}

TEST(FirstFit, BinCountMatchesPacking) {
  // One loads buffer serves every count, and each count is the packing's.
  std::vector<double> loads;
  EXPECT_EQ(first_fit_bin_count(std::vector<double>{0.9, 0.9, 0.9}, 1.0, loads), 3);
  Rng rng(408);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> sizes(static_cast<std::size_t>(rng.uniform_int(1, 40)));
    for (auto& s : sizes) s = rng.uniform(0.05, 1.0);
    EXPECT_EQ(first_fit_bin_count(sizes, 1.0, loads), pack_first_fit(sizes, 1.0).bin_count());
  }
}

// -------------------------------------------------------------------- shelf

TEST(ShelfAllocator, HandsOutContiguousIntervals) {
  ShelfAllocator shelf(10);
  EXPECT_EQ(shelf.allocate(4).value(), 0);
  EXPECT_EQ(shelf.allocate(3).value(), 4);
  EXPECT_EQ(shelf.used(), 7);
  EXPECT_EQ(shelf.remaining(), 3);
  EXPECT_FALSE(shelf.allocate(4).has_value());
  EXPECT_EQ(shelf.allocate(3).value(), 7);
  EXPECT_FALSE(shelf.allocate(1).has_value());
}

TEST(ShelfAllocator, RejectsNonPositiveWidth) {
  ShelfAllocator shelf(4);
  EXPECT_FALSE(shelf.allocate(0).has_value());
  EXPECT_FALSE(shelf.allocate(-2).has_value());
}

// ----------------------------------------------------------- strip packing

class StripPackingTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(StripPackingTest, NfdhAndFfdhProduceValidPackings) {
  const auto [seed, count, width] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<Rect> rects(static_cast<std::size_t>(count));
  for (auto& rect : rects) {
    rect.width = static_cast<int>(rng.uniform_int(1, width));
    rect.height = rng.uniform(0.1, 4.0);
  }
  for (const auto* name : {"nfdh", "ffdh"}) {
    const auto packing =
        name[0] == 'n' ? nfdh(rects, width) : ffdh(rects, width);
    EXPECT_TRUE(is_valid_packing(packing, rects, width)) << name;
    EXPECT_EQ(packing.placements.size(), rects.size()) << name;

    // Classical level-algorithm quality: height <= 2*area/W + hmax.
    double area = 0.0;
    double hmax = 0.0;
    for (const auto& rect : rects) {
      area += static_cast<double>(rect.width) * rect.height;
      hmax = std::max(hmax, rect.height);
    }
    EXPECT_TRUE(leq(packing.height, 2.0 * area / width + hmax + 1e-9)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRects, StripPackingTest,
                         ::testing::Values(std::tuple{1, 1, 4}, std::tuple{2, 10, 4},
                                           std::tuple{3, 30, 8}, std::tuple{4, 80, 16},
                                           std::tuple{5, 50, 5}, std::tuple{6, 120, 32},
                                           std::tuple{7, 25, 3}, std::tuple{8, 60, 64}));

TEST(StripPacking, FfdhNeverTallerThanNfdhOnSweep) {
  // FFDH reuses earlier levels, so its height is at most NFDH's.
  Rng rng(501);
  for (int trial = 0; trial < 60; ++trial) {
    const int width = static_cast<int>(rng.uniform_int(2, 24));
    std::vector<Rect> rects(static_cast<std::size_t>(rng.uniform_int(1, 70)));
    for (auto& rect : rects) {
      rect.width = static_cast<int>(rng.uniform_int(1, width));
      rect.height = rng.uniform(0.05, 3.0);
    }
    EXPECT_TRUE(leq(ffdh(rects, width).height, nfdh(rects, width).height));
  }
}

TEST(StripPacking, SingleRectangle) {
  const std::vector<Rect> rects{{3, 2.0}};
  const auto packing = nfdh(rects, 4);
  EXPECT_DOUBLE_EQ(packing.height, 2.0);
  EXPECT_EQ(packing.levels, 1);
  EXPECT_EQ(packing.placements[0].x, 0);
  EXPECT_DOUBLE_EQ(packing.placements[0].y, 0.0);
}

TEST(StripPacking, RejectsOversizedRectangles) {
  const std::vector<Rect> wide{{5, 1.0}};
  EXPECT_THROW(nfdh(wide, 4), std::invalid_argument);
  const std::vector<Rect> flat{{1, 0.0}};
  EXPECT_THROW(ffdh(flat, 4), std::invalid_argument);
}

TEST(StripPacking, ValidityCheckerCatchesOverlap) {
  const std::vector<Rect> rects{{2, 1.0}, {2, 1.0}};
  StripPacking bogus;
  bogus.placements = {{0, 0, 0.0}, {1, 1, 0.5}};  // overlaps on column 1
  bogus.height = 2.0;
  EXPECT_FALSE(is_valid_packing(bogus, rects, 4));
}

}  // namespace
}  // namespace malsched
