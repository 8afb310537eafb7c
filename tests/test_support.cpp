// Unit and property tests for src/support: rng, statistics, table,
// cancel tokens, json, math utilities, word hash, radix sort.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "support/cancellation.hpp"
#include "support/json.hpp"
#include "support/math_utils.hpp"
#include "support/radix_sort.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/word_hash.hpp"

namespace malsched {
namespace {

// ---------------------------------------------------------------- math_utils

TEST(MathUtils, LeqToleratesRelativeNoise) {
  EXPECT_TRUE(leq(1.0, 1.0));
  EXPECT_TRUE(leq(1.0 + 1e-12, 1.0));
  EXPECT_FALSE(leq(1.0 + 1e-6, 1.0));
  EXPECT_TRUE(leq(0.999999999, 1.0));
}

TEST(MathUtils, LeqScalesWithMagnitude) {
  EXPECT_TRUE(leq(1e12 + 1.0, 1e12));   // 1 part in 1e12 is below tolerance
  EXPECT_FALSE(leq(1e12 * 1.001, 1e12));
}

TEST(MathUtils, GeqAndApproxEqAgreeWithLeq) {
  EXPECT_TRUE(geq(2.0, 1.0));
  EXPECT_FALSE(geq(1.0, 2.0));
  EXPECT_TRUE(approx_eq(3.0, 3.0 + 1e-13));
  EXPECT_FALSE(approx_eq(3.0, 3.01));
}

TEST(MathUtils, PaperConstantsAreConsistent) {
  EXPECT_NEAR(kSqrt3, std::sqrt(3.0), 1e-15);
  EXPECT_NEAR(kLambda + 1.0, kSqrt3, 1e-15);   // two shelves 1 + lambda
  EXPECT_NEAR(2.0 * kMu, kSqrt3, 1e-15);       // list bound 2*mu
}

// ----------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.uniform(2.5, 3.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 3.5);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2'000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, NormalHasRoughMoments) {
  Rng rng(13);
  Summary summary;
  for (int i = 0; i < 50'000; ++i) summary.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(summary.mean(), 5.0, 0.05);
  EXPECT_NEAR(summary.stddev(), 2.0, 0.05);
}

TEST(Rng, LogUniformStaysInRange) {
  Rng rng(17);
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.log_uniform(0.1, 10.0);
    EXPECT_GE(x, 0.1 * (1 - 1e-12));
    EXPECT_LE(x, 10.0 * (1 + 1e-12));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20'000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / 20'000.0, 0.3, 0.02);
}

TEST(Rng, WeightedIndexProportional) {
  Rng rng(23);
  const std::vector<double> weights{1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 20'000; ++i) ones += rng.weighted_index(weights) == 1;
  EXPECT_NEAR(static_cast<double>(ones) / 20'000.0, 0.75, 0.02);
}

TEST(Rng, PermutationIsValid) {
  Rng rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    const auto perm = rng.permutation(50);
    std::set<std::size_t> unique(perm.begin(), perm.end());
    EXPECT_EQ(unique.size(), 50u);
    EXPECT_EQ(*unique.rbegin(), 49u);
  }
}

TEST(Rng, PermutationNotIdentityUsually) {
  Rng rng(31);
  const auto perm = rng.permutation(64);
  int fixed = 0;
  for (std::size_t i = 0; i < perm.size(); ++i) fixed += perm[i] == i;
  EXPECT_LT(fixed, 10);
}

// ---------------------------------------------------------------- word_hash

TEST(WordHash, BytesEnterAsLengthThenLittleEndianWords) {
  WordHash bytes;
  bytes.add_bytes("abcdefghij");
  WordHash words;
  words.add_word(10);
  words.add_word(0x6867666564636261ull);  // "abcdefgh"
  words.add_word(0x6a69ull);              // "ij", zero-padded
  EXPECT_EQ(bytes.finish(), words.finish());

  // Every word counts, a zero word and a sign bit included.
  WordHash empty;
  WordHash zero;
  zero.add_word(0);
  EXPECT_NE(empty.finish(), zero.finish());
  WordHash positive;
  positive.add_doubles(std::vector<double>{0.0});
  WordHash negative;
  negative.add_doubles(std::vector<double>{-0.0});
  EXPECT_NE(positive.finish(), negative.finish());
}

// ------------------------------------------------------------------ summary

TEST(Summary, KnownValues) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, MergeMatchesSequential) {
  Rng rng(37);
  Summary all;
  Summary left;
  Summary right;
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.uniform(-5.0, 5.0);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Summary, MergeWithEmpty) {
  Summary a;
  a.add(1.0);
  Summary empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Summary, StrMentionsCount) {
  Summary s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_NE(s.str().find("n=2"), std::string::npos);
}

TEST(Statistics, PercentileInterpolates) {
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50.0), 2.5);
}

TEST(Statistics, PercentileHandlesEmptyAndSingle) {
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  const std::vector<double> one{3.0};
  EXPECT_DOUBLE_EQ(percentile(one, 99.0), 3.0);
}

TEST(Statistics, Means) {
  const std::vector<double> values{1.0, 4.0, 16.0};
  EXPECT_DOUBLE_EQ(mean_of(values), 7.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

// -------------------------------------------------------------------- table

TEST(Table, AlignsAndPrintsRows) {
  Table table({"algo", "ratio"});
  table.add_row({"mrt", cell(1.23, 2)});
  table.add_row({"ludwig-ffdh", cell(1.9, 2)});
  std::ostringstream out;
  table.print(out);
  const auto text = out.str();
  EXPECT_NE(text.find("algo"), std::string::npos);
  EXPECT_NE(text.find("1.23"), std::string::npos);
  EXPECT_NE(text.find("ludwig-ffdh"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, RejectsWrongArity) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(cell(1.23456, 2), "1.23");
  EXPECT_EQ(cell(7), "7");
  EXPECT_EQ(cell(static_cast<std::size_t>(9)), "9");
}

// ------------------------------------------------------------- cancel token

TEST(CancelToken, CopiedTokensShareOneFlag) {
  CancelToken token;
  const CancelToken copy = token;
  token.cancel();
  EXPECT_TRUE(copy.cancelled());
}

// --------------------------------------------------------------------- json

TEST(Json, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json_escape("utf8 \xc3\xa9 ok"), "utf8 \xc3\xa9 ok");
}

TEST(Json, WritesNestedObjectsAndArrays) {
  JsonWriter writer;
  writer.begin_object();
  writer.kv("name", "bench");
  writer.kv("count", 3);
  writer.kv("enabled", true);
  writer.key("values");
  writer.begin_array();
  writer.value(1.5);
  writer.value(false);
  writer.begin_object();
  writer.kv("nested", std::size_t{7});
  writer.end_object();
  writer.end_array();
  writer.end_object();
  EXPECT_EQ(writer.str(),
            R"({"name":"bench","count":3,"enabled":true,"values":[1.5,false,{"nested":7}]})");
}

TEST(Json, NumberRenderingIsDeterministicAndRoundTrips) {
  JsonWriter writer;
  writer.begin_array();
  writer.value(64.0);             // integral double: no fraction
  writer.value(0.1);              // needs full round-trip precision
  writer.value(-2.5);
  writer.value(std::numeric_limits<double>::infinity());  // JSON has no inf
  writer.value(std::nan(""));
  writer.end_array();
  EXPECT_EQ(writer.str(), "[64,0.10000000000000001,-2.5,null,null]");
}

TEST(Json, MisuseThrowsInsteadOfEmittingGarbage) {
  {
    JsonWriter writer;
    writer.begin_object();
    EXPECT_THROW(writer.value(1), std::logic_error);  // value without key()
  }
  {
    JsonWriter writer;
    writer.begin_array();
    EXPECT_THROW(writer.key("k"), std::logic_error);  // key inside an array
    EXPECT_THROW(writer.end_object(), std::logic_error);
    EXPECT_THROW(static_cast<void>(writer.str()), std::logic_error);  // unclosed
  }
  {
    JsonWriter writer;
    EXPECT_THROW(static_cast<void>(writer.str()), std::logic_error);  // empty
    writer.value("top-level scalar");
    EXPECT_EQ(writer.str(), "\"top-level scalar\"");
    EXPECT_THROW(writer.value(2), std::logic_error);  // second top-level value
  }
  {
    JsonWriter writer;
    EXPECT_THROW(writer.value(static_cast<const char*>(nullptr)), std::logic_error);
  }
}

// ---------------------------------------------------------------- stopwatch

TEST(Stopwatch, MeasuresNonNegativeAndResets) {
  Stopwatch sw;
  volatile double sink = 0.0;
  // Plain assignment: compound assignment to a volatile is deprecated in
  // C++20 (-Wvolatile).
  for (int i = 0; i < 100'000; ++i) sink = sink + static_cast<double>(i);
  const double first = sw.seconds();
  EXPECT_GE(first, 0.0);
  sw.reset();
  EXPECT_LE(sw.seconds(), first + 1.0);
  EXPECT_GE(sw.millis(), 0.0);
}

// ---------------------------------------------------------------- radix sort

/// The permutation std::stable_sort gives `values` under `before`, starting
/// from index order: the reference the kernel must reproduce.
template <class Before>
std::vector<int> stable_order(const std::vector<double>& values, Before before) {
  std::vector<int> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return before(values[static_cast<std::size_t>(a)], values[static_cast<std::size_t>(b)]);
  });
  return order;
}

/// The kernel's order of `values`, increasing or decreasing.
std::vector<int> kernel_order(const std::vector<double>& values, bool descending) {
  const std::size_t n = values.size();
  std::vector<KeyedIndex> entries(n);
  std::vector<KeyedIndex> scratch(n);
  for (std::size_t i = 0; i < n; ++i) {
    entries[i] = {descending ? descending_key(values[i]) : ascending_key(values[i]),
                  static_cast<int>(i)};
  }
  sort_by_key(entries, scratch);
  std::vector<int> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = entries[i].index;
  return order;
}

/// Key sets that stress the kernel: ties (all equal, long runs, a few
/// repeated values), the two zeros, subnormals, the extremes, keys that
/// differ in one byte only, and a wide mix of signs and exponents.
std::vector<std::vector<double>> radix_key_sets(std::size_t n, Rng& rng) {
  constexpr double kMax = DBL_MAX;
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto fill = [&](auto draw) {
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = draw(i);
    return values;
  };
  const auto pick = [&](std::initializer_list<double> pool) {
    return *(pool.begin() + rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
  };
  return {
      fill([](std::size_t) { return 3.5; }),
      fill([](std::size_t i) { return static_cast<double>((i / 37) % 5) - 2.0; }),
      fill([&](std::size_t) { return pick({0.25, 1.5, 1.5, 7.0}); }),
      fill([&](std::size_t) { return pick({-0.0, 0.0, -1.0, 1.0}); }),
      fill([&](std::size_t) {
        return pick({0.0, -0.0, kTiny, -kTiny, 2 * kTiny, DBL_MIN, DBL_MIN - kTiny,
                     -(DBL_MIN - kTiny), 1e-310, -1e-310});
      }),
      fill([&](std::size_t) {
        return pick({kMax, -kMax, std::nextafter(kMax, 0.0), 0.0, 1.0, -1.0, kInf, -kInf});
      }),
      fill([&](std::size_t) { return kTiny * static_cast<double>(rng.uniform_int(0, 255)); }),
      fill([&](std::size_t) {
        const auto exponent = static_cast<int>(rng.uniform_int(-1074, 1023));
        const double magnitude = std::ldexp(rng.uniform(1.0, 2.0), exponent);
        return rng.uniform_int(0, 1) == 0 ? magnitude : -magnitude;
      }),
      fill([&](std::size_t) { return rng.uniform(0.5, 8.0); }),
  };
}

TEST(RadixSort, MatchesStableSortInBothDirections) {
  Rng rng(1999);
  const std::size_t cutoff = kRadixSortCutoff;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}, cutoff - 1, cutoff,
                              cutoff + 1, std::size_t{5000}}) {
    const auto key_sets = radix_key_sets(n, rng);
    for (std::size_t set = 0; set < key_sets.size(); ++set) {
      const auto& values = key_sets[set];
      EXPECT_EQ(kernel_order(values, false), stable_order(values, std::less<>{}))
          << "increasing, n " << n << ", key set " << set;
      EXPECT_EQ(kernel_order(values, true), stable_order(values, std::greater<>{}))
          << "decreasing, n " << n << ", key set " << set;
    }
  }
}

TEST(RadixSort, KeysFoldTheZerosAndKeepTheOrderOfDoubles) {
  EXPECT_EQ(ascending_key(-0.0), ascending_key(0.0));
  EXPECT_EQ(descending_key(-0.0), descending_key(0.0));
  const std::vector<double> increasing{-std::numeric_limits<double>::infinity(),
                                       -DBL_MAX,
                                       -1.0,
                                       -std::numeric_limits<double>::denorm_min(),
                                       0.0,
                                       std::numeric_limits<double>::denorm_min(),
                                       DBL_MIN,
                                       1.0,
                                       DBL_MAX,
                                       std::numeric_limits<double>::infinity()};
  for (std::size_t i = 1; i < increasing.size(); ++i) {
    EXPECT_LT(ascending_key(increasing[i - 1]), ascending_key(increasing[i])) << i;
    EXPECT_GT(descending_key(increasing[i - 1]), descending_key(increasing[i])) << i;
  }
}

}  // namespace
}  // namespace malsched
