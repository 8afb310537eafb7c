// Tests for the open-loop load-generation primitives: workload/arrivals
// (seeded Poisson / bursty / diurnal traces) and
// support/latency_histogram (lock-free log-bucketed percentiles).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/json.hpp"
#include "support/latency_histogram.hpp"
#include "workload/arrivals.hpp"

namespace malsched {
namespace {

// ------------------------------------------------------------- arrivals

TEST(Arrivals, DeterministicPerSeed) {
  for (const auto process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty, ArrivalProcess::kDiurnal}) {
    ArrivalOptions options;
    options.process = process;
    options.rate_per_second = 500.0;
    options.duration_seconds = 2.0;
    const auto a = generate_arrivals(options, 42);
    const auto b = generate_arrivals(options, 42);
    const auto c = generate_arrivals(options, 43);
    ASSERT_EQ(a.size(), b.size()) << to_string(process);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << to_string(process) << " diverges at arrival " << i;
    }
    EXPECT_NE(a, c) << to_string(process) << " ignores the seed";
  }
}

TEST(Arrivals, SortedWithinHorizonAndNearMeanRate) {
  for (const auto process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty, ArrivalProcess::kDiurnal}) {
    ArrivalOptions options;
    options.process = process;
    options.rate_per_second = 1000.0;
    options.duration_seconds = 4.0;
    const auto arrivals = generate_arrivals(options, 7);
    EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end())) << to_string(process);
    ASSERT_FALSE(arrivals.empty()) << to_string(process);
    EXPECT_GE(arrivals.front(), 0.0) << to_string(process);
    EXPECT_LT(arrivals.back(), options.duration_seconds) << to_string(process);
    // All three processes share the same long-run mean; 4000 expected
    // arrivals has a relative sigma under 2% for Poisson, somewhat more for
    // the modulated shapes -- 25% slack is far outside noise yet catches a
    // rate off by a factor.
    const double expected = options.rate_per_second * options.duration_seconds;
    EXPECT_GT(static_cast<double>(arrivals.size()), 0.75 * expected) << to_string(process);
    EXPECT_LT(static_cast<double>(arrivals.size()), 1.25 * expected) << to_string(process);
  }
}

TEST(Arrivals, MaxArrivalsCaps) {
  ArrivalOptions options;
  options.rate_per_second = 10000.0;
  options.duration_seconds = 1.0;
  options.max_arrivals = 50;
  EXPECT_EQ(generate_arrivals(options, 3).size(), 50u);
}

TEST(Arrivals, BurstyIsBurstierThanPoisson) {
  // Count arrivals in 10 ms windows: the on-off process must show a heavier
  // busiest window than memoryless arrivals at the same mean rate.
  const auto busiest_window = [](const std::vector<double>& arrivals) {
    std::vector<int> per_window(400, 0);
    for (const double t : arrivals) {
      const auto w = static_cast<std::size_t>(t / 0.01);
      if (w < per_window.size()) ++per_window[w];
    }
    return *std::max_element(per_window.begin(), per_window.end());
  };
  ArrivalOptions options;
  options.rate_per_second = 2000.0;
  options.duration_seconds = 4.0;
  options.process = ArrivalProcess::kPoisson;
  const int poisson_peak = busiest_window(generate_arrivals(options, 11));
  options.process = ArrivalProcess::kBursty;
  options.burst_factor = 8.0;
  options.on_fraction = 0.1;  // product 0.8: ON phases run at 8x the mean
  const int bursty_peak = busiest_window(generate_arrivals(options, 11));
  // Even against Poisson fluctuation the busiest window must be clearly
  // heavier when a tenth of the time carries 8x the rate.
  EXPECT_GT(bursty_peak, 2 * poisson_peak);
}

TEST(Arrivals, DiurnalFollowsTheRateCurve) {
  ArrivalOptions options;
  options.process = ArrivalProcess::kDiurnal;
  options.rate_per_second = 4000.0;
  options.duration_seconds = 1.0;  // exactly one period
  options.diurnal_amplitude = 0.8;
  const auto arrivals = generate_arrivals(options, 5);
  // First half-period: rate = mean * (1 + 0.8 sin), sin >= 0 -> above mean.
  // Second half: below mean. With amplitude 0.8 the halves split roughly
  // (1 + 2*0.8/pi) : (1 - 2*0.8/pi) ~ 1.51 : 0.49.
  const auto split = std::lower_bound(arrivals.begin(), arrivals.end(), 0.5);
  const auto first_half = static_cast<double>(split - arrivals.begin());
  const auto second_half = static_cast<double>(arrivals.end() - split);
  EXPECT_GT(first_half, 2.0 * second_half);
}

TEST(Arrivals, ValidateListsEveryViolation) {
  ArrivalOptions options;
  options.rate_per_second = -1.0;
  options.duration_seconds = 0.0;
  options.process = ArrivalProcess::kBursty;
  options.burst_factor = 0.5;   // < 1
  options.on_fraction = 1.5;    // outside (0, 1)
  const auto violations = options.validate();
  EXPECT_GE(violations.size(), 4u);
  EXPECT_THROW((void)generate_arrivals(options, 1), std::invalid_argument);
}

TEST(Arrivals, BurstFactorTimesOnFractionMustNotExceedOne) {
  ArrivalOptions options;
  options.process = ArrivalProcess::kBursty;
  options.on_fraction = 0.5;
  options.burst_factor = 4.0;  // product 2.0 > 1: the OFF rate would be negative
  EXPECT_FALSE(options.validate().empty());
  options.burst_factor = 2.0;  // product exactly 1.0: OFF rate 0, valid
  EXPECT_TRUE(options.validate().empty());
}

TEST(Arrivals, RoundTripNames) {
  for (const auto process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty, ArrivalProcess::kDiurnal}) {
    EXPECT_EQ(arrival_process_from_string(to_string(process)), process);
  }
  EXPECT_THROW((void)arrival_process_from_string("uniform"), std::invalid_argument);
}

// ------------------------------------------------------------- histogram

TEST(LatencyHistogram, QuantilesLandInTheRightBucket) {
  LatencyHistogram histogram;
  // 90 samples at ~1 ms, 9 at ~100 ms, 1 at ~1 s: p50/p95 -> the 1 ms and
  // 100 ms buckets, p999 -> the 1 s bucket.
  for (int i = 0; i < 90; ++i) histogram.record(1e-3);
  for (int i = 0; i < 9; ++i) histogram.record(0.1);
  histogram.record(1.0);
  EXPECT_EQ(histogram.count(), 100u);
  EXPECT_EQ(histogram.max_seconds(), 1.0);
  // The reported edge overestimates by at most one bucket ratio (~15.5%).
  EXPECT_GE(histogram.quantile(0.5), 1e-3);
  EXPECT_LT(histogram.quantile(0.5), 1e-3 * 1.2);
  EXPECT_GE(histogram.quantile(0.95), 0.1);
  EXPECT_LT(histogram.quantile(0.95), 0.1 * 1.2);
  EXPECT_GE(histogram.quantile(0.999), 1.0);
  EXPECT_LT(histogram.quantile(0.999), 1.2);
}

TEST(LatencyHistogram, UnderflowOverflowAndEmpty) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.quantile(0.5), 0.0);  // empty
  histogram.record(-1.0);          // negative -> underflow, max untouched
  histogram.record(std::nan(""));  // NaN -> underflow
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_EQ(histogram.max_seconds(), 0.0);
  histogram.record(1e-9);  // positive but below kMinSeconds: underflow, yet the max sees it
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.max_seconds(), 1e-9);
  EXPECT_EQ(histogram.quantile(0.5), LatencyHistogram::kMinSeconds);
  histogram.record(5000.0);  // beyond the last decade -> overflow bucket
  EXPECT_EQ(histogram.quantile(1.0), 5000.0);  // overflow reports the max
  EXPECT_EQ(histogram.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
}

TEST(LatencyHistogram, MergeIsBucketwiseAddition) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 10; ++i) a.record(1e-3);
  for (int i = 0; i < 5; ++i) b.record(0.5);
  a.merge(b);
  EXPECT_EQ(a.count(), 15u);
  EXPECT_EQ(a.max_seconds(), 0.5);
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (a.bucket_count(i) == 0) continue;
    // Every non-empty bucket of the merge is one of the two inputs' buckets.
    EXPECT_TRUE(a.bucket_count(i) == 10u || a.bucket_count(i) == 5u);
  }
}

TEST(LatencyHistogram, ConcurrentRecordLosesNothing) {
  LatencyHistogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.record(1e-4 * static_cast<double>(1 + ((t + i) % 7)));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram.max_seconds(), 7e-4);
}

TEST(LatencyHistogram, BucketEdgesAreGeometric) {
  // Edges must grow by exactly 10^(1/16) per bucket across each decade; the
  // JSON report and bucket_index share this table, so spot-check it.
  const double ratio = std::pow(10.0, 1.0 / LatencyHistogram::kBucketsPerDecade);
  for (int i = 1; i + 2 < LatencyHistogram::kBuckets; ++i) {
    const double edge = LatencyHistogram::bucket_upper_edge(i);
    const double next = LatencyHistogram::bucket_upper_edge(i + 1);
    EXPECT_NEAR(next / edge, ratio, 1e-9) << "bucket " << i;
  }
  EXPECT_EQ(LatencyHistogram::bucket_upper_edge(0), LatencyHistogram::kMinSeconds);
  EXPECT_TRUE(std::isinf(LatencyHistogram::bucket_upper_edge(LatencyHistogram::kBuckets - 1)));
}

TEST(LatencyHistogram, WriteJsonEmitsPercentilesAndSparseBuckets) {
  LatencyHistogram histogram;
  for (int i = 0; i < 100; ++i) histogram.record(2e-3);
  histogram.record(5000.0);  // overflow: its edge must render as null
  JsonWriter json;
  json.begin_object();
  json.key("latency_histogram");
  histogram.write_json(json);
  json.end_object();
  const std::string& text = json.str();
  EXPECT_NE(text.find("\"count\":101"), std::string::npos) << text;
  EXPECT_NE(text.find("\"p50_seconds\""), std::string::npos);
  EXPECT_NE(text.find("\"p999_seconds\""), std::string::npos);
  EXPECT_NE(text.find("\"upper_seconds\":null"), std::string::npos) << text;
  // Sparse: two non-empty buckets -> exactly two bucket objects.
  std::size_t buckets = 0;
  for (std::size_t at = text.find("\"upper_seconds\""); at != std::string::npos;
       at = text.find("\"upper_seconds\"", at + 1)) {
    ++buckets;
  }
  EXPECT_EQ(buckets, 2u);
}

}  // namespace
}  // namespace malsched
