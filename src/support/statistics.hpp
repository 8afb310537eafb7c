#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

/// Streaming and batch descriptive statistics for experiment reporting.
namespace malsched {

/// Welford-style streaming accumulator: count / mean / stddev / min / max.
class Summary {
 public:
  /// Adds one observation.
  void add(double x) noexcept;

  /// Merges another summary into this one (for parallel accumulation).
  void merge(const Summary& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }

  /// One-line "mean +- sd [min, max] (n)" rendering for logs.
  [[nodiscard]] std::string str() const;

 private:
  std::size_t count_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
};

/// p-th percentile (p in [0, 100]) with linear interpolation; copies and sorts.
[[nodiscard]] double percentile(std::span<const double> values, double p);

/// Arithmetic mean of a batch; 0 for an empty batch.
[[nodiscard]] double mean_of(std::span<const double> values) noexcept;

}  // namespace malsched
