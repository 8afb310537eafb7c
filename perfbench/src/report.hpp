#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "registry/solver_result.hpp"
#include "support/statistics.hpp"

/// What every workload shares: exact order statistics over raw samples, the
/// answer gates and digest, the host stamp, and the result line. Medians and
/// means come from the library (malsched::percentile(v, 50), mean_of), which
/// this header brings in; the nearest-rank order statistic is defined here.
namespace perfbench {

/// The workload this process was asked to run.
struct RunContext {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
  std::string rev;
  std::string source_digest;
  /// Where the traced run writes its spans; empty = keep them in memory.
  std::string trace_dir;
};

// ------------------------------------------------------------- statistics

/// Exact order statistic at quantile `q` in (0, 1] by nearest rank: the
/// ceil(q*n)-th smallest sample. 0 for no samples.
[[nodiscard]] double order_statistic(std::vector<double> samples, double q);

/// Samples that lie strictly after the nearest-rank position of `q`.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Seconds on the steady clock since the process started.
[[nodiscard]] double process_seconds();

// ------------------------------------------------------------ correctness

/// The part of a solve the gates look at. A reference is the answer of the
/// single-threaded reference solve of the same instance.
struct Answer {
  double makespan{0.0};
  double lower_bound{0.0};
  double ratio{0.0};
  double gaps{0.0};  ///< the mrt `gaps` stat
};
using Reference = Answer;

[[nodiscard]] Answer answer_of(const malsched::SolverResult& result);

/// Gates every OK answer: byte-equal to its reference (makespan, lower bound,
/// ratio), certified lower bound <= makespan, mrt ratio <= sqrt(3)(1+eps) at
/// the default eps, and a zero `gaps` stat. Also digests the answers in the
/// order they are checked.
class AnswerGate {
 public:
  /// Checks a reference solve itself (bound, ratio, gaps), counting it as
  /// one checked answer, and returns it.
  [[nodiscard]] Reference reference(const Answer& answer);

  /// Checks one answer against its reference; false (and counted) on any
  /// violation.
  bool check(const Answer& answer, const Reference& expected);

  /// Counts a request that failed outright (error, rejection, missing
  /// outcome) as a violation.
  void fail(const std::string& why);

  /// Merges another gate's counts and folds its digest into this one.
  void merge(const AnswerGate& other);

  /// Answers checked (references included) and how many of them violated a
  /// gate; an answer counts once however many gates it broke.
  [[nodiscard]] std::uint64_t checked() const noexcept { return checked_; }
  [[nodiscard]] std::uint64_t violations() const noexcept { return violations_; }
  [[nodiscard]] std::string digest_hex() const;
  [[nodiscard]] const std::vector<std::string>& messages() const noexcept { return messages_; }

  /// sqrt(3)*(1+0.01): the mrt guarantee at the registry's default epsilon.
  static constexpr double kRatioLimit = 1.7320508075688772 * 1.01;

 private:
  bool gate(const Answer& answer, const std::string& what);
  void note(std::string message);

  std::uint64_t checked_{0};
  std::uint64_t violations_{0};
  std::uint64_t hash_{14695981039346656037ull};
  std::vector<std::string> messages_;
};

// ----------------------------------------------------------------- report

/// The metrics of one run, printed by name with unit and sample count, then
/// as the final JSON line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples);

  /// Human-readable line to stdout, prefixed so it never looks like the
  /// result line.
  static void note(const std::string& line);

  /// Prints the host/seed stamp.
  static void stamp(const RunContext& context);

  /// Prints every metric, then the JSON result line. Returns the exit code:
  /// 0 when `failed` is 0, 1 otherwise.
  int finish(std::uint64_t attempted, std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value{0.0};
    std::string unit;
    std::size_t samples{0};
  };
  std::vector<Metric> metrics_;
};

/// printf-style formatting into a std::string.
[[nodiscard]] std::string format(const char* pattern, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
