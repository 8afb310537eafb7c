#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/sharded_service.hpp"
#include "model/instance_handle.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "speed.hpp"

/// The three workloads and what they share: set-up repetition, the latency
/// limit, and the per-layer metric table.
namespace perfbench {

/// Each runs one workload and returns the exit code. Their traced branches
/// are compiled only with PERFBENCH_TRACED (the perfbench_traced program).
int run_solve_large(const RunContext& context);
int run_serve_poisson(const RunContext& context);
int run_serve_hot(const RunContext& context);

/// Set-up is repeated this many times per run and reported as the median.
inline constexpr int kSetupRepeats = 3;

/// Runs `build` (returning a std::unique_ptr) kSetupRepeats times, freeing
/// each set-up before the next starts so interning and service start-up
/// begin cold; appends each duration, scaled to the reference host by the
/// speed `meter` reads around it, to `seconds` and keeps the last set-up.
template <class Build>
auto repeated_setup(Build build, SpeedMeter& meter, std::vector<double>& seconds) {
  decltype(build()) kept;
  for (int r = 0; r < kSetupRepeats; ++r) {
    kept.reset();
    double elapsed = 0.0;
    const double speed = speed_around(meter, [&] {
      const double start = process_seconds();
      kept = build();
      elapsed = process_seconds() - start;
    });
    seconds.push_back(elapsed * speed);
    Report::note(format("set-up %d: %.3f s at host speed %.3f", r, elapsed, speed));
  }
  return kept;
}

/// The latency limit slo_qps is judged against (p99, seconds).
inline constexpr double kSloSeconds = 0.100;

/// Closed-loop slo_qps: the completion rate when the run's p99 meets the
/// limit and nothing failed, else 0.
[[nodiscard]] inline double closed_loop_slo_qps(double throughput_rps, double p99_seconds,
                                                std::uint64_t failed) {
  return p99_seconds <= kSloSeconds && failed == 0 ? throughput_rps : 0.0;
}

/// Interns `instance`, appending the call's duration in seconds.
[[nodiscard]] inline malsched::InstanceHandle timed_intern(malsched::Instance instance,
                                                           std::vector<double>& seconds) {
  const double start = process_seconds();
  auto handle = malsched::InstanceHandle::intern(std::move(instance));
  seconds.push_back(process_seconds() - start);
  return handle;
}

// The rest is defined in layers.cpp, which only perfbench_traced and the
// self-test link.

/// Max over mean of the per-shard `submitted` counters (1 when balanced).
[[nodiscard]] double shard_skew(const malsched::ShardedServiceStats& stats);

/// The per-layer metrics of a traced run, always printed in full and in a
/// fixed order; a layer the workload does not exercise reads 0.
class LayerMetrics {
 public:
  /// Throws std::logic_error on a name outside the table.
  void set(const std::string& name, double value, std::size_t samples);
  void emit(Report& report) const;

 private:
  std::map<std::string, std::pair<double, std::size_t>> values_;
};

/// Nearest-rank p50 and p99 of `seconds` samples, set as `<prefix>_p50` and
/// `<prefix>_p99` scaled to `unit` ("ms" or "us"). The p99 is a plain order
/// statistic here: per-layer figures carry no sample-count rule.
void set_latency_pair(LayerMetrics& layers, const std::string& prefix,
                      const std::vector<double>& seconds, const std::string& unit);

/// Checks span additivity, prints it, and writes the spans to
/// `<trace_dir>/<workload>.csv` when the context names a directory.
void finish_trace(const SpanLog& log, const RunContext& context);

}  // namespace perfbench
