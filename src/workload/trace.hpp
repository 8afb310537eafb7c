#pragma once

#include <cstdint>

#include "model/instance.hpp"

/// Synthetic moldable-job batch traces.
///
/// HPC schedulers face queue snapshots of jobs whose requested width is
/// negotiable -- exactly the malleable model. Real traces (e.g. parallel
/// workload archives) carry proprietary metadata, so we synthesize jobs with
/// the standard empirical shape: log-normal sequential demand and a
/// Downey-style speedup that saturates at a per-job maximum parallelism A
/// (profile flat beyond A).
namespace malsched {

struct TraceOptions {
  int machines{128};
  int jobs{80};
  double median_seq_hours{1.0};  ///< median sequential demand (arbitrary unit)
  double sigma{1.2};             ///< log-normal spread
  int max_parallelism_cap{0};    ///< 0 = machines
};

/// One queue snapshot as a malleable instance.
[[nodiscard]] Instance trace_snapshot(const TraceOptions& options, std::uint64_t seed);

}  // namespace malsched
