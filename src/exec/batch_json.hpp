#pragma once

#include <string>

#include "exec/batch_runner.hpp"
#include "support/json.hpp"

/// JSON serialization of batch outcomes -- the bridge between the execution
/// engine and machine-readable artifacts (CI uploads, determinism diffs).
///
/// Field order is fixed and every number renders deterministically (see
/// support/json.hpp), so two reports serialize to identical bytes exactly
/// when the underlying results are identical. Timing fields are the one
/// legitimately nondeterministic part of a report; `include_timing=false`
/// omits them, which is how the tests assert that an 8-thread run equals the
/// 1-thread run byte for byte.
namespace malsched {

struct BatchJsonOptions {
  /// Emit the run-condition fields that legitimately differ between runs of
  /// the same jobs: wall_seconds (run- and item-level) and the run-level
  /// thread count. Off for determinism comparisons.
  bool include_timing{true};
  /// Emit the full per-task placements of each schedule. Heavier, but turns
  /// the byte-compare into a check of the complete schedule, not just its
  /// makespan.
  bool include_schedules{false};
};

/// Writes one SolverResult as a JSON object into `writer` (which must be
/// positioned where a value is accepted).
void append_result_json(JsonWriter& writer, const SolverResult& result,
                        const BatchJsonOptions& options = {});

/// Writes one BatchItem (status, error or result) as a JSON object.
void append_item_json(JsonWriter& writer, const BatchItem& item,
                      const BatchJsonOptions& options = {});

/// The whole report as one JSON document: run tallies, aggregate solver
/// stats, and the per-item array in job order.
[[nodiscard]] std::string batch_report_json(const BatchReport& report,
                                            const BatchJsonOptions& options = {});

}  // namespace malsched
