#pragma once

/// JSON serialization of ServiceStats: bench_load's run-level
/// `service_stats` object (validated by bench/bench_schema.json). Every
/// ServiceStats field must be emitted here: the repo linter's
/// stats-exhaustive rule cross-references the struct against this body,
/// accumulate_stats(), and the schema -- adding a counter without
/// serializing it fails CI.

#include "api/scheduler_service.hpp"
#include "support/json.hpp"

namespace malsched {

/// Writes `{ "submitted": ..., ... }` as one JSON object value. The caller
/// has already written the key (`json.key("service_stats")`).
void write_service_stats(JsonWriter& json, const ServiceStats& stats);

}  // namespace malsched
