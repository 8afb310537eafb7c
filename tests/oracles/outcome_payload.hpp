#pragma once

#include <string>

#include "registry/request.hpp"
#include "registry/solver_registry.hpp"

/// The payload of a SolveOutcome as text, for the determinism tests that
/// check the serving tier against serial SolverRegistry::solve calls. Test
/// helper, built only with the tests.
///
/// The payload is the status, the error code and detail, and for a result
/// its solver, makespan, lower bound, ratio, every stat in order, and every
/// assignment (start, duration, processor interval). Doubles
/// render as their 64-bit patterns, so two payloads are equal exactly when
/// every double matches bit for bit. Wall times and provenance (ticket,
/// worker, shard, cache hit, dedup join, fast path, fallback) are left out:
/// they describe how an answer was served, not the answer.
namespace malsched {

[[nodiscard]] std::string outcome_payload(const SolveOutcome& outcome);

/// The payload `request` gets from one serial
/// `SolverRegistry::global().solve(request)`: the result, or the thrown
/// exception classified as the service classifies it
/// (classify_solve_exception).
[[nodiscard]] std::string serial_payload(const SolveRequest& request);

}  // namespace malsched
