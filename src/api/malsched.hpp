#pragma once

/// Umbrella header for the API v2 surface -- everything a front end needs to
/// speak to the serving stack, one include:
///
///   * model/instance_handle.hpp -- interned, content-addressed identity
///     (intern once; fingerprint + static lower bound travel with the handle)
///   * registry/request.hpp            -- SolveRequest in, SolveOutcome (+ typed
///     SolveError, provenance) out
///   * registry/solver_registry.hpp    -- one-shot dispatch: registry.solve(request)
///   * api/service_config.hpp     -- ServiceConfig, the one serving-tier
///     configuration aggregate (validate() + defaults)
///   * api/scheduler_service.hpp  -- the long-lived single-shard service;
///     a closed batch is submit(requests) plus wait() on each ticket
///   * api/sharded_service.hpp    -- the N-shard scale-out tier
#include "registry/request.hpp"            // IWYU pragma: export
#include "api/scheduler_service.hpp"  // IWYU pragma: export
#include "api/service_config.hpp"     // IWYU pragma: export
#include "api/sharded_service.hpp"    // IWYU pragma: export
#include "registry/solver_registry.hpp"    // IWYU pragma: export
#include "model/instance_handle.hpp"  // IWYU pragma: export
