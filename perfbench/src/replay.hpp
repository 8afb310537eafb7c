#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/mrt_scheduler.hpp"
#include "model/instance_handle.hpp"
#include "spans.hpp"
#include "workloads.hpp"

/// Solver-layer attribution from outside the program.
///
/// replay_solve() traces one mrt solve through public calls only:
///   * `registry.solve` and `core.mrt_schedule` time the whole solve through
///     the registry and directly (their difference is the registry layer);
///   * `core.index_build` times the DualWorkspace construction;
///   * `core.dual_search` runs dual_search with a step that times
///     mrt_dual_step (`core.mrt_dual_step`) and then, at the same guess,
///     repeats the step's public calls in the step's own order on a second
///     workspace (`bench.replay_step` with children `core.canonical`,
///     `core.certify`, `core.area`, `core.two_shelf`, `core.canonical_list`,
///     `core.malleable_list`, `sched.compact`, `sched.validate`), stopping
///     where the real step stopped;
///   * a final `sched.validate` repeats the registry's closing check.
/// The replay must land on the real step's branch and makespan at every
/// guess; a divergence is counted, never hidden.
///
/// This file is the only part of the benchmark that knows the dual step's
/// internals. It is built into perfbench_traced and the self-test only, never
/// into the untraced perfbench, so a change to core internals can break the
/// replay but not the end-to-end numbers.
namespace perfbench {

struct ReplayTotals {
  std::uint64_t solves{0};
  std::uint64_t steps{0};
  std::uint64_t divergences{0};
  std::uint64_t gaps{0};  ///< the registry result's `gaps` stat, summed
  std::array<std::uint64_t, malsched::kDualBranchCount> branches{};
  double step_seconds{0.0};           ///< sum of real mrt_dual_step spans
  double replayed_call_seconds{0.0};  ///< sum of the replayed calls' spans
};

/// Replays one default-option mrt solve of `handle` under a root span
/// `bench.solve` tagged `request`.
void replay_solve(const malsched::InstanceHandle& handle, std::uint64_t request, SpanLog& log,
                  ReplayTotals& totals);

/// Replays one mrt solve of every handle single-threaded and sets the
/// solver-layer metrics (core.*, sched.*, registry.*, bench.replay_*). The
/// spans are appended to `log`.
void add_solver_layers(LayerMetrics& layers, const std::vector<malsched::InstanceHandle>& handles,
                       SpanLog& log);

}  // namespace perfbench
