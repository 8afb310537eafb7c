#include "replay.hpp"

#include <optional>
#include <utility>

#include "core/canonical.hpp"
#include "core/dual_workspace.hpp"
#include "core/malleable_list.hpp"
#include "packing/shelf.hpp"
#include "registry/solver_registry.hpp"
#include "sched/compaction.hpp"
#include "sched/validate.hpp"
#include "support/math_utils.hpp"

namespace perfbench {

using malsched::CanonicalAllotment;
using malsched::DualBranch;
using malsched::DualWorkspace;
using malsched::Instance;
using malsched::MrtOptions;
using malsched::Schedule;

namespace {

double duration(const SpanLog& log, int index) {
  const Span& span = log.spans()[static_cast<std::size_t>(index)];
  return span.end - span.start;
}

/// The dual step's single-shelf construction (a private helper of the
/// library, so it is rebuilt here and its time stays in the step's self
/// time): every task side by side at time 0 on its canonical allotment.
std::optional<Schedule> single_shelf(const Instance& instance,
                                     const CanonicalAllotment& canonical) {
  malsched::ShelfAllocator shelf(instance.machines());
  Schedule schedule(instance.machines(), instance.size());
  for (int i = 0; i < instance.size(); ++i) {
    const int gamma = canonical.procs[static_cast<std::size_t>(i)];
    const auto column = shelf.allocate(gamma);
    if (!column) return std::nullopt;
    schedule.assign(i, 0.0, instance.task(i).time(gamma), *column, gamma);
  }
  return schedule;
}

/// Repeats one dual step's public calls at `guess` on `workspace`, in the
/// order mrt_dual_step makes them, until a branch accepts. Returns the
/// branch and makespan (0 unless accepted); adds the replayed calls' time
/// to `call_seconds`.
std::pair<DualBranch, double> replay_step(DualWorkspace& workspace, double guess,
                                          const MrtOptions& options, SpanLog& log,
                                          std::uint64_t request, double& call_seconds) {
  const Instance& instance = workspace.instance();
  const auto timed = [&](const char* name, auto&& call) {
    const int index = log.open(name, request);
    call();
    log.close(index);
    call_seconds += duration(log, index);
  };

  const CanonicalAllotment* canonical = nullptr;
  timed("core.canonical", [&] { canonical = &workspace.canonical(guess); });
  bool rejected = false;
  timed("core.certify", [&] { rejected = malsched::certified_infeasible(instance, *canonical); });
  if (rejected) return {DualBranch::kRejected, 0.0};

  double area = 0.0;
  timed("core.area", [&] { area = malsched::canonical_area(workspace, *canonical); });
  const bool area_condition = malsched::leq(area, malsched::area_threshold(instance, guess));

  DualBranch branch = DualBranch::kGap;
  double makespan = 0.0;
  const auto consider = [&](DualBranch candidate, std::optional<Schedule> schedule) {
    if (!schedule) return;
    Schedule accepted = std::move(*schedule);
    if (options.use_compaction) {
      timed("sched.compact", [&] { accepted = malsched::compact_schedule(accepted, instance); });
    }
    malsched::ValidationOptions validation;
    validation.makespan_bound = malsched::kSqrt3 * guess;
    bool ok = false;
    timed("sched.validate",
          [&] { ok = malsched::validate_schedule(accepted, instance, validation).ok; });
    if (ok) {
      branch = candidate;
      makespan = accepted.makespan();
    }
  };
  const auto done = [&] { return branch != DualBranch::kGap; };

  if (canonical->total_procs <= instance.machines()) {
    consider(DualBranch::kSingleShelf, single_shelf(instance, *canonical));
  }
  const auto try_two_shelf = [&] {
    if (!options.enable_two_shelf || done()) return;
    malsched::TwoShelfOutcome result;
    timed("core.two_shelf",
          [&] { result = malsched::two_shelf_schedule(workspace, guess, options.two_shelf); });
    if (result.schedule) {
      consider(result.used_trivial ? DualBranch::kTwoShelfTrivial
                                   : DualBranch::kTwoShelfKnapsack,
               std::move(result.schedule));
    }
  };
  const auto try_canonical_list = [&] {
    if (!options.enable_canonical_list || done()) return;
    malsched::CanonicalListOutcome result;
    timed("core.canonical_list", [&] {
      result = malsched::canonical_list_schedule(workspace, guess, options.canonical_list);
    });
    consider(DualBranch::kCanonicalList, std::move(result.schedule));
  };
  if (area_condition) {
    try_canonical_list();
    try_two_shelf();
  } else {
    try_two_shelf();
    try_canonical_list();
  }
  if (options.enable_malleable_list && !done()) {
    std::optional<Schedule> schedule;
    timed("core.malleable_list",
          [&] { schedule = malsched::malleable_list_schedule(instance, guess); });
    consider(DualBranch::kMalleableList, std::move(schedule));
  }
  return {branch, makespan};
}

/// Runs dual_search on `instance` with a step that times mrt_dual_step on
/// one workspace and replays it on another.
malsched::DualSearchResult traced_search(const Instance& instance, const MrtOptions& options,
                                         SpanLog& log, std::uint64_t request,
                                         ReplayTotals& totals) {
  std::optional<DualWorkspace> replay_workspace;
  {
    const Scoped span(log, "bench.replay_setup", request);
    replay_workspace.emplace(instance);
  }
  std::optional<DualWorkspace> workspace;
  {
    const Scoped span(log, "core.index_build", request);
    workspace.emplace(instance);
  }
  const Scoped search_span(log, "core.dual_search", request);
  const malsched::DualStep step = [&](double guess) {
    malsched::MrtDualOutcome outcome;
    const int index = log.open("core.mrt_dual_step", request);
    outcome = malsched::mrt_dual_step(*workspace, guess, options);
    log.close(index);
    totals.step_seconds += duration(log, index);

    const double real_makespan = outcome.schedule ? outcome.schedule->makespan() : 0.0;
    {
      const Scoped replay_span(log, "bench.replay_step", request);
      const auto [branch, makespan] = replay_step(*replay_workspace, guess, options, log, request,
                                                  totals.replayed_call_seconds);
      if (branch != outcome.branch || makespan != real_makespan) ++totals.divergences;
    }
    ++totals.steps;
    ++totals.branches[static_cast<std::size_t>(outcome.branch)];

    malsched::DualStepResult result;
    result.schedule = std::move(outcome.schedule);
    result.certified_reject = outcome.certified_reject;
    return result;
  };
  return malsched::dual_search(instance, step, options.search);
}

}  // namespace

void replay_solve(const malsched::InstanceHandle& handle, std::uint64_t request, SpanLog& log,
                  ReplayTotals& totals) {
  const Scoped root(log, "bench.solve", request);
  const Instance& instance = handle.instance();
  const MrtOptions options;  // what the registry runs for an empty option bag

  std::optional<malsched::SolverResult> registry_result;
  {
    const Scoped span(log, "registry.solve", request);
    registry_result.emplace(malsched::SolverRegistry::global().solve(
        malsched::SolveRequest("mrt", {}, handle, /*consult_cache=*/false)));
  }
  {
    const Scoped span(log, "core.mrt_schedule", request);
    const auto direct = malsched::mrt_schedule(instance, options);
    (void)direct;
  }

  const auto search = traced_search(instance, options, log, request, totals);
  {
    const Scoped span(log, "sched.validate", request);
    const bool ok = malsched::validate_schedule(search.schedule, instance).ok;
    if (!ok) ++totals.divergences;
  }
  if (search.makespan != registry_result->makespan ||
      search.iterations != static_cast<int>(registry_result->stat("iterations", -1.0))) {
    ++totals.divergences;
  }
  totals.gaps += static_cast<std::uint64_t>(registry_result->stat("gaps", 0.0));
  ++totals.solves;
}

void add_solver_layers(LayerMetrics& layers, const std::vector<malsched::InstanceHandle>& handles,
                       SpanLog& log) {
  SpanLog replay_log;
  ReplayTotals totals;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    replay_solve(handles[i], i, replay_log, totals);
  }
  const auto by_name = self_seconds_by_name(replay_log.spans());
  const auto solves = static_cast<double>(totals.solves);
  const auto per_solve_ms = [&](const char* span) {
    const auto it = by_name.find(span);
    return it == by_name.end() ? 0.0 : it->second * 1e3 / solves;
  };
  const auto n = static_cast<std::size_t>(totals.solves);
  layers.set("core.dual_steps", static_cast<double>(totals.steps) / solves, n);
  layers.set("core.index_build_ms", per_solve_ms("core.index_build"), n);
  layers.set("core.canonical_ms", per_solve_ms("core.canonical"), n);
  layers.set("core.certify_ms", per_solve_ms("core.certify"), n);
  layers.set("core.area_ms", per_solve_ms("core.area"), n);
  layers.set("core.two_shelf_ms", per_solve_ms("core.two_shelf"), n);
  layers.set("core.canonical_list_ms", per_solve_ms("core.canonical_list"), n);
  layers.set("core.malleable_list_ms", per_solve_ms("core.malleable_list"), n);
  layers.set("core.step_self_ms",
             (totals.step_seconds - totals.replayed_call_seconds) * 1e3 / solves, n);
  for (int b = 0; b < malsched::kDualBranchCount; ++b) {
    layers.set("core.branch." + malsched::to_string(static_cast<malsched::DualBranch>(b)),
               static_cast<double>(totals.branches[static_cast<std::size_t>(b)]) / solves, n);
  }
  layers.set("core.gaps", static_cast<double>(totals.gaps), n);
  layers.set("sched.compact_ms", per_solve_ms("sched.compact"), n);
  layers.set("sched.validate_ms", per_solve_ms("sched.validate"), n);
  layers.set("registry.overhead_ms",
             per_solve_ms("registry.solve") - per_solve_ms("core.mrt_schedule"), n);
  layers.set("bench.replay_divergences", static_cast<double>(totals.divergences), n);
  Report::note(format("replay: %llu solves, %llu dual steps, %llu divergences",
                      static_cast<unsigned long long>(totals.solves),
                      static_cast<unsigned long long>(totals.steps),
                      static_cast<unsigned long long>(totals.divergences)));
  log.append(std::move(replay_log));
}

}  // namespace perfbench
