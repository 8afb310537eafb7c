#include "registry/solver_registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "baselines/naive.hpp"
#include "baselines/two_phase.hpp"
#include "baselines/two_shelves_32.hpp"
#include "core/mrt_scheduler.hpp"
#include "graph/graph_scheduler.hpp"
#include "graph/task_graph.hpp"
#include "sched/validate.hpp"
#include "support/failpoint.hpp"
#include "support/stopwatch.hpp"

namespace malsched {

namespace {

SolverResult solve_mrt(const Instance& instance, const SolverOptions& options,
                       const SolveContext& context) {
  MrtOptions mrt;
  mrt.search.epsilon = options.get_double("epsilon", mrt.search.epsilon);
  mrt.use_compaction = options.get_bool("compaction", mrt.use_compaction);
  mrt.pick_best_branch = options.get_bool("pick_best_branch", mrt.pick_best_branch);
  mrt.enable_two_shelf = options.get_bool("two_shelf", mrt.enable_two_shelf);
  mrt.enable_canonical_list = options.get_bool("canonical_list", mrt.enable_canonical_list);
  mrt.enable_malleable_list = options.get_bool("malleable_list", mrt.enable_malleable_list);

  // One CancelCheck copied into the loops that carry one: the dual loop
  // polls once per guess and the canonical-list placement ticks once per
  // task, so cancel() and deadline expiry stop a running mrt solve within one
  // check stride. A two-shelf step between two polls costs O(|S1| * m),
  // which the input bounds. Unarmed (the default) every check is a no-op and
  // the solve is byte-identical to the pre-deadline tree.
  const CancelCheck check(context.cancel, context.deadline_seconds);
  mrt.search.cancel = check;
  mrt.canonical_list.cancel = check;
  auto result = mrt_schedule(instance, mrt);

  SolverResult out{"", std::move(result.schedule), 0.0, result.lower_bound, 0.0, 0.0, {}};
  out.stats.emplace_back("iterations", result.iterations);
  out.stats.emplace_back("gaps", result.gaps);
  out.stats.emplace_back("final_guess", result.final_guess);
  out.stats.emplace_back("workspace.allocations",
                         static_cast<double>(result.workspace_allocations));
  out.stats.emplace_back("workspace.canonical_evals", static_cast<double>(result.canonical_evals));
  for (int b = 0; b < kDualBranchCount; ++b) {
    const int count = result.branch_counts[static_cast<std::size_t>(b)];
    if (count > 0) {
      out.stats.emplace_back("branch." + to_string(static_cast<DualBranch>(b)), count);
    }
  }
  return out;
}

// Defaults shared between each solver body and its spec table, so the
// rendered help cannot drift from what the solver actually falls back to
// (struct-carried defaults -- MrtOptions, TwoPhaseOptions -- are read from
// the structs directly; these cover the parameters passed as plain
// function arguments).
constexpr const char* kDefaultRigid = "ffdh";
constexpr const char* kDefaultPolicy = "half-speedup";
constexpr const char* kDefaultStrategy = "layered";
constexpr double kTwoShelves32DefaultEpsilon = 0.01;
constexpr double kGraphDefaultEpsilon = 0.02;

SolverResult solve_two_phase(const Instance& instance, const SolverOptions& options) {
  TwoPhaseOptions two_phase;
  const std::string rigid = options.get_string("rigid", kDefaultRigid);
  if (rigid == "ffdh") {
    two_phase.rigid = RigidAlgo::kFfdh;
  } else if (rigid == "nfdh") {
    two_phase.rigid = RigidAlgo::kNfdh;
  } else if (rigid == "list") {
    two_phase.rigid = RigidAlgo::kListSchedule;
  } else {
    throw std::invalid_argument("two_phase: unknown rigid algorithm '" + rigid +
                                "' (expected ffdh, nfdh, or list)");
  }
  two_phase.max_candidates = options.get_int("max_candidates", two_phase.max_candidates);
  auto result = two_phase_schedule(instance, two_phase);

  SolverResult out{"", std::move(result.schedule), 0.0, 0.0, 0.0, 0.0, {}};
  out.stats.emplace_back("candidates_tried", result.candidates_tried);
  out.stats.emplace_back("best_threshold", result.best_threshold);
  return out;
}

SolverResult solve_naive(const Instance& instance, const SolverOptions& options) {
  const std::string policy = options.get_string("policy", kDefaultPolicy);
  Schedule schedule = [&] {
    if (policy == "half-speedup") return half_max_speedup_schedule(instance);
    if (policy == "lpt-seq") return lpt_sequential_schedule(instance);
    if (policy == "gang") return gang_schedule(instance);
    throw std::invalid_argument("naive: unknown policy '" + policy +
                                "' (expected half-speedup, lpt-seq, or gang)");
  }();
  return SolverResult{"", std::move(schedule), 0.0, 0.0, 0.0, 0.0, {}};
}

SolverResult solve_two_shelves_32(const Instance& instance, const SolverOptions& options) {
  auto result = three_halves_schedule(
      instance, options.get_double("epsilon", kTwoShelves32DefaultEpsilon));
  return SolverResult{"", std::move(result.schedule), 0.0, result.lower_bound, 0.0, 0.0, {}};
}

SolverResult solve_graph(const Instance& instance, const SolverOptions& options) {
  // The registry interface is instance-based; viewed as a DAG with no edges
  // the graph schedulers apply directly (front ends with real precedence
  // graphs call them natively).
  const TaskGraph graph(instance, {});
  const std::string strategy = options.get_string("strategy", kDefaultStrategy);
  auto result = [&] {
    if (strategy == "layered") {
      return layered_graph_schedule(graph, options.get_double("epsilon", kGraphDefaultEpsilon));
    }
    if (strategy == "ready-list") return ready_list_graph_schedule(graph);
    throw std::invalid_argument("graph: unknown strategy '" + strategy +
                                "' (expected layered or ready-list)");
  }();
  SolverResult out{"", std::move(result.schedule), 0.0, result.lower_bound, 0.0, 0.0, {}};
  out.stats.emplace_back("levels", graph.level_count());
  return out;
}

/// Declared schemas. Defaults are rendered from the same values the
/// solvers fall back to (option structs or the shared constants above), so
/// the help text tracks the code.
std::vector<OptionSpec> mrt_specs() {
  const MrtOptions defaults;
  return {
      OptionSpec::real("epsilon", defaults.search.epsilon, 1e-9, 10.0,
                       "dual-search termination: stop when hi <= (1+epsilon)*lo"),
      OptionSpec::boolean("compaction", defaults.use_compaction,
                          "slide tasks earlier after construction (never hurts the bound)"),
      OptionSpec::boolean("pick_best_branch", defaults.pick_best_branch,
                          "evaluate every branch per step, keep the shortest schedule"),
      OptionSpec::boolean("two_shelf", defaults.enable_two_shelf,
                          "enable the Section 4 knapsack two-shelf branch"),
      OptionSpec::boolean("canonical_list", defaults.enable_canonical_list,
                          "enable the Section 3.2 canonical list branch"),
      OptionSpec::boolean("malleable_list", defaults.enable_malleable_list,
                          "enable the Section 3.1 malleable list fallback branch"),
  };
}

std::vector<OptionSpec> two_phase_specs() {
  const TwoPhaseOptions defaults;
  return {
      OptionSpec::enumeration("rigid", kDefaultRigid, {"ffdh", "nfdh", "list"},
                              "rigid-packing algorithm for the second phase"),
      OptionSpec::integer("max_candidates", defaults.max_candidates, 1, 1 << 20,
                          "allotment thresholds tried in the first phase"),
  };
}

std::vector<OptionSpec> naive_specs() {
  return {
      OptionSpec::enumeration("policy", kDefaultPolicy, {"half-speedup", "lpt-seq", "gang"},
                              "which practitioner anchor to run"),
  };
}

std::vector<OptionSpec> two_shelves_32_specs() {
  return {
      OptionSpec::real("epsilon", kTwoShelves32DefaultEpsilon, 1e-9, 10.0,
                       "dual-search termination: stop when hi <= (1+epsilon)*lo"),
  };
}

std::vector<OptionSpec> graph_specs() {
  return {
      OptionSpec::enumeration("strategy", kDefaultStrategy, {"layered", "ready-list"},
                              "layered sqrt(3) levels vs precedence-aware ready list"),
      OptionSpec::real("epsilon", kGraphDefaultEpsilon, 1e-9, 10.0,
                       "per-layer dual-search termination (layered strategy)"),
  };
}

SolverRegistry make_global_registry() {
  SolverRegistry registry;
  registry.add_with_context("mrt",
                            "sqrt(3)(1+eps) dual approximation of Mounie-Rapine-Trystram",
                            solve_mrt, mrt_specs());
  registry.add("two_phase", "Turek/Ludwig two-phase baseline (allotment selection + packing)",
               solve_two_phase, two_phase_specs());
  registry.add("naive", "practitioner anchors: half-speedup, lpt-seq, or gang", solve_naive,
               naive_specs());
  registry.add("two_shelves_32", "heuristic 3/2 two-shelf dual search", solve_two_shelves_32,
               two_shelves_32_specs());
  registry.add("graph", "layered/ready-list DAG scheduler on the flat instance", solve_graph,
               graph_specs());
  return registry;
}

}  // namespace

SolverRegistry& SolverRegistry::global() {
  static SolverRegistry registry = make_global_registry();
  return registry;
}

void SolverRegistry::add(std::string name, std::string summary, SolverFn fn,
                         std::vector<OptionSpec> options) {
  if (!fn) throw std::invalid_argument("SolverRegistry: null solver for '" + name + "'");
  add_with_context(
      std::move(name), std::move(summary),
      [fn = std::move(fn)](const Instance& instance, const SolverOptions& solver_options,
                           const SolveContext&) { return fn(instance, solver_options); },
      std::move(options));
}

void SolverRegistry::add_with_context(std::string name, std::string summary, ContextSolverFn fn,
                                      std::vector<OptionSpec> options) {
  if (name.empty()) throw std::invalid_argument("SolverRegistry: empty solver name");
  if (!fn) throw std::invalid_argument("SolverRegistry: null solver for '" + name + "'");
  if (entries_.count(name) > 0) {
    throw std::invalid_argument("SolverRegistry: duplicate solver '" + name + "'");
  }

  Entry entry{name, std::move(summary), "", std::move(fn), std::move(options)};

  // The option portion of the one-liner is derived, never hand-written, so
  // description() cannot drift from the declared schema.
  entry.description = entry.summary;
  if (!entry.options.empty()) {
    entry.description += " (options: ";
    for (std::size_t i = 0; i < entry.options.size(); ++i) {
      if (i > 0) entry.description += ", ";
      entry.description += entry.options[i].name;
    }
    entry.description += ")";
  }

  entries_.emplace(std::move(name), std::move(entry));
}

bool SolverRegistry::contains(const std::string& name) const { return entries_.count(name) > 0; }

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

const std::string& SolverRegistry::description(const std::string& name) const {
  return entry(name).description;
}

const std::vector<OptionSpec>& SolverRegistry::option_specs(const std::string& name) const {
  return entry(name).options;
}

std::string SolverRegistry::option_help(const std::string& name, const std::string& indent) const {
  return option_table(entry(name).options, indent);
}

const SolverRegistry::Entry& SolverRegistry::entry(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("SolverRegistry: unknown solver '" + name + "' (registered: " +
                                known + ")");
  }
  return it->second;
}

SolverResult SolverRegistry::solve(const SolveRequest& request) const {
  return solve(request, SolveContext{});
}

SolverResult SolverRegistry::solve(const SolveRequest& request,
                                   const SolveContext& context) const {
  if (!request.instance.valid()) {
    throw std::invalid_argument("SolverRegistry: solve() on an empty InstanceHandle");
  }
  // Fold the request's own deadline knobs into the caller's context: the
  // budget anchors here (registry entry) for direct callers -- the service
  // anchors it earlier, at submit(), and passes the result through
  // context.deadline_seconds, so a queued wait counts against the budget.
  SolveContext merged = context;
  merged.deadline_seconds =
      merge_deadlines(merge_deadlines(request.deadline_seconds,
                                      budget_deadline(request.budget_seconds)),
                      context.deadline_seconds);
  const Entry& solver = entry(request.solver);
  const Instance& instance = request.instance.instance();
  const SolverOptions& options = request.options;

  const Stopwatch stopwatch;
  MALSCHED_FAILPOINT("solver.entry");

  // An already-cancelled or already-expired request fails here, before any
  // work -- the cheap exit that makes tiny solves honor deadlines too (their
  // hot loops may finish inside one check stride).
  const CancelCheck check(merged.cancel, merged.deadline_seconds);
  check.poll();

  options.validate(solver.options);

  SolverResult result = solver.fn(instance, options, merged);
  result.solver = solver.name;

  // Every solver-specific bound is certified; the area/critical-path bound
  // always is, so the facade reports the tighter of the two. The handle
  // computed that bound once, at intern().
  result.lower_bound = std::max(result.lower_bound, request.instance.static_lower_bound());
  result.makespan = result.schedule.makespan();
  result.ratio = result.lower_bound > 0.0 ? result.makespan / result.lower_bound : 1.0;

  const auto report = validate_schedule(result.schedule, instance);
  if (!report.ok) {
    throw std::runtime_error("SolverRegistry: solver '" + solver.name +
                             "' produced an invalid schedule:\n" + report.str());
  }

  result.wall_seconds = stopwatch.seconds();
  return result;
}

}  // namespace malsched
