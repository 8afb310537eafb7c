#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "registry/option_spec.hpp"
#include "registry/request.hpp"
#include "registry/solver_options.hpp"
#include "registry/solver_result.hpp"
#include "model/instance.hpp"
#include "support/cancellation.hpp"

/// The production entry point of the library: one name-keyed facade over
/// every scheduling algorithm, so front ends (CLI, batch drivers, benches,
/// services) dispatch by string instead of hand-wiring per-algorithm structs.
///
/// Registered out of the box (run `solve_file --list-algos` for the full
/// per-option help, rendered from the same OptionSpec tables validation
/// uses):
///
///   name              algorithm                              key options
///   ----------------  -------------------------------------  -----------------------------
///   mrt               sqrt(3) dual approximation (MRT '99)   epsilon, compaction,
///                                                            pick_best_branch, two_shelf,
///                                                            canonical_list, malleable_list
///   two_phase         Turek/Ludwig two-phase baseline        rigid=ffdh|nfdh|list,
///                                                            max_candidates
///   naive             practitioner anchors                   policy=half-speedup|lpt-seq|gang
///   two_shelves_32    heuristic 3/2 two-shelf dual search    epsilon
///   graph             layered DAG scheduler on the flat      epsilon, strategy=layered|
///                     instance (no precedence edges)         ready-list
///
/// Option bags are validated against the solver's declared OptionSpec table
/// before dispatch, and the table is all a solver accepts (one registered
/// without a table accepts only an empty bag): an undeclared key fails fast
/// with a did-you-mean suggestion, a mistyped or out-of-range value with a
/// readable error. solve() always validates the schedule before
/// returning -- a result is never handed out unchecked -- and stamps the
/// wall time of the whole dispatch.
///
/// Thread safety (audited for the SchedulerService workers): construction of global() is safe under C++11
/// magic statics; solve(), contains(), names(), description(),
/// option_specs(), and option_help() are const reads of an immutable entry
/// map and safe to call concurrently, provided no add() races with them. The
/// built-in solver functions are stateless (pure functions of instance +
/// options; any scratch is local to the call), so concurrent solve() calls
/// on distinct or even the same instance are safe.
/// add() is NOT synchronized: finish registering custom solvers before
/// sharing a registry across threads (the global registry is fully populated
/// on first use).
namespace malsched {

/// Optional per-call state a long-lived front end threads into
/// context-aware solvers: the cooperative cancellation pair -- a borrowed
/// CancelToken plus an absolute deadline -- that the dispatch turns into
/// the CancelCheck the solver hot loops carry.
struct SolveContext {
  /// Borrowed cancellation flag (must outlive the solve); nullptr = none.
  /// Firing it makes the running solve throw CancelledError within one
  /// check stride.
  const CancelToken* cancel{nullptr};
  /// Absolute steady-clock deadline (steady_now_seconds()); 0 = none.
  /// Merged with the request's own budget/deadline on the SolveRequest
  /// path; expiry throws DeadlineExceededError.
  double deadline_seconds{0.0};
};

class SolverRegistry {
 public:
  /// A solver fills `solver` (optional -- the facade overwrites it),
  /// `schedule`, `lower_bound`, and `stats`; the facade computes makespan and
  /// ratio, validates, and stamps wall time.
  using SolverFn = std::function<SolverResult(const Instance&, const SolverOptions&)>;

  /// As SolverFn, with the per-call SolveContext (cancellation, deadline).
  using ContextSolverFn =
      std::function<SolverResult(const Instance&, const SolverOptions&, const SolveContext&)>;

  struct Entry {
    std::string name;
    /// The prose half of the one-liner, as passed to add().
    std::string summary;
    /// summary + " (options: ...)" derived from `options` at registration
    /// time, so the help text cannot drift from the declared specs.
    std::string description;
    ContextSolverFn fn;
    /// Declared option schema: every key of a bag must be declared, so a
    /// solver registered without a table accepts only an empty bag.
    std::vector<OptionSpec> options;
  };

  /// The process-wide registry, pre-populated with the built-in solvers.
  [[nodiscard]] static SolverRegistry& global();

  /// Creates an empty registry (tests compose their own).
  SolverRegistry() = default;

  /// Registers a solver; throws std::invalid_argument on an empty or
  /// duplicate name. `options` declares the solver's schema (see
  /// Entry::options).
  void add(std::string name, std::string summary, SolverFn fn,
           std::vector<OptionSpec> options = {});

  /// As add(), for context-aware solvers (cancellation and deadlines).
  void add_with_context(std::string name, std::string summary, ContextSolverFn fn,
                        std::vector<OptionSpec> options = {});

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Registered names in lexicographic order.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Human-readable one-liner: the registration summary plus the
  /// spec-derived option list; throws on unknown names.
  [[nodiscard]] const std::string& description(const std::string& name) const;

  /// The declared option schema; empty for a solver that takes no options.
  /// Throws on unknown names.
  [[nodiscard]] const std::vector<OptionSpec>& option_specs(const std::string& name) const;

  /// Rendered per-option help table (name, type/range, default, help line),
  /// or "" for a solver that takes no options. Throws on unknown names.
  [[nodiscard]] std::string option_help(const std::string& name,
                                        const std::string& indent = "  ") const;

  /// API v2 entry point: dispatches `request.solver` on the interned
  /// instance, reusing the handle's precomputed static lower bound instead
  /// of re-deriving it (bit-identical -- same function, same frozen
  /// instance). Throws std::invalid_argument on an empty handle, an unknown
  /// name, or an option bag that fails the declared schema, and
  /// std::runtime_error if a solver ever emits a schedule that fails
  /// validation. `request.use_cache` is a serving-layer flag and ignored
  /// here (the registry memoizes nothing).
  [[nodiscard]] SolverResult solve(const SolveRequest& request) const;

  /// As above with caller-provided per-call context (cancellation and
  /// deadline).
  [[nodiscard]] SolverResult solve(const SolveRequest& request,
                                   const SolveContext& context) const;

 private:
  [[nodiscard]] const Entry& entry(const std::string& name) const;

  std::map<std::string, Entry> entries_;
};

}  // namespace malsched
