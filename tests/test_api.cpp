// Tests for src/api: the SolverOptions key=value bag and the SolverRegistry
// facade every front end dispatches through.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/task_graph.hpp"
#include "registry/solver_registry.hpp"
#include "model/lower_bounds.hpp"
#include "sched/validate.hpp"
#include "support/fnv.hpp"
#include "support/math_utils.hpp"
#include "workload/generators.hpp"
#include "workload/ocean.hpp"
#include "workload/trace.hpp"

namespace malsched {
namespace {

Instance small_instance(std::uint64_t seed = 3) {
  GeneratorOptions options;
  options.tasks = 24;
  options.machines = 12;
  return generate_instance(WorkloadFamily::kUniform, options, seed);
}

// ------------------------------------------------------------ SolverOptions

TEST(SolverOptions, ParsesTokensAndTypes) {
  const auto options = SolverOptions::from_tokens({"epsilon=0.05", "rigid=nfdh", "compaction"});
  EXPECT_DOUBLE_EQ(options.get_double("epsilon", 0.0), 0.05);
  EXPECT_EQ(options.get_string("rigid"), "nfdh");
  EXPECT_TRUE(options.get_bool("compaction", false));  // bare key means =1
  EXPECT_EQ(options.get_int("absent", 7), 7);
}

TEST(SolverOptions, ParsesSpecStringWithMixedSeparators) {
  const auto options = SolverOptions::from_string("epsilon=0.02,rigid=ffdh max_candidates=8");
  EXPECT_DOUBLE_EQ(options.get_double("epsilon", 0.0), 0.02);
  EXPECT_EQ(options.get_int("max_candidates", 0), 8);
  EXPECT_EQ(options.str(), "epsilon=0.02,max_candidates=8,rigid=ffdh");
}

TEST(SolverOptions, ThrowsOnMalformedValuesNotMissingOnes) {
  const auto options = SolverOptions::from_string("epsilon=fast,flag=maybe");
  EXPECT_THROW(static_cast<void>(options.get_double("epsilon", 0.0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(options.get_bool("flag", true)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(SolverOptions::from_string("=3")), std::invalid_argument);
  EXPECT_DOUBLE_EQ(options.get_double("missing", 1.5), 1.5);
}

// The pinned parser edge cases (previously implementation-defined).

TEST(SolverOptions, DuplicateKeysLastWins) {
  const auto options = SolverOptions::from_string("epsilon=0.1,epsilon=0.2 epsilon=0.3");
  EXPECT_DOUBLE_EQ(options.get_double("epsilon", 0.0), 0.3);
  EXPECT_EQ(options.entries().size(), 1u);
}

TEST(SolverOptions, StraySeparatorsAreSkipped) {
  const auto options = SolverOptions::from_string(" ,,  a=1 ,\t, b=2,, ");
  EXPECT_EQ(options.get_int("a", 0), 1);
  EXPECT_EQ(options.get_int("b", 0), 2);
  EXPECT_EQ(options.entries().size(), 2u);
  EXPECT_TRUE(SolverOptions::from_string(", ,\t,").entries().empty());
}

TEST(SolverOptions, EmptyValueIsAValidStringButNotANumber) {
  const auto options = SolverOptions::from_string("name=");
  EXPECT_TRUE(options.has("name"));
  EXPECT_EQ(options.get_string("name", "fallback"), "");
  EXPECT_THROW(static_cast<void>(options.get_double("name", 0.0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(options.get_bool("name", true)), std::invalid_argument);
}

TEST(SolverOptions, OnlyTheFirstEqualsSplits) {
  const auto options = SolverOptions::from_string("a==b,path=x=y");
  EXPECT_EQ(options.get_string("a"), "=b");
  EXPECT_EQ(options.get_string("path"), "x=y");
}

TEST(SolverOptions, SeparatorsInsideKeysAndValuesAreRefused) {
  // str() joins entries with ',' and keys the solve cache. Were a ',' legal
  // in a value, {compaction=0, a="1,epsilon=0.5"} would render exactly like
  // {a=1, compaction=0, epsilon=0.5}, and the cache would answer one bag
  // with the other's schedule.
  EXPECT_THROW(
      static_cast<void>(SolverOptions::from_tokens({"compaction=0", "a=1,epsilon=0.5"})),
      std::invalid_argument);
  EXPECT_THROW(SolverOptions{}.set("a=b", "1"), std::invalid_argument);
  EXPECT_THROW(SolverOptions{}.set("a,b", "1"), std::invalid_argument);
  EXPECT_THROW(SolverOptions{}.set("a", "1,2"), std::invalid_argument);
  // '=' stays legal inside a value, and ordinary bags render as before.
  SolverOptions bag;
  bag.set("a", "=b").set("compaction", "0");
  EXPECT_EQ(bag.str(), "a==b,compaction=0");
}

TEST(SolverOptions, StrIsInjectiveOverEveryBagSetAccepts) {
  // Every key and value of up to two characters over {a, '=', ','}, in bags
  // of one and two entries: no two bags that set() builds render alike.
  std::vector<std::string> words{""};
  const std::string alphabet = "a=,";
  for (const char x : alphabet) {
    words.emplace_back(1, x);
    for (const char y : alphabet) words.push_back({x, y});
  }
  std::map<std::string, std::map<std::string, std::string>> rendered;
  int refused = 0;
  const auto record = [&](const std::vector<std::pair<std::string, std::string>>& entries) {
    SolverOptions bag;
    try {
      for (const auto& [key, value] : entries) bag.set(key, value);
    } catch (const std::invalid_argument&) {
      ++refused;
      return;
    }
    const auto [it, fresh] = rendered.emplace(bag.str(), bag.entries());
    if (!fresh) {
      EXPECT_EQ(it->second, bag.entries()) << "two bags render as '" << it->first << "'";
    }
  };
  for (const auto& k1 : words) {
    for (const auto& v1 : words) {
      record({{k1, v1}});
      for (const auto& k2 : words) {
        for (const auto& v2 : words) record({{k1, v1}, {k2, v2}});
      }
    }
  }
  EXPECT_GT(refused, 0);
  // Two legal keys ("a", "aa") and seven legal values (no ','): 14 one-entry
  // bags and 49 two-entry ones, each rendered once.
  EXPECT_EQ(rendered.size(), 63u);
}

// ------------------------------------------------- OptionSpec validation

std::vector<OptionSpec> demo_specs() {
  return {
      OptionSpec::real("epsilon", 0.01, 1e-9, 10.0, "termination threshold"),
      OptionSpec::integer("rounds", 4, 1, 64, "iteration budget"),
      OptionSpec::enumeration("rigid", "ffdh", {"ffdh", "nfdh", "list"}, "packing algo"),
  };
}

TEST(OptionSpec, ValidatePassesDeclaredWellTypedOptions) {
  const auto options = SolverOptions::from_string("epsilon=0.5,rounds=8,rigid=nfdh");
  EXPECT_NO_THROW(options.validate(demo_specs()));
}

TEST(OptionSpec, UnknownKeyFailsFastWithDidYouMean) {
  const auto options = SolverOptions::from_string("epsilom=0.02");
  try {
    options.validate(demo_specs());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string message = err.what();
    EXPECT_NE(message.find("unknown option 'epsilom'"), std::string::npos) << message;
    EXPECT_NE(message.find("did you mean 'epsilon'?"), std::string::npos) << message;
    EXPECT_NE(message.find("declared options: epsilon, rounds, rigid"), std::string::npos)
        << message;
  }
}

TEST(OptionSpec, UnknownKeyWithoutACloseNameListsTheDeclaredOnes) {
  const auto options = SolverOptions::from_string("warp_factor=9");
  try {
    options.validate(demo_specs());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string message = err.what();
    EXPECT_EQ(message.find("did you mean"), std::string::npos) << message;
    EXPECT_NE(message.find("epsilon"), std::string::npos) << message;
  }
}

TEST(OptionSpec, OutOfRangeAndBadEnumValuesAreRejectedReadably) {
  EXPECT_THROW(SolverOptions::from_string("epsilon=-1").validate(demo_specs()),
               std::invalid_argument);
  EXPECT_THROW(SolverOptions::from_string("epsilon=11").validate(demo_specs()),
               std::invalid_argument);
  // NaN compares false to every bound; the range check must still reject it.
  EXPECT_THROW(SolverOptions::from_string("epsilon=nan").validate(demo_specs()),
               std::invalid_argument);
  EXPECT_THROW(SolverOptions::from_string("rounds=0").validate(demo_specs()),
               std::invalid_argument);
  try {
    SolverOptions::from_string("rigid=best").validate(demo_specs());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("ffdh|nfdh|list"), std::string::npos) << err.what();
  }
}

TEST(OptionSpec, EditDistanceAndSuggestionThreshold) {
  EXPECT_EQ(edit_distance("epsilon", "epsilon"), 0);
  EXPECT_EQ(edit_distance("epsilom", "epsilon"), 1);
  EXPECT_EQ(edit_distance("eplison", "epsilon"), 2);
  EXPECT_EQ(closest_option_name("epsilom", demo_specs()), "epsilon");
  EXPECT_EQ(closest_option_name("warp_factor", demo_specs()), "");
}

TEST(OptionSpec, OptionTableRendersNameTypeDefaultAndHelp) {
  const auto table = option_table(demo_specs());
  EXPECT_NE(table.find("epsilon"), std::string::npos);
  EXPECT_NE(table.find("double in [1e-09, 10]"), std::string::npos);
  EXPECT_NE(table.find("ffdh|nfdh|list"), std::string::npos);
  EXPECT_NE(table.find("termination threshold"), std::string::npos);
  EXPECT_TRUE(option_table({}).empty());
}

// ----------------------------------------------------------- SolverRegistry

TEST(SolverRegistry, GlobalRegistersTheFiveSolvers) {
  const auto names = SolverRegistry::global().names();
  const std::vector<std::string> expected{"graph", "mrt", "naive", "two_phase",
                                          "two_shelves_32"};
  EXPECT_EQ(names, expected);
  for (const auto& name : expected) {
    EXPECT_TRUE(SolverRegistry::global().contains(name));
    EXPECT_FALSE(SolverRegistry::global().description(name).empty());
  }
}

TEST(SolverRegistry, UnknownSolverNameThrows) {
  const auto instance = InstanceHandle::intern(small_instance());
  EXPECT_THROW(
      static_cast<void>(SolverRegistry::global().solve(SolveRequest("mrt-typo", {}, instance))),
      std::invalid_argument);
  EXPECT_THROW(static_cast<void>(SolverRegistry::global().description("nope")),
               std::invalid_argument);
}

TEST(SolverRegistry, RejectsDuplicateAndDegenerateRegistrations) {
  SolverRegistry registry;
  const auto fn = [](const Instance& instance, const SolverOptions&) {
    return SolverResult{"", Schedule(instance.machines(), instance.size()), 0, 0, 0, 0, {}};
  };
  registry.add("custom", "test solver", fn);
  EXPECT_THROW(registry.add("custom", "again", fn), std::invalid_argument);
  EXPECT_THROW(registry.add("", "unnamed", fn), std::invalid_argument);
  EXPECT_THROW(registry.add("null", "no fn", nullptr), std::invalid_argument);
}

TEST(SolverRegistry, SolveRequestWithEmptyHandleThrows) {
  EXPECT_THROW(static_cast<void>(SolverRegistry::global().solve(SolveRequest{})),
               std::invalid_argument);
}

TEST(SolverRegistry, IncompleteScheduleFromSolverIsRejected) {
  SolverRegistry registry;
  registry.add("broken", "leaves every task unassigned",
               [](const Instance& instance, const SolverOptions&) {
                 return SolverResult{"", Schedule(instance.machines(), instance.size()),
                                     0, 0, 0, 0, {}};
               });
  EXPECT_THROW(static_cast<void>(registry.solve(
                   SolveRequest("broken", {}, InstanceHandle::intern(small_instance())))),
               std::runtime_error);
}

TEST(SolverRegistry, OverlappingScheduleFromSolverIsRejected) {
  // Every solver's schedule meets the default validation: two intervals
  // that share processor 1 over [0.5, 1) fail the solve, naming the clash.
  Instance tasks(3);
  tasks.add_task(std::vector<double>{1.0, 1.0, 1.0});
  tasks.add_task(std::vector<double>{1.0, 1.0, 1.0});
  SolverRegistry registry;
  registry.add("clash", "overlaps two intervals",
               [](const Instance& instance, const SolverOptions&) {
                 Schedule schedule(instance.machines(), instance.size());
                 schedule.assign(0, 0.0, 1.0, 0, 2);
                 schedule.assign(1, 0.5, 1.0, 1, 2);
                 return SolverResult{"", std::move(schedule), 0, 0, 0, 0, {}};
               });
  try {
    static_cast<void>(
        registry.solve(SolveRequest("clash", {}, InstanceHandle::intern(std::move(tasks)))));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& err) {
    const std::string message = err.what();
    EXPECT_NE(message.find("solver 'clash' produced an invalid schedule"), std::string::npos)
        << message;
    EXPECT_NE(message.find("tasks 0 and 1 overlap on processor 1"), std::string::npos)
        << message;
  }
}

TEST(SolverRegistry, RequestSolveTakesTheStaticBoundFromTheHandle) {
  // A solver that certifies nothing still reports the area/critical-path
  // bound: the facade reads it off the handle, which computed it once at
  // intern(), so repeated solves of one request never re-hash the profiles.
  SolverRegistry registry;
  registry.add("uncertified", "sequential on processor 0; certifies no bound",
               [](const Instance& instance, const SolverOptions&) {
                 Schedule schedule(instance.machines(), instance.size());
                 double t = 0.0;
                 for (int i = 0; i < instance.size(); ++i) {
                   schedule.assign(i, t, instance.task(i).time(1), 0, 1);
                   t += instance.task(i).time(1);
                 }
                 return SolverResult{"", std::move(schedule), 0, 0, 0, 0, {}};
               });
  const auto handle = InstanceHandle::intern(small_instance(8));
  const SolveRequest request("uncertified", {}, handle);
  const auto hashes_before = InstanceHandle::content_hashes();
  for (int round = 0; round < 3; ++round) {
    const auto result = registry.solve(request);
    EXPECT_DOUBLE_EQ(result.lower_bound, handle.static_lower_bound());
    EXPECT_DOUBLE_EQ(result.lower_bound, makespan_lower_bound(handle.instance()));
    EXPECT_NEAR(result.ratio, result.makespan / result.lower_bound, 1e-12);
  }
  EXPECT_EQ(InstanceHandle::content_hashes(), hashes_before);
}

/// Every registered solver, with the option bags the front ends use.
class RegistrySolveTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(RegistrySolveTest, ReturnsValidatedScheduleWithCertifiedBound) {
  const auto& [name, spec] = GetParam();
  const auto options = SolverOptions::from_string(spec);
  for (const auto family :
       {WorkloadFamily::kUniform, WorkloadFamily::kBimodal, WorkloadFamily::kSequentialOnly}) {
    GeneratorOptions generator;
    generator.tasks = 20;
    generator.machines = 10;
    const auto handle = InstanceHandle::intern(generate_instance(family, generator, 11));
    const Instance& instance = handle.instance();
    const auto result = SolverRegistry::global().solve(SolveRequest(name, options, handle));

    EXPECT_EQ(result.solver, name);
    EXPECT_TRUE(result.schedule.complete());
    // All five built-in solvers promise contiguous processor intervals (the
    // paper's setting), so the full default validation must hold.
    const auto report = validate_schedule(result.schedule, instance);
    EXPECT_TRUE(report.ok) << report.str();

    // The certified bound is a real lower bound and at least the
    // area/critical-path bound; makespan and ratio are consistent with it.
    EXPECT_TRUE(geq(result.lower_bound, makespan_lower_bound(instance)));
    EXPECT_TRUE(geq(result.makespan, result.lower_bound));
    EXPECT_NEAR(result.ratio, result.makespan / result.lower_bound, 1e-12);
    EXPECT_DOUBLE_EQ(result.makespan, result.schedule.makespan());
    EXPECT_GE(result.wall_seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, RegistrySolveTest,
    ::testing::Values(std::make_tuple("mrt", ""), std::make_tuple("mrt", "epsilon=0.05"),
                      std::make_tuple("two_phase", "rigid=ffdh"),
                      std::make_tuple("two_phase", "rigid=nfdh"),
                      std::make_tuple("two_phase", "rigid=list"),
                      std::make_tuple("naive", "policy=half-speedup"),
                      std::make_tuple("naive", "policy=lpt-seq"),
                      std::make_tuple("naive", "policy=gang"),
                      std::make_tuple("two_shelves_32", ""),
                      std::make_tuple("graph", "strategy=layered"),
                      std::make_tuple("graph", "strategy=ready-list")));

TEST(SolverRegistry, MrtReportsBranchStatsAndIterations) {
  const auto result = SolverRegistry::global().solve(
      SolveRequest("mrt", {}, InstanceHandle::intern(small_instance())));
  EXPECT_GE(result.stat("iterations"), 1.0);
  // At least one construction branch fired across the search.
  double branch_total = 0.0;
  for (const auto& [key, value] : result.stats) {
    if (key.rfind("branch.", 0) == 0) branch_total += value;
  }
  EXPECT_GE(branch_total, 1.0);
  EXPECT_GT(result.stat("final_guess"), 0.0);
}

TEST(SolverRegistry, BadSolverOptionValuesThrow) {
  const auto instance = InstanceHandle::intern(small_instance());
  const auto& registry = SolverRegistry::global();
  EXPECT_THROW(static_cast<void>(registry.solve(SolveRequest(
                   "two_phase", SolverOptions::from_string("rigid=best"), instance))),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(registry.solve(
                   SolveRequest("naive", SolverOptions::from_string("policy=magic"), instance))),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(registry.solve(
                   SolveRequest("graph", SolverOptions::from_string("strategy=x"), instance))),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(registry.solve(
                   SolveRequest("mrt", SolverOptions::from_string("epsilon=tiny"), instance))),
               std::invalid_argument);
}

TEST(SolverRegistry, TypodKeyFailsFastInsteadOfSolvingWithTheDefault) {
  const auto instance = InstanceHandle::intern(small_instance());
  const auto& registry = SolverRegistry::global();
  // The original bug: epsilom=0.02 used to solve silently with the default
  // epsilon. Now it fails fast, with the fix spelled out.
  try {
    static_cast<void>(registry.solve(
        SolveRequest("mrt", SolverOptions::from_string("epsilom=0.02"), instance)));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("did you mean 'epsilon'?"), std::string::npos)
        << err.what();
  }
}

TEST(SolverRegistry, EveryUndeclaredKeyIsRefusedBeforeDispatch) {
  // A solver accepts exactly its declared table: no facade-level key rides
  // along, and no key switches the check off.
  const auto instance = InstanceHandle::intern(small_instance());
  const auto& registry = SolverRegistry::global();
  const auto refused = [&](const std::string& solver, const std::string& options) {
    try {
      static_cast<void>(
          registry.solve(SolveRequest(solver, SolverOptions::from_string(options), instance)));
    } catch (const std::invalid_argument& err) {
      return std::string(err.what());
    }
    ADD_FAILURE() << solver << " accepted '" << options << "'";
    return std::string();
  };
  for (const auto& name : registry.names()) {
    const auto& specs = registry.option_specs(name);
    ASSERT_FALSE(specs.empty()) << name;
    EXPECT_NE(refused(name, "local_search=1").find("unknown option 'local_search'"),
              std::string::npos)
        << name;
    EXPECT_NE(refused(name, "strict=0").find("unknown option 'strict'"), std::string::npos)
        << name;
    // A one-letter typo of a declared key still names the key it meant.
    std::string typo = specs.front().name;
    typo.back() = typo.back() == 'q' ? 'x' : 'q';
    EXPECT_NE(refused(name, typo + "=1").find("did you mean '" + specs.front().name + "'?"),
              std::string::npos)
        << name << " / " << typo;
  }

  // The refusal comes before the solver runs.
  SolverRegistry custom;
  int dispatched = 0;
  custom.add(
      "counting", "counts its dispatches",
      [&dispatched](const Instance& input, const SolverOptions&) {
        ++dispatched;
        return SolverResult{"", Schedule(input.machines(), input.size()), 0, 0, 0, 0, {}};
      },
      {OptionSpec::real("epsilon", 0.01, 1e-9, 10.0, "termination threshold")});
  for (const char* options : {"local_search=1", "strict=0", "epsilon=0.1,strict=0"}) {
    EXPECT_THROW(static_cast<void>(custom.solve(SolveRequest(
                     "counting", SolverOptions::from_string(options), instance))),
                 std::invalid_argument)
        << options;
  }
  EXPECT_EQ(dispatched, 0);
}

TEST(SolverRegistry, OutOfRangeValuesAreRejectedBeforeDispatch) {
  const auto instance = InstanceHandle::intern(small_instance());
  const auto& registry = SolverRegistry::global();
  EXPECT_THROW(static_cast<void>(registry.solve(
                   SolveRequest("mrt", SolverOptions::from_string("epsilon=-0.5"), instance))),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(registry.solve(SolveRequest(
                   "two_phase", SolverOptions::from_string("max_candidates=0"), instance))),
               std::invalid_argument);
}

TEST(SolverRegistry, DescriptionsDeriveTheirOptionListFromTheSpecs) {
  const auto& registry = SolverRegistry::global();
  for (const auto& name : registry.names()) {
    const auto& description = registry.description(name);
    EXPECT_NE(description.find("(options: "), std::string::npos) << name;
    // Every declared option appears in the one-liner; none can go stale.
    for (const auto& spec : registry.option_specs(name)) {
      EXPECT_NE(description.find(spec.name), std::string::npos)
          << name << " description misses option " << spec.name;
    }
  }
}

TEST(SolverRegistry, OptionHelpRendersTheSpecTable) {
  const auto& registry = SolverRegistry::global();
  const auto help = registry.option_help("mrt");
  EXPECT_NE(help.find("epsilon"), std::string::npos);
  EXPECT_NE(help.find("0.01"), std::string::npos);  // default from MrtOptions
  // The dual search has one guess rule; no option selects another.
  EXPECT_EQ(help.find("snap"), std::string::npos);
  // A custom solver registered without a table renders none.
  SolverRegistry custom;
  custom.add("freeform", "no declared schema",
             [](const Instance& instance, const SolverOptions&) {
               return SolverResult{"", Schedule(instance.machines(), instance.size()),
                                   0, 0, 0, 0, {}};
             });
  EXPECT_TRUE(custom.option_help("freeform").empty());
  EXPECT_EQ(custom.description("freeform").find("(options:"), std::string::npos);
}

TEST(SolverRegistry, SolversWithoutATableAcceptOnlyAnEmptyBag) {
  // A table is all a solver accepts, so one registered without a table
  // refuses every key before dispatch and still solves an empty bag.
  int dispatches = 0;
  SolverRegistry registry;
  registry.add("sequential", "no declared options",
               [&dispatches](const Instance& instance, const SolverOptions&) {
                 ++dispatches;
                 Schedule schedule(instance.machines(), instance.size());
                 double t = 0.0;
                 for (int i = 0; i < instance.size(); ++i) {
                   schedule.assign(i, t, instance.task(i).time(1), 0, 1);
                   t += instance.task(i).time(1);
                 }
                 return SolverResult{"", std::move(schedule), 0, 0, 0, 0, {}};
               });
  const auto instance = InstanceHandle::intern(small_instance());
  try {
    static_cast<void>(registry.solve(
        SolveRequest("sequential", SolverOptions::from_string("whatever=really"), instance)));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string message = err.what();
    EXPECT_NE(message.find("unknown option 'whatever'; declared options: none"),
              std::string::npos)
        << message;
  }
  EXPECT_EQ(dispatches, 0);
  const auto result = registry.solve(SolveRequest("sequential", {}, instance));
  EXPECT_TRUE(result.schedule.complete());
  EXPECT_EQ(dispatches, 1);
}

TEST(SolverRegistry, ResultSummaryMentionsSolverAndNumbers) {
  const auto result = SolverRegistry::global().solve(
      SolveRequest("mrt", {}, InstanceHandle::intern(small_instance())));
  const auto text = result.summary();
  EXPECT_NE(text.find("mrt"), std::string::npos);
  EXPECT_NE(text.find("makespan"), std::string::npos);
  EXPECT_NE(text.find("lower bound"), std::string::npos);
}

// ------------------------------------------------- the solver x family grid

constexpr int kGridTasks = 24;
constexpr int kGridMachines = 12;

Instance grid_generated(WorkloadFamily family, int tasks, std::uint64_t seed) {
  GeneratorOptions options;
  options.tasks = tasks;
  options.machines = kGridMachines;
  return generate_instance(family, options, seed);
}

/// Twelve families at 24 x 12, seeds 9000 and 9001 each: the six generator
/// families, ocean, a batch trace, a tree's node set, two families that draw
/// one fixed instance at every seed (seeds 777 and 888), and the
/// runtime-scaling ladder (24 or 48 tasks from seed 40000 + s).
std::vector<InstanceHandle> grid_instances() {
  std::vector<std::function<Instance(std::uint64_t)>> families;
  for (const auto family : all_workload_families()) {
    families.push_back(
        [family](std::uint64_t seed) { return grid_generated(family, kGridTasks, seed); });
  }
  families.push_back([](std::uint64_t seed) {
    OceanOptions options;
    options.machines = kGridMachines;
    options.base_grid = 4;
    return ocean_instance(options, seed);
  });
  families.push_back([](std::uint64_t seed) {
    TraceOptions options;
    options.machines = kGridMachines;
    options.jobs = kGridTasks;
    return trace_snapshot(options, seed);
  });
  families.push_back([](std::uint64_t seed) {
    TreeWorkloadOptions options;
    options.machines = kGridMachines;
    options.tasks = kGridTasks;
    return random_out_tree(options, seed).instance();
  });
  for (const std::uint64_t fixed : {777u, 888u}) {
    families.push_back([fixed](std::uint64_t) {
      return grid_generated(WorkloadFamily::kUniform, kGridTasks, fixed);
    });
  }
  families.push_back([](std::uint64_t seed) {
    return grid_generated(WorkloadFamily::kUniform, kGridTasks * (1 << (seed % 4)),
                          40000 + seed);
  });

  std::vector<InstanceHandle> handles;
  for (const auto& make : families) {
    for (const std::uint64_t seed : {9000u, 9001u}) {
      handles.push_back(InstanceHandle::intern(make(seed)));
    }
  }
  return handles;
}

/// FNV-1a over "%.17g|%.17g|%.17g|%.17g|%.17g;" of makespan, lower bound,
/// ratio, iterations and workspace allocations per instance, in pool order;
/// a counter the solver does not record hashes as "null".
std::string grid_digest(const std::string& solver, const std::string& spec,
                        const std::vector<InstanceHandle>& pool) {
  const auto options = SolverOptions::from_string(spec);
  const auto number = [](double value) {
    char buffer[32];
    const int written = std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return std::string(buffer, static_cast<std::size_t>(written));
  };
  std::uint64_t hash = fnv::kOffset;
  for (const auto& handle : pool) {
    const auto result = SolverRegistry::global().solve(SolveRequest(solver, options, handle));
    std::string line = number(result.makespan);
    for (const double value : {result.lower_bound, result.ratio}) {
      line += "|";
      line += number(value);
    }
    for (const char* counter : {"iterations", "workspace.allocations"}) {
      const auto found = std::find_if(result.stats.begin(), result.stats.end(),
                                      [counter](const auto& stat) { return stat.first == counter; });
      line += "|";
      line += found == result.stats.end() ? std::string("null") : number(found->second);
    }
    line += ";";
    fnv::mix_bytes(hash, line.data(), line.size());
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

// Every solver config over the twelve-family grid, through the registry:
// the non-timing fields of each solve are pinned, so a change that moves a
// schedule, a certified bound, the search's iteration count or its scratch
// allocations moves a digest and says so here.
TEST(SolverRegistry, SolverFamilyGridDigestsArePinned) {
  const auto pool = grid_instances();
  ASSERT_EQ(pool.size(), 24u);
  const std::vector<std::tuple<std::string, std::string, std::string>> pinned{
      {"mrt", "", "19d3d48af5ff32dd"},
      {"two_phase", "rigid=ffdh", "2b24010872797935"},
      {"two_phase", "rigid=list", "6f2236cda7023b5a"},
      {"naive", "policy=lpt-seq", "d5373ab26db8b25d"},
      {"two_shelves_32", "", "1528c375d1894ade"},
      {"graph", "strategy=layered", "e00f73643c890027"},
  };
  for (const auto& [solver, spec, digest] : pinned) {
    EXPECT_EQ(grid_digest(solver, spec, pool), digest) << solver << " " << spec;
  }
}

}  // namespace
}  // namespace malsched
