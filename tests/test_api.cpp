// Tests for src/api: the SolverOptions key=value bag and the SolverRegistry
// facade every front end dispatches through.

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

#include "registry/solver_registry.hpp"
#include "model/lower_bounds.hpp"
#include "sched/validate.hpp"
#include "support/math_utils.hpp"
#include "workload/generators.hpp"

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
  const auto options = SolverOptions::from_tokens({"epsilon=0.05", "rigid=nfdh", "local_search"});
  EXPECT_DOUBLE_EQ(options.get_double("epsilon", 0.0), 0.05);
  EXPECT_EQ(options.get_string("rigid"), "nfdh");
  EXPECT_TRUE(options.get_bool("local_search", false));  // bare key means =1
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

// ------------------------------------------------- OptionSpec validation

std::vector<OptionSpec> demo_specs() {
  return {
      OptionSpec::real("epsilon", 0.01, 1e-9, 10.0, "termination threshold"),
      OptionSpec::integer("rounds", 4, 1, 64, "iteration budget"),
      OptionSpec::enumeration("rigid", "ffdh", {"ffdh", "nfdh", "list"}, "packing algo"),
      OptionSpec::boolean("strict", true, "reject unknown keys"),
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
    EXPECT_NE(message.find("strict=0"), std::string::npos) << message;
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

TEST(OptionSpec, StrictZeroTunnelsUnknownKeysButStillTypesKnownOnes) {
  EXPECT_NO_THROW(SolverOptions::from_string("epsilom=0.02,strict=0").validate(demo_specs()));
  // Declared keys are still checked even in non-strict mode.
  EXPECT_THROW(SolverOptions::from_string("epsilon=fast,strict=0").validate(demo_specs()),
               std::invalid_argument);
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

TEST(SolverRegistry, ContiguityEnforcementMatchesRegistration) {
  std::vector<MalleableTask> tasks;
  tasks.emplace_back(std::vector<double>{2.0, 1.5, 1.2});
  const auto instance = InstanceHandle::intern(Instance(3, std::move(tasks)));
  // Feasible but scattered: processors {0, 2} of 3.
  const auto scattered_fn = [](const Instance& inst, const SolverOptions&) {
    Schedule schedule(inst.machines(), inst.size());
    schedule.assign_scattered(0, 0.0, inst.task(0).time(2), {0, 2});
    return SolverResult{"", std::move(schedule), 0, 0, 0, 0, {}};
  };
  SolverRegistry registry;
  registry.add("strict", "scattered solver registered as contiguous", scattered_fn);
  registry.add("relaxed", "scattered solver registered as such", scattered_fn,
               /*options=*/{}, /*contiguous=*/false);
  EXPECT_THROW(static_cast<void>(registry.solve(SolveRequest("strict", {}, instance))),
               std::runtime_error);
  const auto result = registry.solve(SolveRequest("relaxed", {}, instance));
  EXPECT_TRUE(result.schedule.complete());
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
  // strict=0 restores the old pass-through behavior: the typo is ignored and
  // the solve equals the default-option one.
  const auto escaped = registry.solve(
      SolveRequest("mrt", SolverOptions::from_string("epsilom=0.02,strict=0"), instance));
  const auto plain = registry.solve(SolveRequest("mrt", {}, instance));
  EXPECT_DOUBLE_EQ(escaped.makespan, plain.makespan);
  EXPECT_DOUBLE_EQ(escaped.lower_bound, plain.lower_bound);
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
  // The facade-level keys are declared everywhere without being repeated in
  // each registration table.
  EXPECT_NE(registry.description("naive").find("local_search"), std::string::npos);
  EXPECT_NE(registry.description("naive").find("strict"), std::string::npos);
}

TEST(SolverRegistry, OptionHelpRendersTheSpecTable) {
  const auto& registry = SolverRegistry::global();
  const auto help = registry.option_help("mrt");
  EXPECT_NE(help.find("epsilon"), std::string::npos);
  EXPECT_NE(help.find("0.01"), std::string::npos);  // default from MrtOptions
  // The dual search has one guess rule; no option selects another.
  EXPECT_EQ(help.find("snap"), std::string::npos);
  // Free-form custom solvers render no table.
  SolverRegistry custom;
  custom.add("freeform", "no declared schema",
             [](const Instance& instance, const SolverOptions&) {
               return SolverResult{"", Schedule(instance.machines(), instance.size()),
                                   0, 0, 0, 0, {}};
             });
  EXPECT_TRUE(custom.option_help("freeform").empty());
  EXPECT_EQ(custom.description("freeform").find("(options:"), std::string::npos);
}

TEST(SolverRegistry, FreeFormSolversSkipValidation) {
  SolverRegistry registry;
  registry.add("echo", "accepts anything", [](const Instance& instance, const SolverOptions&) {
    Schedule schedule(instance.machines(), instance.size());
    double t = 0.0;
    for (int i = 0; i < instance.size(); ++i) {
      schedule.assign(i, t, instance.task(i).time(1), 0, 1);
      t += instance.task(i).time(1);
    }
    return SolverResult{"", std::move(schedule), 0, 0, 0, 0, {}};
  });
  const auto result =
      registry.solve(SolveRequest("echo", SolverOptions::from_string("whatever=really,epsilom=1"),
                                  InstanceHandle::intern(small_instance())));
  EXPECT_TRUE(result.schedule.complete());
}

TEST(SolverRegistry, LocalSearchPostPassNeverDegrades) {
  const auto instance = InstanceHandle::intern(small_instance(17));
  const auto& registry = SolverRegistry::global();
  const auto base =
      registry.solve(SolveRequest("naive", SolverOptions::from_string("policy=lpt-seq"), instance));
  const auto improved = registry.solve(SolveRequest(
      "naive", SolverOptions::from_string("policy=lpt-seq,local_search=1"), instance));
  EXPECT_TRUE(leq(improved.makespan, base.makespan));
  EXPECT_GE(improved.stat("local_search.rounds", -1.0), 0.0);
}

TEST(SolverRegistry, ResultSummaryMentionsSolverAndNumbers) {
  const auto result = SolverRegistry::global().solve(
      SolveRequest("mrt", {}, InstanceHandle::intern(small_instance())));
  const auto text = result.summary();
  EXPECT_NE(text.find("mrt"), std::string::npos);
  EXPECT_NE(text.find("makespan"), std::string::npos);
  EXPECT_NE(text.find("lower bound"), std::string::npos);
}

}  // namespace
}  // namespace malsched
