// bench_paper -- reproduces the paper's experiments and checks its claims.
//
// One program, one run, no arguments, no files written. Each experiment
// prints its table, then checks the claims it reproduces; the exit status is
// 1 when any claim fails, so ctest runs it like a test:
//
//   EXP-F8  Figure 8: the canonical list algorithm stays below 2*mu on
//           OPT <= 1 instances in every (mu, m) cell, and the empirical m_mu
//           at mu = sqrt(3)/2 is at most the paper's refined anchor 8.
//   EXP-T1  sqrt(3) scheduler against the guarantee-2 baselines, per family.
//   EXP-T2  wall time of the algorithm's pieces (Theorems 2 and 3), single
//           shot; printed only, timing is perfbench's job.
//   EXP-T3  Theorem 3's regime split: the canonical area W/(mu*m*d) at the
//           final guess falls with load and crosses 1, the knapsack
//           two-shelf fires exactly where it exceeds 1, the canonical list
//           takes every step at high load, single-shelf peaks at low load.
//   EXP-T4  Section 2.2's dichotomic search: iterations never fall as eps
//           shrinks, no gaps, every ratio below sqrt(3)(1+eps).
//   EXP-T5  every baseline against the sqrt(3) scheduler, through the
//           SolverRegistry, including the ocean and batch-trace workloads.
//   EXP-T6  ablations of compaction, reallocation and branch choice.
//   EXP-T7  precedence graphs: layered sqrt(3) against the ready list.
//
// Across experiments: every mrt solve that runs the whole dual step ends with
// 0 gaps and makespan <= sqrt(3)(1+eps) times its own certified lower bound,
// and no schedule is shorter than the lower bound it is measured against.
//
//   ./build/bench/bench_paper

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/naive.hpp"
#include "baselines/two_phase.hpp"
#include "baselines/two_shelves_32.hpp"
#include "core/canonical.hpp"
#include "core/canonical_list.hpp"
#include "core/mmu.hpp"
#include "core/mrt_scheduler.hpp"
#include "core/two_shelf.hpp"
#include "graph/graph_scheduler.hpp"
#include "graph/task_graph.hpp"
#include "knapsack/knapsack.hpp"
#include "model/lower_bounds.hpp"
#include "registry/solver_registry.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "workload/generators.hpp"
#include "workload/ocean.hpp"
#include "workload/trace.hpp"

namespace {

using namespace malsched;

/// The claims one run checks; main exits non-zero when any failed.
class Claims {
 public:
  void check(bool holds, const std::string& claim) {
    std::cout << (holds ? "claim holds: " : "CLAIM FAILED: ") << claim << "\n";
    ++checked_;
    failed_ += holds ? 0 : 1;
  }
  [[nodiscard]] int checked() const noexcept { return checked_; }
  [[nodiscard]] int failed() const noexcept { return failed_; }

 private:
  int checked_{0};
  int failed_{0};
};

/// mrt solves held to Theorem 3 under Section 2.2's search: each must end
/// with 0 gaps and makespan <= sqrt(3)(1+eps) x its own certified bound.
struct Guarantee {
  int solves{0};
  int violations{0};
  double worst_ratio{0.0};  ///< worst makespan / certified lower bound

  void add(double makespan, double lower_bound, double gaps, double epsilon) {
    ++solves;
    worst_ratio = std::max(worst_ratio, makespan / lower_bound);
    if (gaps != 0.0 || !leq(makespan, kSqrt3 * (1.0 + epsilon) * lower_bound)) ++violations;
  }
  void add(const MrtResult& result, double epsilon) {
    add(result.makespan, result.lower_bound, result.gaps, epsilon);
  }
  void check(Claims& claims) const {
    claims.check(solves > 0 && violations == 0,
                 label("every mrt solve ends with 0 gaps and makespan <= sqrt(3)(1+eps) x "
                       "its certified lower bound (",
                       solves, " solves, worst ratio ", cell(worst_ratio, 3), ")"));
  }
};

/// Counts schedules shorter than the lower bound they are measured against;
/// a sound bound admits none.
struct BoundValidity {
  int schedules{0};
  int below{0};

  void add(double makespan, double lower_bound) {
    ++schedules;
    below += geq(makespan, lower_bound) ? 0 : 1;
  }
  void check(Claims& claims, const std::string& bound) const {
    claims.check(schedules > 0 && below == 0,
                 label("no schedule is shorter than ", bound, " (", schedules, " schedules)"));
  }
};

const double kDefaultEpsilon = MrtOptions{}.search.epsilon;

Instance generated(WorkloadFamily family, int tasks, int machines, std::uint64_t seed) {
  GeneratorOptions generator;
  generator.tasks = tasks;
  generator.machines = machines;
  return generate_instance(family, generator, seed);
}

// ------------------------------------------------------------------ EXP-F8

// Figure 8: the minimal number of processors m_mu for which the canonical
// list algorithm guarantees 2*mu, as a function of mu in [0.78, 0.95].
// The appendix's closed form did not survive the scan (DESIGN.md [R]), so
// the curve is reproduced empirically: packed instances (OPT <= 1 by
// construction) that satisfy Theorem 2's area hypothesis W <= mu*m.
void figure8(Claims& claims) {
  std::cout << "EXP-F8: m_mu versus mu (paper Figure 8)\n";
  std::cout << "bound tested: canonical list makespan <= 2*mu on OPT<=1 instances\n\n";

  const InstanceFactory factory = [](int machines, std::uint64_t seed) {
    return packed_instance(machines, seed);
  };

  MmuEstimateOptions options;
  options.trials_per_m = 120;
  options.scan_limit = 24;
  options.seed = 2026;

  const std::vector<double> mus{0.78, 0.80, 0.82, 0.84, kMu, 0.88, 0.90, 0.92, 0.95};

  int m_at_mu = 0;
  Table table({"mu", "k*", "realloc width", "empirical m_mu", "worst ratio at m_mu"});
  for (const auto& point : mmu_curve(mus, factory, options)) {
    if (point.mu == kMu) m_at_mu = point.empirical_m;
    table.add_row({cell(point.mu, 4), cell(point.kstar), cell(point.reallocation_width),
                   cell(point.empirical_m), cell(point.worst_ratio_at_m, 3)});
  }
  table.print(std::cout);

  std::cout << "\npaper anchors: coarse bound ~20, refined m = 8 at mu = sqrt(3)/2 = "
            << cell(kMu, 4) << "\n";
  std::cout << "reading: empirical m_mu = 2 everywhere means no violation of the 2*mu\n"
            << "bound was ever observed -- the paper's m_mu is a *sufficient* bound from\n"
            << "a conservative worst-case analysis; random adversarial search confirms\n"
            << "the guarantee itself with margin (see the grid below).\n\n";

  // Safety-margin grid: worst observed makespan / (2*mu) per (mu, m). The
  // margin shrinking as mu decreases mirrors Figure 8's message that small
  // mu demands more processors.
  std::cout << "worst makespan/(2*mu) over " << options.trials_per_m
            << " OPT<=1 instances per cell (1.000 would be a violation):\n\n";
  const std::vector<int> machine_grid{4, 6, 8, 12, 16, 24};
  std::vector<std::string> headers{"mu \\ m"};
  for (const int m : machine_grid) headers.push_back(cell(m));
  Table grid(headers);
  double worst_cell = 0.0;
  for (const double mu : mus) {
    CanonicalListOptions list_options;
    list_options.mu = mu;
    std::vector<std::string> row{cell(mu, 4)};
    Rng seeds(options.seed + 17);
    for (const int machines : machine_grid) {
      double worst = 0.0;
      for (int trial = 0; trial < options.trials_per_m; ++trial) {
        const auto instance = factory(machines, seeds.fork_seed());
        const auto canonical = canonical_allotment(instance, 1.0);
        if (!canonical.feasible ||
            !leq(canonical_area(instance, canonical), mu * machines)) {
          continue;  // Theorem 2's hypothesis not met; out of scope
        }
        const auto outcome = canonical_list_schedule(instance, 1.0, list_options);
        if (outcome.schedule) {
          worst = std::max(worst, outcome.schedule->makespan() / (2.0 * mu));
        }
      }
      worst_cell = std::max(worst_cell, worst);
      row.push_back(cell(worst, 3));
    }
    grid.add_row(row);
  }
  grid.print(std::cout);
  std::cout << "\n";
  claims.check(worst_cell < 1.0,
               label("the canonical list stays below 2*mu in every (mu, m) cell (worst ",
                     cell(worst_cell, 3), ")"));
  claims.check(m_at_mu >= 1 && m_at_mu <= 8,
               label("empirical m_mu at mu = sqrt(3)/2 is at most the refined anchor 8 (",
                     m_at_mu, ")"));
}

// ------------------------------------------------------------------ EXP-T1

// The headline claim: the sqrt(3) algorithm improves on the guarantee-2
// two-phase baselines (Turek/Wolf/Yu, Ludwig). Ratios are against the
// static bound max(area, critical path), the same for every algorithm; mrt's
// guarantee is checked against the certified bound its own search proves.
void guarantee(Claims& claims) {
  constexpr int kSeeds = 24;
  std::cout << "EXP-T1: makespan / static lower bound per algorithm and family\n";
  std::cout << "(" << kSeeds << " seeds per family, n = 2m tasks, m = 32; the paper's claim:\n";
  std::cout << " the sqrt(3)=1.732 guarantee beats the 2-guarantee two-phase methods)\n\n";

  const std::vector<WorkloadFamily> families{
      WorkloadFamily::kUniform,   WorkloadFamily::kBimodal,     WorkloadFamily::kHeavyTail,
      WorkloadFamily::kStairs,    WorkloadFamily::kPackedOpt1,  WorkloadFamily::kSequentialOnly};

  const std::vector<std::string> algos{"mrt",         "2phase-ffdh", "2phase-list",
                                       "3/2-shelves", "lpt-seq",     "gang"};

  const MrtOptions exact;
  TwoPhaseOptions ffdh;
  ffdh.rigid = RigidAlgo::kFfdh;
  TwoPhaseOptions list;
  list.rigid = RigidAlgo::kListSchedule;

  Guarantee mrt;
  BoundValidity static_bound;
  Table table({"family", "algorithm", "mean / static LB", "p95 / static LB", "max / static LB"});
  for (const auto family : families) {
    std::vector<std::vector<double>> ratios(algos.size());
    for (int seed = 0; seed < kSeeds; ++seed) {
      const auto instance = generated(family, 64, 32, 1000 + static_cast<std::uint64_t>(seed));
      const double lb = makespan_lower_bound(instance);

      const auto exact_result = mrt_schedule(instance, exact);
      mrt.add(exact_result, exact.search.epsilon);
      const std::array<double, 6> makespans{
          exact_result.makespan,
          two_phase_schedule(instance, ffdh).makespan,
          two_phase_schedule(instance, list).makespan,
          three_halves_schedule(instance).makespan,
          lpt_sequential_schedule(instance).makespan(),
          gang_schedule(instance).makespan()};
      for (std::size_t a = 0; a < algos.size(); ++a) {
        ratios[a].push_back(makespans[a] / lb);
        static_bound.add(makespans[a], lb);
      }
    }

    for (std::size_t a = 0; a < algos.size(); ++a) {
      Summary summary;
      for (const double r : ratios[a]) summary.add(r);
      table.add_row({to_string(family), algos[a], cell(summary.mean(), 3),
                     cell(percentile(ratios[a], 95.0), 3), cell(summary.max(), 3)});
    }
  }
  table.print(std::cout);
  std::cout << "\nguarantees: mrt sqrt(3)(1+eps) = 1.749 against its certified bound;\n"
            << "two-phase ~2 (Ludwig); lpt-seq and gang unbounded (anchors).\n\n";
  mrt.check(claims);
  static_bound.check(claims, "the static lower bound");
}

// ------------------------------------------------------------------ EXP-T2

// Runtime of the algorithm's pieces, matching the complexity claims of
// Theorems 2 and 3: the canonical list step O(n log n + n m), the two-shelf
// step dominated by the exact knapsack DP, O(n m) per guess, and the full
// solve O(log(1/eps)) dual steps. One run per row.
void runtime() {
  std::cout << "EXP-T2: single-shot wall time of the algorithm's pieces (Theorems 2, 3)\n";
  std::cout << "(one run per row, not checked: perfbench measures time)\n\n";

  const auto timed = [](const std::function<void()>& body) {
    const Stopwatch stopwatch;
    body();
    return stopwatch.millis();
  };
  const auto items = [](int count, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<KnapsackItem> drawn(static_cast<std::size_t>(count));
    for (auto& item : drawn) {
      item.weight = rng.uniform_int(1, 64);
      item.profit = rng.uniform_int(1, 64);
    }
    return drawn;
  };

  Table table({"piece", "size", "ms"});
  for (const int n : {16, 64, 256, 1024}) {
    const auto instance = generated(WorkloadFamily::kUniform, n, 64, 42);
    table.add_row({"full solve", label("n=", n, " m=64"),
                   cell(timed([&] { static_cast<void>(mrt_schedule(instance)); }), 3)});
  }
  for (const int m : {8, 32, 128, 512}) {
    const auto instance = generated(WorkloadFamily::kUniform, 128, m, 43);
    table.add_row({"full solve", label("n=128 m=", m),
                   cell(timed([&] { static_cast<void>(mrt_schedule(instance)); }), 3)});
  }
  for (const int n : {16, 64, 256, 1024}) {
    const auto instance = generated(WorkloadFamily::kUniform, n, 64, 44);
    const double guess = 1.2 * makespan_lower_bound(instance);
    table.add_row({"canonical list step", label("n=", n, " m=64"), cell(timed([&] {
                     static_cast<void>(canonical_list_schedule(instance, guess));
                   }), 3)});
  }
  for (const int m : {8, 32, 128, 512}) {
    const auto instance = generated(WorkloadFamily::kUniform, 128, m, 45);
    const double guess = 1.2 * makespan_lower_bound(instance);
    table.add_row({"two-shelf step, exact knapsack", label("n=128 m=", m), cell(timed([&] {
                     static_cast<void>(two_shelf_schedule(instance, guess));
                   }), 3)});
  }
  for (const int n : {16, 64, 256, 1024}) {
    const auto drawn = items(n, 46);
    table.add_row({"knapsack exact", label("items=", n, " capacity=", 8 * n), cell(timed([&] {
                     static_cast<void>(knapsack_exact(drawn, 8LL * n));
                   }), 3)});
  }
  table.print(std::cout);
  std::cout << "\ncomplexity: canonical list step O(n log n + n m); exact knapsack\n"
            << "O(items x capacity), capacity = 8 x items here; full solve O(log(1/eps))\n"
            << "dual steps.\n";
}

// ------------------------------------------------------------------ EXP-T3

// The Theorem 3 regime split: which dual branch fires as the load (canonical
// area W relative to mu*m) grows.
void regimes(Claims& claims) {
  std::cout << "EXP-T3: dual-branch usage versus load (m = 32, 16 seeds per load)\n";
  std::cout << "load = tasks per machine; W/mu*m measured at the final accepted guess\n\n";

  constexpr int kMachines = 32;
  constexpr int kSeeds = 16;
  const std::vector<double> loads{0.25, 0.5, 1.0, 2.0, 4.0, 8.0};

  Guarantee mrt;
  std::vector<double> area_fractions;
  std::vector<double> single_shelf_shares;
  bool list_takes_high_load = true;
  bool knapsack_above_threshold = true;
  Table table({"load n/m", "W/(mu*m*d)", "reject%", "1-shelf%", "knapsack%", "trivial%",
               "can-list%", "mal-list%", "ratio"});
  for (const double load : loads) {
    std::array<long long, kDualBranchCount> branches{};
    long long steps = 0;
    Summary area_fraction;
    Summary ratios;

    for (int seed = 0; seed < kSeeds; ++seed) {
      const auto instance = generated(WorkloadFamily::kUniform,
                                      std::max(1, static_cast<int>(load * kMachines)),
                                      kMachines, 7000 + static_cast<std::uint64_t>(seed));
      const auto result = mrt_schedule(instance);
      mrt.add(result, kDefaultEpsilon);
      ratios.add(result.ratio);
      for (int b = 0; b < kDualBranchCount; ++b) {
        branches[static_cast<std::size_t>(b)] += result.branch_counts[static_cast<std::size_t>(b)];
        steps += result.branch_counts[static_cast<std::size_t>(b)];
      }
      // Area condition at the final guess.
      const auto outcome = mrt_dual_step(instance, result.final_guess);
      if (outcome.canonical_area > 0.0) {
        area_fraction.add(outcome.canonical_area /
                          area_threshold(instance, result.final_guess));
      }
    }

    const auto share = [&](DualBranch branch) {
      return 100.0 * static_cast<double>(branches[static_cast<std::size_t>(branch)]) /
             static_cast<double>(steps);
    };
    const auto pct = [&](DualBranch branch) { return cell(share(branch), 1); };
    area_fractions.push_back(area_fraction.mean());
    single_shelf_shares.push_back(share(DualBranch::kSingleShelf));
    knapsack_above_threshold = knapsack_above_threshold &&
        (share(DualBranch::kTwoShelfKnapsack) > 0.0) == (area_fraction.mean() > 1.0);
    if (load >= 4.0) {
      list_takes_high_load = list_takes_high_load &&
          branches[static_cast<std::size_t>(DualBranch::kCanonicalList)] == steps;
    }
    table.add_row({cell(load, 2), cell(area_fraction.mean(), 2), pct(DualBranch::kRejected),
                   pct(DualBranch::kSingleShelf), pct(DualBranch::kTwoShelfKnapsack),
                   pct(DualBranch::kTwoShelfTrivial), pct(DualBranch::kCanonicalList),
                   pct(DualBranch::kMalleableList), cell(ratios.mean(), 3)});
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: single-shelf at low load; knapsack/list take over as\n"
            << "W crosses mu*m (column 2 passing 1.0).\n\n";

  bool falling = true;
  for (std::size_t i = 1; i < area_fractions.size(); ++i) {
    falling = falling && area_fractions[i] < area_fractions[i - 1];
  }
  claims.check(falling && area_fractions.front() > 1.0 && area_fractions.back() < 1.0,
               label("W/(mu*m*d) at the final guess falls strictly with load and crosses 1 (",
                     cell(area_fractions.front(), 2), " -> ", cell(area_fractions.back(), 2),
                     ")"));
  claims.check(knapsack_above_threshold,
               "the knapsack two-shelf takes steps exactly at the loads where W/(mu*m*d) > 1");
  claims.check(list_takes_high_load, "the canonical list takes every step at loads 4 and 8");
  claims.check(std::max_element(single_shelf_shares.begin(), single_shelf_shares.end()) ==
                       single_shelf_shares.begin() &&
                   std::count(single_shelf_shares.begin(), single_shelf_shares.end(),
                              single_shelf_shares.front()) == 1,
               label("single-shelf's share is highest at the lowest load (",
                     cell(single_shelf_shares.front(), 1), "%)"));
  mrt.check(claims);
}

// ------------------------------------------------------------------ EXP-T4

// Section 2.2's conversion: a rho-dual approximation plus dichotomic search
// yields a rho*(1+2^-k)-approximation in k extra iterations.
void dual_convergence(Claims& claims) {
  std::cout << "EXP-T4: dichotomic-search convergence (m = 32, n = 64, 16 seeds)\n\n";

  constexpr int kSeeds = 16;
  Guarantee mrt;
  bool iterations_never_fall = true;
  bool below_bound = true;
  int total_gaps = 0;
  double previous_iterations = 0.0;
  Table table({"epsilon", "bound sqrt(3)(1+eps)", "mean iters", "mean ratio", "max ratio",
               "gaps"});
  for (const double eps : {0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002}) {
    Summary iterations;
    Summary ratios;
    int gaps = 0;
    MrtOptions options;
    options.search.epsilon = eps;
    for (int seed = 0; seed < kSeeds; ++seed) {
      const auto instance =
          generated(WorkloadFamily::kUniform, 64, 32, 4000 + static_cast<std::uint64_t>(seed));
      const auto result = mrt_schedule(instance, options);
      mrt.add(result, eps);
      iterations.add(static_cast<double>(result.iterations));
      ratios.add(result.ratio);
      gaps += result.gaps;
    }
    iterations_never_fall = iterations_never_fall && iterations.mean() >= previous_iterations;
    previous_iterations = iterations.mean();
    below_bound = below_bound && ratios.max() < kSqrt3 * (1.0 + eps);
    total_gaps += gaps;
    table.add_row({cell(eps, 3), cell(kSqrt3 * (1.0 + eps), 3), cell(iterations.mean(), 1),
                   cell(ratios.mean(), 4), cell(ratios.max(), 4), cell(gaps)});
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: iterations ~ log2(1/eps) extra steps; ratio always\n"
            << "below the bound column; zero gaps (Theorem 3's completeness).\n\n";
  claims.check(iterations_never_fall, "mean iterations never fall as eps shrinks");
  claims.check(total_gaps == 0, "no gap at any eps");
  claims.check(below_bound, "the max ratio stays below sqrt(3)(1+eps) at every eps");
  mrt.check(claims);
}

// ------------------------------------------------------------------ EXP-T5

// Head-to-head comparison the paper's Section 5 anticipates ("experiments
// are currently under progress"): the sqrt(3) scheduler against every
// baseline, per workload family, including the paper-motivating ocean
// workload and a moldable batch trace. Every algorithm is dispatched
// through the SolverRegistry, the production entry point.
void baselines(Claims& claims) {
  constexpr int kSeeds = 16;
  std::cout << "EXP-T5: baseline makespans relative to the sqrt(3) scheduler\n";
  std::cout << "(mean of baseline/MRT per family; >1 means MRT is better; win% = share\n";
  std::cout << " of seeds where MRT is strictly shorter)\n\n";

  struct Source {
    std::string name;
    std::function<Instance(std::uint64_t)> make;
  };
  std::vector<Source> sources;
  for (const auto family :
       {WorkloadFamily::kUniform, WorkloadFamily::kBimodal, WorkloadFamily::kHeavyTail,
        WorkloadFamily::kStairs, WorkloadFamily::kPackedOpt1}) {
    sources.push_back({to_string(family), [family](std::uint64_t seed) {
                         return generated(family, 64, 32, seed);
                       }});
  }
  sources.push_back({"ocean-amr", [](std::uint64_t seed) {
                       OceanOptions options;
                       options.machines = 32;
                       return ocean_instance(options, seed);
                     }});
  sources.push_back({"batch-trace", [](std::uint64_t seed) {
                       TraceOptions options;
                       options.machines = 32;
                       options.jobs = 48;
                       return trace_snapshot(options, seed);
                     }});

  struct Baseline {
    std::string display;
    std::string solver;
    SolverOptions options;
  };
  const std::vector<Baseline> baselines{
      {"2phase-ffdh", "two_phase", SolverOptions::from_string("rigid=ffdh")},
      {"2phase-nfdh", "two_phase", SolverOptions::from_string("rigid=nfdh")},
      {"2phase-list", "two_phase", SolverOptions::from_string("rigid=list")},
      {"3/2-shelves", "two_shelves_32", {}},
      {"half-speedup", "naive", SolverOptions::from_string("policy=half-speedup")},
      {"lpt-seq", "naive", SolverOptions::from_string("policy=lpt-seq")},
      {"gang", "naive", SolverOptions::from_string("policy=gang")},
  };

  const auto& registry = SolverRegistry::global();
  Guarantee mrt;
  BoundValidity result_bound;
  Table table({"family", "baseline", "baseline/MRT mean", "baseline/MRT max", "MRT win%"});
  for (const auto& source : sources) {
    std::vector<std::vector<double>> rel(baselines.size());
    for (int seed = 0; seed < kSeeds; ++seed) {
      const auto instance =
          InstanceHandle::intern(source.make(9000 + static_cast<std::uint64_t>(seed)));
      const auto reference = registry.solve(SolveRequest("mrt", {}, instance));
      mrt.add(reference.makespan, reference.lower_bound, reference.stat("gaps"), kDefaultEpsilon);
      result_bound.add(reference.makespan, reference.lower_bound);
      for (std::size_t b = 0; b < baselines.size(); ++b) {
        const auto result =
            registry.solve(SolveRequest(baselines[b].solver, baselines[b].options, instance));
        result_bound.add(result.makespan, result.lower_bound);
        rel[b].push_back(result.makespan / reference.makespan);
      }
    }
    for (std::size_t b = 0; b < baselines.size(); ++b) {
      Summary summary;
      int wins = 0;
      for (const double r : rel[b]) {
        summary.add(r);
        wins += r > 1.0 + 1e-9;
      }
      table.add_row({source.name, baselines[b].display, cell(summary.mean(), 3),
                     cell(summary.max(), 3),
                     cell(100.0 * wins / static_cast<double>(kSeeds), 0)});
    }
  }
  table.print(std::cout);
  std::cout << "\n";
  mrt.check(claims);
  result_bound.check(claims, "the lower bound its registry result reports");
}

// ------------------------------------------------------------------ EXP-T6

// Ablations of the design choices: compaction, the appendix's reallocation
// rule, and picking the best branch instead of the
// first guaranteed one. Each feature should be neutral-or-better on
// makespan. The last two variants
// switch constructions off, so Theorem 3's case split no longer covers every
// guess; their gaps are what the ablation measures and they are exempt from
// the guarantee claim.
void ablation(Claims& claims) {
  std::cout << "EXP-T6: ablations (makespan relative to the default configuration;\n";
  std::cout << " <1 better, >1 worse; m = 32, n = 64, 20 seeds, mixed families)\n\n";

  constexpr int kSeeds = 20;

  struct Variant {
    std::string name;
    std::function<void(MrtOptions&)> configure;
  };
  const std::vector<Variant> variants{
      {"default (compaction+realloc, exact knapsack)", [](MrtOptions&) {}},
      {"no compaction", [](MrtOptions& options) { options.use_compaction = false; }},
      {"no reallocation rule",
       [](MrtOptions& options) { options.canonical_list.use_reallocation = false; }},
      {"pick best branch", [](MrtOptions& options) { options.pick_best_branch = true; }},
      {"two-shelf disabled", [](MrtOptions& options) { options.enable_two_shelf = false; }},
      {"lists disabled",
       [](MrtOptions& options) {
         options.enable_canonical_list = false;
         options.enable_malleable_list = false;
       }},
  };

  // Alternate between low load (two-shelf territory) and high load (list
  // territory) so both halves of the algorithm are ablated.
  std::vector<Instance> instances;
  for (const auto family :
       {WorkloadFamily::kUniform, WorkloadFamily::kBimodal, WorkloadFamily::kPackedOpt1}) {
    for (int seed = 0; seed < kSeeds; ++seed) {
      instances.push_back(generated(family, seed % 2 == 0 ? 16 : 64, 32,
                                    5500 + static_cast<std::uint64_t>(seed)));
    }
  }
  Guarantee mrt;
  std::vector<double> base_makespans;
  for (const auto& instance : instances) {
    const auto base = mrt_schedule(instance);
    mrt.add(base, kDefaultEpsilon);
    base_makespans.push_back(base.makespan);
  }

  Table table({"variant", "makespan vs default", "worst case vs default", "mean ratio to LB",
               "gaps"});
  for (const auto& variant : variants) {
    MrtOptions options;
    variant.configure(options);
    const bool complete = options.enable_two_shelf && options.enable_canonical_list &&
                          options.enable_malleable_list;
    Summary relative;
    Summary ratio;
    int gaps = 0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const auto result = mrt_schedule(instances[i], options);
      if (complete) mrt.add(result, options.search.epsilon);
      relative.add(result.makespan / base_makespans[i]);
      ratio.add(result.ratio);
      gaps += result.gaps;
    }
    table.add_row({variant.name, cell(relative.mean(), 4), cell(relative.max(), 4),
                   cell(ratio.mean(), 4), cell(gaps)});
  }
  table.print(std::cout);
  std::cout << "\nnote: 'lists disabled' relies on the knapsack branch alone and may gap\n"
            << "on low-load guesses; the combined algorithm never does.\n\n";
  mrt.check(claims);
}

// ------------------------------------------------------------------ EXP-T7

// Extension, the paper's Section 5 future work: precedence graphs of
// malleable tasks. The layered scheduler (sqrt(3) algorithm per precedence
// level) against the event-driven ready list on trees (the paper's ocean
// application shape) and layered DAGs.
void graphs(Claims& claims) {
  std::cout << "EXP-T7 (extension): precedence graphs -- layered sqrt(3) vs ready-list\n";
  std::cout << "(ratios to the DAG lower bound max(area, weighted critical path))\n\n";

  constexpr int kSeeds = 12;
  struct Case {
    std::string name;
    std::string shape;
    std::function<TaskGraph(std::uint64_t)> make;
  };
  const std::vector<Case> cases{
      {"out-tree", "40 nodes, m=32",
       [](std::uint64_t seed) { return random_out_tree(TreeWorkloadOptions{}, seed); }},
      {"wide dag", "3 layers x 16, m=32",
       [](std::uint64_t seed) {
         LayeredDagOptions options;
         options.layers = 3;
         options.width = 16;
         return random_layered_dag(options, seed);
       }},
      {"deep dag", "12 layers x 3, m=32",
       [](std::uint64_t seed) {
         LayeredDagOptions options;
         options.layers = 12;
         options.width = 3;
         return random_layered_dag(options, seed);
       }},
  };

  BoundValidity dag_bound;
  Table table({"graph", "shape", "layered mean", "layered max", "ready-list mean",
               "ready-list max", "layered wins%"});
  for (const auto& test_case : cases) {
    Summary layered;
    Summary ready;
    int wins = 0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      const auto graph = test_case.make(3000 + static_cast<std::uint64_t>(seed));
      const auto a = layered_graph_schedule(graph);
      const auto b = ready_list_graph_schedule(graph);
      dag_bound.add(a.makespan, a.lower_bound);
      dag_bound.add(b.makespan, b.lower_bound);
      layered.add(a.ratio);
      ready.add(b.ratio);
      wins += a.makespan < b.makespan;
    }
    table.add_row({test_case.name, test_case.shape, cell(layered.mean(), 3),
                   cell(layered.max(), 3), cell(ready.mean(), 3), cell(ready.max(), 3),
                   cell(100.0 * wins / kSeeds, 0)});
  }
  table.print(std::cout);
  std::cout << "\nnote: ratios are against a lower bound that ignores precedence-induced\n"
            << "idling, so values well above sqrt(3) on deep graphs are expected.\n\n";
  dag_bound.check(claims, "the DAG lower bound");
}

}  // namespace

int main() {
  Claims claims;
  figure8(claims);
  std::cout << "\n";
  guarantee(claims);
  std::cout << "\n";
  runtime();
  std::cout << "\n";
  regimes(claims);
  std::cout << "\n";
  dual_convergence(claims);
  std::cout << "\n";
  baselines(claims);
  std::cout << "\n";
  ablation(claims);
  std::cout << "\n";
  graphs(claims);
  std::cout << "\nbench_paper: " << claims.checked() << " claims checked, " << claims.failed()
            << " failed\n";
  return claims.failed() == 0 ? 0 : 1;
}
