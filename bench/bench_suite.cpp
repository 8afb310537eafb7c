// The unified benchmark harness: one registry-driven sweep over
// solvers x workload families that replaces the free-form text output of the
// per-experiment bench mains with a machine-readable artifact.
//
// Every case dispatches through the SchedulerService (the production serving
// path: persistent workers, ordered delivery, optional solve cache, in-flight
// dedup) as an API-v2 SolveRequest -- each (family, seed) instance is
// interned into an InstanceHandle exactly once, so every cache key across
// the whole sweep reuses the one precomputed fingerprint. The result lands
// in BENCH_<rev>.json: per case, the makespan ratio against the certified
// lower bound, wall time (steady clock, worker-observed -- a cache hit or
// dedup join records its serving latency, not the original solve), solver,
// options, family, seed, size, and how the case was served (cache_hit,
// dedup_join). CI runs `bench_suite --smoke` on every PR, validates the file
// against bench/bench_schema.json, and uploads it -- the perf trajectory of
// the repo is the sequence of these files.
//
// The `contention` pseudo-family is a second phase rather than a grid cell:
// it sweeps the ShardedSchedulerService across shard counts (1 -> 8) under 8
// client threads hammering a cache-hit-heavy request mix, records served QPS
// per shard count, and cross-checks that the outcome bytes are identical at
// every shard count (the artifact carries the digest; a mismatch fails the
// run). Total worker threads are held fixed across the sweep, so the rows
// isolate the serialization cost of the shared service locks -- the thing
// sharding exists to remove.
//
//   ./build/bench/bench_suite --smoke
//   ./build/bench/bench_suite --rev abc1234 --threads 8 --seeds 8
//   ./build/bench/bench_suite --solvers mrt,two_phase-ffdh --families uniform,ocean
//   ./build/bench/bench_suite --families contention   # the shard sweep alone
//   ./build/bench/bench_suite --list

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/scheduler_service.hpp"
#include "api/sharded_service.hpp"
#include "api/stats_json.hpp"
#include "graph/task_graph.hpp"
#include "registry/solver_registry.hpp"
#include "support/stopwatch.hpp"
#include "support/parallel_for.hpp"
#include "support/json.hpp"
#include "support/statistics.hpp"
#include "support/table.hpp"
#include "workload/generators.hpp"
#include "workload/ocean.hpp"
#include "workload/trace.hpp"

namespace {

using namespace malsched;

// v8 (stats exhaustiveness): the run summary carries a required
// service_stats object -- the FULL ServiceStats snapshot of the grid-phase
// service, serialized by the shared api/stats_json.cpp writer (the repo
// linter enforces that the struct, the sharded rollup, the writer, and the
// schema list every field). v7 (open-loop load): the schema now also
// describes bench_load's
// LOAD_<rev>.json artifacts via OPTIONAL per-case fields (process,
// offered_qps, policy, queue_discipline, requests, completed,
// deadline_miss_rate / shed_rate / fallback_rate, queue_depth_high_water,
// fast_path_hits, trace_digest, latency_histogram) plus an optional
// top-level saturation_qps -- this suite's rows are unchanged, only the
// version pin moves. v6 (robustness): cases gained "fallback_used" (whether
// the service answered the case with the configured degradation fallback
// solver; null on contention rows), the run summary "deadline_misses" and
// "fallbacks" (ServiceStats counters over the grid phase), and error_code
// admits the deadline_exceeded/rejected classes. v5 (sharded serving) added
// the contention-row fields "shard"/"qps"/"digest" (null for grid cases);
// v4 "dedup_join"; v3 "cache_hit" and service-path wall_seconds.
constexpr int kSchemaVersion = 8;

/// One swept solver configuration (display name = registry name + variant).
struct SolverConfig {
  std::string name;    ///< display/selection name, e.g. "two_phase-ffdh"
  std::string solver;  ///< registry name
  std::string options; ///< option spec string
  bool cached{false};  ///< consult/populate the service solve cache
};

/// One swept workload family; `make` draws the instance for a seed.
struct FamilyConfig {
  std::string name;
  std::function<Instance(int tasks, int machines, std::uint64_t seed)> make;
};

std::vector<SolverConfig> all_solver_configs() {
  return {
      {"mrt", "mrt", ""},
      // The same algorithm without the DualWorkspace fast path (recomputes
      // canonical allotments/sorts per branch, allocates per step): the
      // in-artifact before/after for the workspace speedup, byte-identical
      // schedules by construction.
      {"mrt-legacy", "mrt", "workspace=0"},
      // Breakpoint-snapped dual search (different guess sequence, fewer
      // rejected iterations; same certified-bound soundness).
      {"mrt-snapped", "mrt", "snap=1"},
      // mrt through the service solve cache: on the repeated family every
      // seed after the first is a content-hash hit (deterministically so at
      // --threads 1, which is how the committed trajectory artifacts are
      // recorded; with more workers, racing duplicates can each miss before
      // the first insert lands, so the hit count wobbles -- which is why
      // compare_bench_json exempts cells whose hit fraction changed). The
      // cell's mean wall against plain "mrt" is the measured cache speedup.
      {"mrt-cached", "mrt", "", /*cached=*/true},
      {"two_phase-ffdh", "two_phase", "rigid=ffdh"},
      {"two_phase-list", "two_phase", "rigid=list"},
      {"naive-lpt-seq", "naive", "policy=lpt-seq"},
      {"two_shelves_32", "two_shelves_32", ""},
      {"graph-layered", "graph", "strategy=layered"},
  };
}

std::vector<FamilyConfig> all_family_configs() {
  std::vector<FamilyConfig> families;
  for (const auto family : all_workload_families()) {
    families.push_back({to_string(family), [family](int tasks, int machines, std::uint64_t seed) {
                          GeneratorOptions options;
                          options.tasks = tasks;
                          options.machines = machines;
                          return generate_instance(family, options, seed);
                        }});
  }
  families.push_back({"ocean", [](int tasks, int machines, std::uint64_t seed) {
                        OceanOptions options;
                        options.machines = machines;
                        // Block count is driven by refinement; scale the base
                        // grid so it tracks the requested task count.
                        options.base_grid = tasks <= 32 ? 4 : 8;
                        return ocean_instance(options, seed);
                      }});
  families.push_back({"trace", [](int tasks, int machines, std::uint64_t seed) {
                        TraceOptions options;
                        options.machines = machines;
                        options.jobs = tasks;
                        return trace_snapshot(options, seed);
                      }});
  // Tree-structured node sets (sparse-linear-algebra style workloads); the
  // registry schedules the flattened task set.
  families.push_back({"graph-tree", [](int tasks, int machines, std::uint64_t seed) {
                        TreeWorkloadOptions options;
                        options.machines = machines;
                        options.tasks = tasks;
                        return random_out_tree(options, seed).instance();
                      }});
  // Repeated-instance workload: every seed draws the SAME instance (a queue
  // daemon re-evaluating one snapshot), which is what the solve cache is
  // for -- sweep it with mrt-cached vs mrt for the measured speedup.
  families.push_back({"repeated", [](int tasks, int machines, std::uint64_t) {
                        GeneratorOptions options;
                        options.tasks = tasks;
                        options.machines = machines;
                        // Fixed seed OUTSIDE the sweep's 9000+s range so the
                        // cell's first case is a genuine miss (the content
                        // hash would otherwise hit the uniform family's
                        // same-seed instance from earlier in the sweep).
                        return generate_instance(WorkloadFamily::kUniform, options, 777);
                      }});
  // The dedup variant of `repeated`: same shape (one instance, every seed),
  // its own fixed seed so its content hash collides with nothing else in
  // the sweep. On cached configs with >1 worker the duplicate submissions
  // race: before API v2 each racer missed and solved; now they coalesce
  // onto the first in-flight solve and the case records dedup_join=true.
  // At --threads 1 (how trajectory artifacts are recorded) the duplicates
  // serialize into plain cache hits -- the dedup signal lives in the
  // multi-threaded CI smoke runs.
  families.push_back({"repeated-dedup", [](int tasks, int machines, std::uint64_t) {
                        GeneratorOptions options;
                        options.tasks = tasks;
                        options.machines = machines;
                        return generate_instance(WorkloadFamily::kUniform, options, 888);
                      }});
  // Wall-clock scaling ladder: the seed index picks n, 2n, 4n, or 8n tasks,
  // so one sweep measures how each solver's runtime grows with the instance
  // (at --tasks 1250 the ladder tops out around 10k tasks). Uniform mixed
  // profiles -- the workload the workspace hot path is sized for.
  families.push_back({"runtime-scaling", [](int tasks, int machines, std::uint64_t seed) {
                        GeneratorOptions options;
                        options.tasks = tasks * (1 << (seed % 4));
                        options.machines = machines;
                        // Family-unique seed base: rung 0 has the same task
                        // count as the plain uniform family, and an
                        // identical (content-hashed!) instance would turn
                        // the cached config's scaling rungs into cache hits.
                        return generate_instance(WorkloadFamily::kUniform, options,
                                                 40000 + seed);
                      }});
  return families;
}

// ------------------------------------------------------- contention phase

/// One row of the shard-count sweep: fixed workload, fixed total workers,
/// 8 client threads; only the shard count varies.
struct ContentionRow {
  unsigned shards{1};
  unsigned workers_per_shard{1};
  std::uint64_t requests{0};
  double wall_seconds{0.0};
  double qps{0.0};
  double mean_makespan{0.0};
  double mean_lower_bound{0.0};
  double mean_ratio{0.0};
  std::string digest;  ///< hex FNV-1a over the canonicalized outcomes
};

/// Canonical-order digest over (makespan, lower_bound, ratio) of every
/// outcome, formatted with the same %.17g precision JsonWriter emits. Equal
/// digests across shard counts are the byte-identity proof the artifact
/// carries: same request sequence, same result bytes, shards be damned.
std::string contention_digest(const std::vector<std::vector<SolveOutcome>>& per_thread) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&hash](const char* data, int length) {
    for (int i = 0; i < length; ++i) {
      hash ^= static_cast<unsigned char>(data[i]);
      hash *= 1099511628211ULL;  // FNV prime
    }
  };
  char buffer[96];
  for (const auto& outcomes : per_thread) {
    for (const auto& outcome : outcomes) {
      const int written =
          std::snprintf(buffer, sizeof buffer, "%.17g|%.17g|%.17g;", outcome.result->makespan,
                        outcome.result->lower_bound, outcome.result->ratio);
      mix(buffer, written);
    }
  }
  const int written = std::snprintf(buffer, sizeof buffer, "%016llx",
                                    static_cast<unsigned long long>(hash));
  return std::string(buffer, static_cast<std::size_t>(written));
}

/// Runs the sweep: for each shard count, 8 client threads round-robin a
/// cache-hit-heavy request mix (every thread touches every instance, offset
/// so the per-(thread, index) content is a fixed function -- the digest's
/// canonical order) through a ShardedSchedulerService with the TOTAL worker
/// count held fixed. Returns one row per shard count; exits 1 from the
/// caller on digest disagreement.
std::vector<ContentionRow> run_contention_phase(int tasks, int machines, bool smoke,
                                                unsigned fill_threads) {
  constexpr unsigned kClientThreads = 8;
  const int distinct = smoke ? 8 : 32;
  const int per_thread = smoke ? 32 : 1024;
  // Single runs of this phase finish in tens of milliseconds, where OS
  // scheduling noise swamps the signal; each shard count keeps its
  // best-of-kReps wall time (the digest must agree across EVERY rep -- a
  // determinism check, not a statistics one).
  const int reps = smoke ? 1 : 3;

  // Family-unique seed base (see the sweep families): the contention pool
  // must collide with nothing else interned by this process.
  std::vector<InstanceHandle> handles(static_cast<std::size_t>(distinct));
  parallel_for(handles.size(), [&](std::size_t i) {
    GeneratorOptions options;
    options.tasks = tasks;
    options.machines = machines;
    handles[i] = InstanceHandle::intern(
        generate_instance(WorkloadFamily::kUniform, options, 50000 + static_cast<std::uint64_t>(i)));
  }, fill_threads);

  std::vector<ContentionRow> rows;
  for (const unsigned shard_count : {1u, 2u, 4u, 8u}) {
    ContentionRow best;
    for (int rep = 0; rep < reps; ++rep) {
      ContentionRow row;
      row.shards = shard_count;
      row.workers_per_shard = std::max(1u, kClientThreads / shard_count);
      row.requests = static_cast<std::uint64_t>(kClientThreads) * per_thread;

      ServiceConfig config;
      config.threads = row.workers_per_shard;
      ShardedSchedulerService service(config, shard_count);

      std::vector<std::vector<SolveOutcome>> per_thread_outcomes(kClientThreads);
      const Stopwatch stopwatch;
      {
        std::vector<std::thread> clients;
        clients.reserve(kClientThreads);
        for (unsigned t = 0; t < kClientThreads; ++t) {
          clients.emplace_back([&service, &handles, &per_thread_outcomes, per_thread, distinct,
                                t] {
            auto& outcomes = per_thread_outcomes[t];
            outcomes.reserve(static_cast<std::size_t>(per_thread));
            for (int i = 0; i < per_thread; ++i) {
              // Fixed per-(thread, index) content: thread t starts at its own
              // offset and strides through the pool, so every thread
              // exercises every instance and the digest order is
              // deterministic. Closed loop (submit, then wait) -- the shape a
              // synchronous front end has; steady-state requests are
              // submit-time cache hits, so per-request cost is the shard's
              // lock work, the thing the shard count divides.
              const auto& handle =
                  handles[static_cast<std::size_t>((static_cast<int>(t) + 3 * i) % distinct)];
              outcomes.push_back(service.wait(service.submit({"mrt", {}, handle})));
            }
          });
        }
        for (auto& client : clients) client.join();
      }
      row.wall_seconds = stopwatch.seconds();
      row.qps = row.wall_seconds > 0 ? static_cast<double>(row.requests) / row.wall_seconds : 0.0;

      Summary makespans;
      Summary lower_bounds;
      Summary ratios;
      for (const auto& outcomes : per_thread_outcomes) {
        for (const auto& outcome : outcomes) {
          if (outcome.status != SolveStatus::kOk || !outcome.result) {
            std::cerr << "contention: request failed at " << shard_count
                      << " shards: " << outcome.error.detail << "\n";
            std::exit(1);
          }
          makespans.add(outcome.result->makespan);
          lower_bounds.add(outcome.result->lower_bound);
          ratios.add(outcome.result->ratio);
        }
      }
      row.mean_makespan = makespans.mean();
      row.mean_lower_bound = lower_bounds.mean();
      row.mean_ratio = ratios.mean();
      row.digest = contention_digest(per_thread_outcomes);
      if (!best.digest.empty() && best.digest != row.digest) {
        std::cerr << "contention: digest disagreement between reps at " << shard_count
                  << " shards: " << best.digest << " vs " << row.digest << "\n";
        std::exit(1);
      }
      if (best.digest.empty() || row.qps > best.qps) best = std::move(row);
    }
    rows.push_back(std::move(best));
  }
  return rows;
}

template <typename Config>
std::vector<Config> select(const std::vector<Config>& all, const std::string& csv,
                           const char* what) {
  if (csv.empty()) return all;
  std::vector<Config> picked;
  std::stringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    bool found = false;
    for (const auto& config : all) {
      if (config.name == token) {
        picked.push_back(config);
        found = true;
        break;
      }
    }
    if (!found) {
      std::cerr << "unknown " << what << " '" << token << "' (see --list)\n";
      std::exit(2);
    }
  }
  return picked;
}

void print_usage(std::ostream& out) {
  out <<
      "usage: bench_suite [options]\n"
      "  --smoke            small CI sweep: 2 seeds, 24 tasks, 12 machines\n"
      "                     (an explicit --seeds/--tasks/--machines wins)\n"
      "  --seeds N          seeds per (solver, family) cell   [8]\n"
      "  --tasks N          tasks per instance                [64]\n"
      "  --machines M       processors per instance           [32]\n"
      "  --threads N        batch worker threads, 0 = cores   [0]\n"
      "  --solvers CSV      subset of solver configs          [all]\n"
      "  --families CSV     subset of workload families       [all]\n"
      "                     ('contention' selects the shard-count sweep,\n"
      "                     which otherwise runs after the full grid)\n"
      "  --rev STR          revision stamp for the artifact   [local]\n"
      "  --out FILE         output path                       [BENCH_<rev>.json]\n"
      "  --list             print solver configs and families, then exit\n";
}

int usage() {
  print_usage(std::cerr);
  return 2;
}

/// std::stoi with the tool's usage-error behavior instead of an uncaught
/// exception (SIGABRT) on `--seeds many`; values below `min` are rejected
/// here so a negative typo cannot masquerade as the unset sentinel.
int parse_int(const std::string& value, const std::string& flag, int min) {
  try {
    std::size_t used = 0;
    const int parsed = std::stoi(value, &used);
    if (used == value.size()) {
      if (parsed < min) {
        std::cerr << flag << " must be >= " << min << ", got " << parsed << "\n";
        std::exit(2);
      }
      return parsed;
    }
  } catch (const std::exception&) {
  }
  std::cerr << flag << " expects an integer, got '" << value << "'\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int seeds = -1;  // -1 = unset; resolved after parsing (smoke vs full defaults)
  int tasks = -1;
  int machines = -1;
  unsigned threads = 0;
  std::string solvers_csv;
  std::string families_csv;
  std::string rev = "local";
  std::string out_path;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto next = [&]() -> std::string {
      if (a + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--seeds") {
      seeds = parse_int(next(), arg, 1);
    } else if (arg == "--tasks") {
      tasks = parse_int(next(), arg, 1);
    } else if (arg == "--machines") {
      machines = parse_int(next(), arg, 1);
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(parse_int(next(), arg, 0));
    } else if (arg == "--solvers") {
      solvers_csv = next();
    } else if (arg == "--families") {
      families_csv = next();
    } else if (arg == "--rev") {
      rev = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--list") {
      std::cout << "solver configs:\n";
      for (const auto& config : all_solver_configs()) {
        std::cout << "  " << config.name << "  (" << config.solver
                  << (config.options.empty() ? "" : ", " + config.options)
                  << (config.cached ? ", solve cache on" : "") << ")\n";
      }
      std::cout << "families:\n";
      for (const auto& family : all_family_configs()) std::cout << "  " << family.name << "\n";
      std::cout << "  contention  (shard-count sweep phase; see the header comment)\n";
      // Per-solver option help straight from the registry's OptionSpec
      // tables -- the same source the CLI and the validation path use.
      std::cout << "solver options:\n";
      const auto& registry = SolverRegistry::global();
      for (const auto& name : registry.names()) {
        std::cout << "  " << name << ":\n" << registry.option_help(name, "    ");
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else {
      std::cerr << "unknown option " << arg << "\n";
      return usage();
    }
  }
  // Smoke shrinks the defaults only; explicit flags win regardless of order
  // (parse_int already rejected anything below 1, so -1 still means unset).
  if (seeds < 0) seeds = smoke ? 2 : 8;
  if (tasks < 0) tasks = smoke ? 24 : 64;
  if (machines < 0) machines = smoke ? 12 : 32;
  if (out_path.empty()) out_path = "BENCH_" + rev + ".json";

  const auto solvers = select(all_solver_configs(), solvers_csv, "solver config");
  // `contention` is selected like a family but runs as its own phase (it
  // sweeps shard counts over one fixed workload instead of joining the
  // solver x family grid): peel it out of the CSV before grid selection.
  // With no --families at all, both the grid and the phase run.
  bool run_contention = families_csv.empty();
  std::string grid_families_csv;
  {
    std::stringstream stream(families_csv);
    std::string token;
    while (std::getline(stream, token, ',')) {
      if (token == "contention") {
        run_contention = true;
      } else {
        grid_families_csv += (grid_families_csv.empty() ? "" : ",") + token;
      }
    }
  }
  const bool run_grid = families_csv.empty() || !grid_families_csv.empty();
  const auto families = run_grid
      ? select(all_family_configs(), grid_families_csv, "family")
      : std::vector<FamilyConfig>{};

  // Build the full case list up front (stable order: solver, family, seed),
  // then fan it out through the production batch path in one run.
  struct CaseMeta {
    const SolverConfig* solver;
    const FamilyConfig* family;
    std::uint64_t seed;
    int tasks;
    int machines;
  };
  // Each (family, seed) instance is generated and INTERNED once, shared by
  // every solver config -- generation (ocean quadtrees, traces, trees) is
  // not free, and the handle carries the content fingerprint + static lower
  // bound with it, so no layer below re-derives either for any of the
  // sweep's requests. Generators are pure functions of their seed, so the
  // fill parallelizes like the solves.
  std::vector<InstanceHandle> pool(families.size() * static_cast<std::size_t>(seeds));
  parallel_for(pool.size(), [&](std::size_t i) {
    const auto& family = families[i / static_cast<std::size_t>(seeds)];
    const auto s = i % static_cast<std::size_t>(seeds);
    pool[i] = InstanceHandle::intern(
        family.make(tasks, machines, 9000 + static_cast<std::uint64_t>(s)));
  }, threads);

  std::vector<CaseMeta> cases;
  std::vector<SolveRequest> requests;
  for (const auto& solver : solvers) {
    const auto options = SolverOptions::from_string(solver.options);
    for (std::size_t f = 0; f < families.size(); ++f) {
      for (int s = 0; s < seeds; ++s) {
        const auto& handle = pool[f * static_cast<std::size_t>(seeds) +
                                  static_cast<std::size_t>(s)];
        cases.push_back({&solver, &families[f], 9000 + static_cast<std::uint64_t>(s),
                         handle.instance().size(), handle.instance().machines()});
        // Only configs marked `cached` consult the solve cache (and with it
        // the in-flight dedup), so plain configs keep measuring real solves.
        requests.emplace_back(solver.solver, options, handle, solver.cached);
      }
    }
  }

  // The production serving path: one long-lived service, requests submitted
  // in case order, outcomes collected by ticket.
  ServiceConfig service_options;
  service_options.threads = threads;
  const Stopwatch run_stopwatch;
  SchedulerService service(service_options);
  const std::vector<JobTicket> tickets = service.submit(std::move(requests));
  service.drain();
  std::vector<SolveOutcome> outcomes;
  outcomes.reserve(tickets.size());
  for (const auto ticket : tickets) outcomes.push_back(service.wait(ticket));
  const double run_wall = run_stopwatch.seconds();
  const ServiceStats service_stats = service.stats();
  std::size_t ok_count = 0;
  std::size_t error_count = 0;
  std::size_t cancelled_count = 0;
  for (const auto& outcome : outcomes) {
    switch (outcome.status) {
      case SolveStatus::kOk: ++ok_count; break;
      case SolveStatus::kError: ++error_count; break;
      case SolveStatus::kCancelled: ++cancelled_count; break;
    }
  }

  // ------------------------------------------------ contention shard sweep
  std::vector<ContentionRow> contention_rows;
  if (run_contention) {
    contention_rows = run_contention_phase(tasks, machines, smoke, threads);
    // The determinism contract, enforced: the same request sequence must
    // produce the same outcome bytes at every shard count.
    for (const auto& row : contention_rows) {
      if (row.digest != contention_rows.front().digest) {
        std::cerr << "contention: outcome digest at " << row.shards << " shards ("
                  << row.digest << ") differs from " << contention_rows.front().shards
                  << " shards (" << contention_rows.front().digest
                  << ") -- sharding changed the results\n";
        return 1;
      }
    }
    ok_count += contention_rows.size();  // each row is one artifact case
  }

  // ------------------------------------------------------------- artifact
  JsonWriter json;
  json.begin_object();
  json.kv("schema_version", kSchemaVersion);
  json.kv("rev", rev);
  json.kv("smoke", smoke);
  json.kv("threads", service.threads());
  json.kv("ok", ok_count);
  json.kv("errors", error_count);
  json.kv("cancelled", cancelled_count);
  // v6: robustness counters from the grid-phase service. The suite runs
  // without deadlines or a degrade policy, so both are zero here unless a
  // future sweep arms them -- recorded so the artifact says so explicitly.
  json.kv("deadline_misses", service_stats.deadline_misses);
  json.kv("fallbacks", service_stats.fallbacks);
  json.kv("wall_seconds", run_wall);
  // v8: the full grid-phase service counter snapshot, shared shape with
  // bench_load (write_service_stats emits every ServiceStats field; the
  // repo linter enforces that exhaustively).
  json.key("service_stats");
  write_service_stats(json, service_stats);
  json.key("cases");
  json.begin_array();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& meta = cases[i];
    const auto& outcome = outcomes[i];
    json.begin_object();
    json.kv("solver", meta.solver->solver);
    json.kv("config", meta.solver->name);
    json.kv("options", meta.solver->options);
    json.kv("family", meta.family->name);
    json.kv("seed", meta.seed);
    json.kv("tasks", meta.tasks);
    json.kv("machines", meta.machines);
    json.kv("status", to_string(outcome.status));
    if (outcome.result) {
      json.kv("makespan", outcome.result->makespan);
      json.kv("lower_bound", outcome.result->lower_bound);
      json.kv("ratio", outcome.result->ratio);
      // Serving-path wall: what this case cost the service worker. A cache
      // hit is near-zero here even though result->wall_seconds still carries
      // the original solve's cost.
      json.kv("wall_seconds", outcome.wall_seconds);
      // v2 counters: dual-search iterations and workspace scratch
      // (re)allocations; null for solvers that do not record them.
      const auto stat = [&](const char* key) -> const double* {
        for (const auto& [name, value] : outcome.result->stats) {
          if (name == key) return &value;
        }
        return nullptr;
      };
      const auto kv_optional = [&](const char* field, const double* value) {
        json.key(field);
        if (value) {
          json.value(*value);
        } else {
          json.null_value();
        }
      };
      kv_optional("iterations", stat("iterations"));
      kv_optional("allocations", stat("workspace.allocations"));
      json.kv("cache_hit", outcome.cache_hit);
      // v4: whether the service coalesced this case onto a concurrent
      // identical in-flight solve instead of dispatching it.
      json.kv("dedup_join", outcome.dedup_join);
      // v6: whether the degradation fallback solver produced this answer.
      json.kv("fallback_used", outcome.fallback_used);
    } else {
      for (const char* field : {"makespan", "lower_bound", "ratio", "wall_seconds",
                                "iterations", "allocations", "cache_hit", "dedup_join"}) {
        json.key(field);
        json.null_value();
      }
      json.kv("fallback_used", outcome.fallback_used);
      if (!outcome.error.empty()) {
        // v5: machine-readable error class next to the message text.
        json.kv("error_code", to_string(outcome.error.code));
        json.kv("error", outcome.error.detail);
      }
    }
    // v5 contention-row fields; null on grid cases.
    for (const char* field : {"shard", "qps", "digest"}) {
      json.key(field);
      json.null_value();
    }
    json.end_object();
  }
  // v5: one case per contention shard count. The metric means are computed
  // over the full request stream, so they are identical across the rows (the
  // digest proves it at full precision); qps is the row's signal.
  for (const auto& row : contention_rows) {
    json.begin_object();
    json.kv("solver", "mrt");
    json.kv("config", "contention");
    json.kv("options", "");
    json.kv("family", "contention");
    json.kv("seed", 50000);
    json.kv("tasks", tasks);
    json.kv("machines", machines);
    json.kv("status", "ok");
    json.kv("makespan", row.mean_makespan);
    json.kv("lower_bound", row.mean_lower_bound);
    json.kv("ratio", row.mean_ratio);
    json.kv("wall_seconds", row.wall_seconds);
    for (const char* field : {"iterations", "allocations", "cache_hit", "dedup_join",
                              "fallback_used"}) {
      json.key(field);
      json.null_value();
    }
    json.kv("shard", row.shards);
    json.kv("qps", row.qps);
    json.kv("digest", row.digest);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << json.str() << "\n";
  out.close();
  if (!out) {
    std::cerr << "write to " << out_path << " failed (disk full?)\n";
    return 1;
  }

  // ------------------------------------------------------ console summary
  std::cout << "bench_suite: " << cases.size() << " cases (" << solvers.size() << " solvers x "
            << families.size() << " families x " << seeds << " seeds) on " << service.threads()
            << " threads in " << cell(run_wall, 2) << " s -> " << out_path << "\n";
  if (service_stats.cache_misses + service_stats.cache_hits + service_stats.dedup_joins > 0) {
    std::cout << "solve cache: " << service_stats.cache_hits << " hits / "
              << service_stats.cache_misses << " misses ("
              << service_stats.cache_evictions << " evictions, "
              << service_stats.cache_entries << " resident); "
              << service_stats.dedup_joins << " in-flight dedup joins\n";
  }
  std::cout << "\n";

  Table table({"config", "ratio mean", "ratio max", "wall ms mean", "cache hits", "joins"});
  for (const auto& solver : solvers) {
    Summary ratios;
    Summary walls;
    std::size_t hits = 0;
    std::size_t joins = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      if (cases[i].solver != &solver || !outcomes[i].result) continue;
      ratios.add(outcomes[i].result->ratio);
      walls.add(outcomes[i].wall_seconds * 1e3);
      if (outcomes[i].cache_hit) ++hits;
      if (outcomes[i].dedup_join) ++joins;
    }
    if (ratios.count() == 0) continue;
    table.add_row({solver.name, cell(ratios.mean(), 3), cell(ratios.max(), 3),
                   cell(walls.mean(), 2), cell(hits), cell(joins)});
  }
  table.print(std::cout);

  if (!contention_rows.empty()) {
    std::cout << "\ncontention: 8 client threads, " << contention_rows.front().requests
              << " requests over " << (smoke ? 8 : 32)
              << " instances (mrt, cache-hit heavy), total workers fixed; outcome digest "
              << contention_rows.front().digest << " identical at every shard count\n";
    Table sweep({"shards", "workers/shard", "wall s", "qps", "speedup"});
    const double base_qps = contention_rows.front().qps;
    for (const auto& row : contention_rows) {
      sweep.add_row({cell(static_cast<int>(row.shards)),
                     cell(static_cast<int>(row.workers_per_shard)), cell(row.wall_seconds, 3),
                     cell(row.qps, 0), cell(base_qps > 0 ? row.qps / base_qps : 0.0, 2) + "x"});
    }
    sweep.print(std::cout);
  }

  if (error_count > 0) {
    std::cerr << "\n" << error_count << " case(s) failed:\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].status == SolveStatus::kError) {
        std::cerr << "  case " << i << ": " << outcomes[i].error.detail << "\n";
      }
    }
    return 1;
  }
  return 0;
}
