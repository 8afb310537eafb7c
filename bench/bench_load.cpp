// Open-loop load replayer: latency under an offered arrival rate.
//
// A CLOSED-loop client submits, waits, submits again, so the service is only
// ever offered the load it can absorb and queueing delay is structurally
// invisible (coordinated omission). A serving tier is judged on the opposite
// quantity: the latency distribution
// under an ARRIVAL PROCESS that does not care how the service is doing. This
// harness replays a pre-generated timestamped trace (workload/arrivals.hpp:
// Poisson / bursty / diurnal, pure functions of the seed) against a running
// ShardedSchedulerService:
//
//   * The submitter thread sleeps until each arrival's scheduled instant and
//     submits -- it NEVER waits for completions, so a drowning service keeps
//     receiving requests on schedule and every queued request's full wait is
//     measured. Latency is counted from the SCHEDULED arrival instant, not
//     the actual submit call: if the submitter itself falls behind (e.g. the
//     fast-path scenario solves inline on the submit thread), that lateness
//     is queueing delay by another name and is charged to the service.
//   * Completions land in a lock-free log-bucketed LatencyHistogram
//     (support/latency_histogram.hpp) via the ordered result stream; the
//     artifact records p50/p95/p99/p999, the max, and the bucket counts.
//   * The sweep is arrival intensity x scenario (overload policy x queue
//     discipline x fast path) x shard count. Per run the artifact also
//     records deadline-miss / shed / fallback rates, the queue-depth
//     high-water mark, and fast-path hits; the max served QPS across rows is
//     reported as saturation_qps.
//
// Determinism: trace timestamps, instance picks, and per-request budgets are
// pure functions of --seed (the artifact carries a trace_digest proving it),
// and every primary OK outcome is byte-compared against a reference solve of
// its instance -- the row's `digest` hashes those reference triples, so
// rerunning with the same seed reproduces identical digests even though
// which requests get shed under overload is timing-dependent.
//
//   ./build/bench/bench_load --smoke
//   ./build/bench/bench_load --qps 500,2000,8000 --duration 3 --shards 1,2
//   ./build/bench/bench_load --configs edf-budget --process bursty
//
// The artifact (LOAD_<rev>.json, schema v9 in bench/bench_schema.json) is
// validated in CI by bench/validate_bench_json.py.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/sharded_service.hpp"
#include "api/stats_json.hpp"
#include "registry/solver_registry.hpp"
#include "support/fnv.hpp"
#include "support/json.hpp"
#include "support/latency_histogram.hpp"
#include "support/mutex.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/thread_annotations.hpp"
#include "workload/arrivals.hpp"
#include "workload/generators.hpp"

namespace {

using namespace malsched;

// v7 (this harness): the shared bench schema gains the OPTIONAL per-case
// load fields (process, offered_qps, policy, queue_discipline, requests,
// completed, deadline_miss_rate, shed_rate, fallback_rate,
// queue_depth_high_water, fast_path_hits, trace_digest, latency_histogram)
// and the optional top-level saturation_qps.
// v8: the required run-level service_stats object (accumulate_stats over
// every selected run, written by the shared api/stats_json.cpp writer).
// v9: every case field written below is required and no other is allowed.
constexpr int kSchemaVersion = 9;

/// One swept serving scenario. Budgets make EDF meaningful: with
/// budget_range > 0 every request draws a uniform budget in
/// [budget_lo, budget_lo + budget_range) seconds, so the EDF heap genuinely
/// reorders (and deadline misses appear under overload).
struct Scenario {
  std::string name;
  std::string policy;         ///< ServiceConfig::overload_policy
  std::string discipline;     ///< ServiceConfig::queue_discipline
  std::string fallback;       ///< non-empty only for the degrade policy
  bool fast_path{false};      ///< fast_path_max_tasks = pool task count
  double budget_lo{0.0};
  double budget_range{0.0};
};

std::vector<Scenario> all_scenarios() {
  return {
      {"fifo-reject", "reject", "fifo", "", false, 0.0, 0.0},
      {"fifo-shed", "shed_oldest", "fifo", "", false, 0.0, 0.0},
      {"fifo-degrade", "degrade", "fifo", "two_phase", false, 0.0, 0.0},
      {"edf-budget", "reject", "edf", "", false, 0.02, 0.23},
      {"fast-path", "reject", "fifo", "", true, 0.0, 0.0},
  };
}

/// Accumulating FNV-1a (support/fnv.hpp constants) with hex rendering; the
/// digest primitive every hash below shares.
struct Fnv {
  std::uint64_t hash{fnv::kOffset};
  void mix(const void* data, std::size_t length) { fnv::mix_bytes(hash, data, length); }
  void mix_double(double v) { mix(&v, sizeof v); }
  [[nodiscard]] std::string hex() const {
    char buffer[24];
    const int written =
        std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash));
    return std::string(buffer, static_cast<std::size_t>(written));
  }
};

/// Reference result of one pool instance, solved once through the
/// deterministic synchronous path; primary OK outcomes must match it
/// byte-for-byte (exact double equality -- same solver, same instance).
struct Reference {
  double makespan{0.0};
  double lower_bound{0.0};
  double ratio{0.0};
};

/// One generated request of the trace: when, which instance, what budget.
struct TracedRequest {
  double arrival_seconds{0.0};
  std::size_t pool_index{0};
  double budget_seconds{0.0};
};

/// One completion as the result stream saw it.
struct Completion {
  double completed_seconds{0.0};  ///< on the run clock (shared Stopwatch)
  SolveStatus status{SolveStatus::kCancelled};
  SolveErrorCode code{SolveErrorCode::kNone};
  bool fallback_used{false};
  double makespan{0.0};
  double lower_bound{0.0};
  double ratio{0.0};
};

struct RunResult {
  std::uint64_t requests{0};
  std::uint64_t completed{0};
  std::uint64_t ok{0};
  std::uint64_t deadline_misses{0};
  std::uint64_t shed{0};  ///< kRejected outcomes (reject and shed_oldest alike)
  std::uint64_t fallbacks{0};
  std::uint64_t unexpected_errors{0};
  std::uint64_t mismatches{0};  ///< primary OK outcomes differing from the reference
  double wall_seconds{0.0};
  double served_qps{0.0};
  std::uint64_t queue_depth_high_water{0};
  std::uint64_t fast_path_hits{0};
  /// Full end-of-run service counter snapshot; the artifact rolls these up
  /// across all selected runs into one run-level `service_stats` object.
  ServiceStats service_stats;
  std::string trace_digest;
  /// OK outcomes only (a reject answers fast but serves nothing). Behind a
  /// unique_ptr because the histogram's atomics make it immovable and
  /// RunResult travels by value.
  std::unique_ptr<LatencyHistogram> histogram = std::make_unique<LatencyHistogram>();
};

/// Derives the run's seed from the sweep coordinates, so a run's trace is a
/// stable function of (--seed, scenario, process, qps, shards) regardless of
/// which other runs were selected.
std::uint64_t run_seed(std::uint64_t base, const Scenario& scenario, ArrivalProcess process,
                       double qps, unsigned shards) {
  Fnv fnv;
  fnv.mix(&base, sizeof base);
  fnv.mix(scenario.name.data(), scenario.name.size());
  const std::string process_name = to_string(process);
  fnv.mix(process_name.data(), process_name.size());
  fnv.mix_double(qps);
  fnv.mix(&shards, sizeof shards);
  return fnv.hash;
}

/// Generates the run's full request trace (timestamps + instance picks +
/// budgets): pure function of the seed and options.
std::vector<TracedRequest> build_trace(const Scenario& scenario, ArrivalProcess process,
                                       double qps, double duration, std::size_t pool_size,
                                       std::uint64_t seed) {
  ArrivalOptions arrivals;
  arrivals.process = process;
  arrivals.rate_per_second = qps;
  arrivals.duration_seconds = duration;
  const std::vector<double> instants = generate_arrivals(arrivals, seed);
  // Instance picks and budgets come from a separate reseed so the arrival
  // draw count cannot shift them.
  Rng picks(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<TracedRequest> trace;
  trace.reserve(instants.size());
  for (const double instant : instants) {
    TracedRequest request;
    request.arrival_seconds = instant;
    request.pool_index =
        static_cast<std::size_t>(picks.uniform_int(0, static_cast<std::int64_t>(pool_size) - 1));
    if (scenario.budget_range > 0.0) {
      request.budget_seconds =
          picks.uniform(scenario.budget_lo, scenario.budget_lo + scenario.budget_range);
    }
    trace.push_back(request);
  }
  return trace;
}

std::string trace_digest(const std::vector<TracedRequest>& trace) {
  Fnv fnv;
  for (const auto& request : trace) {
    fnv.mix_double(request.arrival_seconds);
    fnv.mix(&request.pool_index, sizeof request.pool_index);
    fnv.mix_double(request.budget_seconds);
  }
  return fnv.hex();
}

/// Sleeps the submitter until `target` on the run clock: coarse sleep_for to
/// within a few hundred microseconds, then a yield spin -- tight enough for
/// the inter-arrival gaps the sweep uses without burning a core all run.
void sleep_until_instant(const Stopwatch& clock, double target) {
  for (;;) {
    const double remaining = target - clock.seconds();
    if (remaining <= 0.0) return;
    if (remaining > 0.0005) {
      std::this_thread::sleep_for(std::chrono::duration<double>(remaining - 0.0002));
    } else {
      std::this_thread::yield();
    }
  }
}

RunResult replay(const Scenario& scenario, ArrivalProcess process, double qps, unsigned shards,
                 double duration, unsigned threads, long long depth,
                 const std::vector<InstanceHandle>& pool, const std::vector<Reference>& refs,
                 std::uint64_t seed) {
  const std::vector<TracedRequest> trace =
      build_trace(scenario, process, qps, duration, pool.size(), seed);

  ServiceConfig config;
  config.threads = threads;
  config.cache = false;  // every request below opts out anyway: measure real solves
  config.max_queue_depth = depth;
  config.overload_policy = scenario.policy;
  config.fallback_solver = scenario.fallback;
  config.queue_discipline = scenario.discipline;
  if (scenario.fast_path && !pool.empty()) {
    config.fast_path_max_tasks = pool.front().instance().size();
  }
  ShardedSchedulerService service(config, shards);

  // Completions are recorded by ticket from the result stream. The stream
  // may fire on a worker thread or inline on the submit thread (fast path /
  // admission rejections), so the map is mutex-guarded; the record itself is
  // tiny (no schedules cross this boundary).
  struct CompletionLog {
    Mutex mutex;
    std::unordered_map<std::uint64_t, Completion> by_ticket MALSCHED_GUARDED_BY(mutex);
  };
  const Stopwatch clock;
  CompletionLog log;
  {
    const LockGuard lock(log.mutex);  // uncontended: no submits yet
    log.by_ticket.reserve(trace.size());
  }
  service.on_result([&clock, &log](const SolveOutcome& outcome) {
    Completion record;
    record.completed_seconds = clock.seconds();
    record.status = outcome.status;
    record.code = outcome.error.code;
    record.fallback_used = outcome.fallback_used;
    if (outcome.result) {
      record.makespan = outcome.result->makespan;
      record.lower_bound = outcome.result->lower_bound;
      record.ratio = outcome.result->ratio;
    }
    const LockGuard lock(log.mutex);
    log.by_ticket[outcome.ticket] = record;
  });

  // Open-loop replay: one pass over the trace, sleeping to each scheduled
  // instant, never waiting on a completion. Tickets are recorded alongside
  // the trace index for the post-drain join.
  std::vector<std::uint64_t> tickets(trace.size(), 0);
  for (std::size_t j = 0; j < trace.size(); ++j) {
    sleep_until_instant(clock, trace[j].arrival_seconds);
    SolveRequest request("mrt", {}, pool[trace[j].pool_index], /*consult_cache=*/false);
    request.budget_seconds = trace[j].budget_seconds;
    tickets[j] = service.submit(std::move(request)).id;
  }
  service.drain();

  RunResult result;
  result.requests = trace.size();
  result.wall_seconds = clock.seconds();
  result.trace_digest = trace_digest(trace);
  const ServiceStats stats = service.stats();
  result.queue_depth_high_water = stats.queue_depth_high_water;
  result.fast_path_hits = stats.fast_path_hits;
  result.service_stats = stats;

  // Post-drain join: every ticket has a completion by now (drain() returns
  // only after the full stream fired); single-threaded from here.
  const LockGuard lock(log.mutex);
  for (std::size_t j = 0; j < trace.size(); ++j) {
    const auto it = log.by_ticket.find(tickets[j]);
    if (it == log.by_ticket.end()) {
      ++result.unexpected_errors;  // a stream gap would be a service bug
      continue;
    }
    const Completion& done = it->second;
    ++result.completed;
    switch (done.status) {
      case SolveStatus::kOk: {
        ++result.ok;
        if (done.fallback_used) {
          ++result.fallbacks;
        } else {
          const Reference& ref = refs[trace[j].pool_index];
          if (done.makespan != ref.makespan || done.lower_bound != ref.lower_bound ||
              done.ratio != ref.ratio) {
            ++result.mismatches;
          }
        }
        // Latency from the SCHEDULED arrival, not the submit call: submitter
        // lateness is service-induced backpressure and must count.
        result.histogram->record(done.completed_seconds - trace[j].arrival_seconds);
        break;
      }
      case SolveStatus::kError:
        if (done.code == SolveErrorCode::kDeadlineExceeded) {
          ++result.deadline_misses;
        } else if (done.code == SolveErrorCode::kRejected) {
          ++result.shed;
        } else {
          ++result.unexpected_errors;
        }
        break;
      case SolveStatus::kCancelled: ++result.unexpected_errors; break;
    }
  }
  result.served_qps = result.wall_seconds > 0.0
                          ? static_cast<double>(result.ok) / result.wall_seconds
                          : 0.0;
  return result;
}

std::vector<double> parse_qps_csv(const std::string& csv) {
  std::vector<double> values;
  std::stringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    try {
      std::size_t used = 0;
      const double parsed = std::stod(token, &used);
      if (used == token.size() && parsed > 0.0) {
        values.push_back(parsed);
        continue;
      }
    } catch (const std::exception&) {
    }
    std::cerr << "--qps expects positive numbers, got '" << token << "'\n";
    std::exit(2);
  }
  return values;
}

std::vector<unsigned> parse_shards_csv(const std::string& csv) {
  std::vector<unsigned> values;
  std::stringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    try {
      std::size_t used = 0;
      const int parsed = std::stoi(token, &used);
      if (used == token.size() && parsed >= 1) {
        values.push_back(static_cast<unsigned>(parsed));
        continue;
      }
    } catch (const std::exception&) {
    }
    std::cerr << "--shards expects integers >= 1, got '" << token << "'\n";
    std::exit(2);
  }
  return values;
}

void print_usage(std::ostream& out) {
  out <<
      "usage: bench_load [options]\n"
      "  --smoke            CI-sized sweep: 1s Poisson traces, 1 shard,\n"
      "                     scenarios fifo-shed/fifo-degrade/edf-budget/fast-path\n"
      "  --qps CSV          offered arrival intensities    [250,1000,4000(,16000)]\n"
      "  --duration S       trace horizon per run, seconds [smoke 1, full 3]\n"
      "  --shards CSV       shard counts to sweep          [smoke 1; full 1,2]\n"
      "  --configs CSV      subset of scenarios            [see --list]\n"
      "  --process NAME     poisson | bursty | diurnal     [poisson]\n"
      "  --threads N        worker threads per shard       [1]\n"
      "  --depth N          max_queue_depth per shard      [64]\n"
      "  --pool N           distinct instances in the pool [smoke 12, full 24]\n"
      "  --tasks N          tasks per pool instance        [smoke 24, full 32]\n"
      "  --machines M       machines per pool instance     [smoke 12, full 16]\n"
      "  --seed N           base seed for every trace      [12345]\n"
      "  --rev STR          revision stamp                 [local]\n"
      "  --out FILE         output path                    [LOAD_<rev>.json]\n"
      "  --list             print scenarios, then exit\n";
}

int usage() {
  print_usage(std::cerr);
  return 2;
}

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

double parse_double(const std::string& value, const std::string& flag) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used == value.size() && parsed > 0.0) return parsed;
  } catch (const std::exception&) {
  }
  std::cerr << flag << " expects a positive number, got '" << value << "'\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string qps_csv;
  double duration = -1.0;
  std::string shards_csv;
  std::string configs_csv;
  std::string process_name = "poisson";
  unsigned threads = 1;
  long long depth = 64;
  int pool_size = -1;
  int tasks = -1;
  int machines = -1;
  std::uint64_t seed = 12345;
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
    } else if (arg == "--qps") {
      qps_csv = next();
    } else if (arg == "--duration") {
      duration = parse_double(next(), arg);
    } else if (arg == "--shards") {
      shards_csv = next();
    } else if (arg == "--configs") {
      configs_csv = next();
    } else if (arg == "--process") {
      process_name = next();
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(parse_int(next(), arg, 1));
    } else if (arg == "--depth") {
      depth = parse_int(next(), arg, 1);
    } else if (arg == "--pool") {
      pool_size = parse_int(next(), arg, 1);
    } else if (arg == "--tasks") {
      tasks = parse_int(next(), arg, 1);
    } else if (arg == "--machines") {
      machines = parse_int(next(), arg, 1);
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(parse_int(next(), arg, 0));
    } else if (arg == "--rev") {
      rev = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--list") {
      std::cout << "scenarios (policy / discipline / extras):\n";
      for (const auto& scenario : all_scenarios()) {
        std::cout << "  " << scenario.name << "  (" << scenario.policy << " / "
                  << scenario.discipline
                  << (scenario.fallback.empty() ? "" : ", fallback " + scenario.fallback)
                  << (scenario.fast_path ? ", fast path" : "")
                  << (scenario.budget_range > 0.0 ? ", per-request budgets" : "") << ")\n";
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
  if (duration < 0.0) duration = smoke ? 1.0 : 3.0;
  if (pool_size < 0) pool_size = smoke ? 12 : 24;
  if (tasks < 0) tasks = smoke ? 24 : 32;
  if (machines < 0) machines = smoke ? 12 : 16;
  if (out_path.empty()) out_path = "LOAD_" + rev + ".json";
  const ArrivalProcess process = arrival_process_from_string(process_name);

  std::vector<double> intensities =
      qps_csv.empty() ? (smoke ? std::vector<double>{250, 1000, 4000}
                               : std::vector<double>{250, 1000, 4000, 16000})
                      : parse_qps_csv(qps_csv);
  std::vector<unsigned> shard_counts =
      shards_csv.empty() ? (smoke ? std::vector<unsigned>{1} : std::vector<unsigned>{1, 2})
                         : parse_shards_csv(shards_csv);

  std::vector<Scenario> scenarios;
  if (configs_csv.empty()) {
    scenarios = all_scenarios();
    if (smoke) {
      // fifo-reject duplicates fifo-shed's latency picture in smoke time;
      // the full sweep keeps it for the reject-vs-shed victim comparison.
      std::erase_if(scenarios, [](const Scenario& s) { return s.name == "fifo-reject"; });
    }
  } else {
    std::stringstream stream(configs_csv);
    std::string token;
    while (std::getline(stream, token, ',')) {
      bool found = false;
      for (const auto& scenario : all_scenarios()) {
        if (scenario.name == token) {
          scenarios.push_back(scenario);
          found = true;
          break;
        }
      }
      if (!found) {
        std::cerr << "unknown scenario '" << token << "' (see --list)\n";
        return 2;
      }
    }
  }

  // Instance pool: interned once, shared by every run. Family-unique seed
  // base (60000+) so the pool's content hashes collide with nothing the
  // other harnesses intern in shared-process test setups.
  std::vector<InstanceHandle> pool(static_cast<std::size_t>(pool_size));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    GeneratorOptions options;
    options.tasks = tasks;
    options.machines = machines;
    pool[i] = InstanceHandle::intern(generate_instance(WorkloadFamily::kUniform, options,
                                                       60000 + static_cast<std::uint64_t>(i)));
  }

  // Reference solves: each pool instance once through the deterministic
  // synchronous path. Every primary OK outcome of every run must equal its
  // reference bytes, and the row digest hashes the references in pool order
  // -- a reproducible value even though shed victims vary run to run.
  std::vector<Reference> refs(pool.size());
  Fnv ref_fnv;
  Summary ref_makespans;
  Summary ref_lower_bounds;
  Summary ref_ratios;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const SolverResult solved =
        SolverRegistry::global().solve(SolveRequest("mrt", {}, pool[i], false));
    refs[i] = {solved.makespan, solved.lower_bound, solved.ratio};
    char buffer[96];
    const int written = std::snprintf(buffer, sizeof buffer, "%.17g|%.17g|%.17g;",
                                      solved.makespan, solved.lower_bound, solved.ratio);
    ref_fnv.mix(buffer, static_cast<std::size_t>(written));
    ref_makespans.add(solved.makespan);
    ref_lower_bounds.add(solved.lower_bound);
    ref_ratios.add(solved.ratio);
  }
  const std::string reference_digest = ref_fnv.hex();

  struct Row {
    const Scenario* scenario;
    double offered_qps;
    unsigned shards;
    std::uint64_t seed;
    RunResult result;
  };
  std::vector<Row> rows;
  const Stopwatch total_clock;
  for (const auto& scenario : scenarios) {
    for (const unsigned shard_count : shard_counts) {
      for (const double qps : intensities) {
        const std::uint64_t this_seed = run_seed(seed, scenario, process, qps, shard_count);
        rows.push_back({&scenario, qps, shard_count, this_seed,
                        replay(scenario, process, qps, shard_count, duration, threads, depth,
                               pool, refs, this_seed)});
        const RunResult& run = rows.back().result;
        std::cout << "bench_load: " << scenario.name << " x " << qps << " qps x "
                  << shard_count << " shard(s): " << run.requests << " requests, "
                  << run.ok << " ok, p99 "
                  << run.histogram->quantile(0.99) * 1e3 << " ms, miss/shed/fallback "
                  << run.deadline_misses << "/" << run.shed << "/" << run.fallbacks << "\n";
      }
    }
  }
  const double total_wall = total_clock.seconds();

  std::uint64_t total_ok = 0;
  std::uint64_t total_errors = 0;
  std::uint64_t total_misses = 0;
  std::uint64_t total_fallbacks = 0;
  ServiceStats run_service_stats;
  std::uint64_t failures = 0;
  double saturation_qps = 0.0;
  for (const auto& row : rows) {
    total_ok += row.result.ok;
    total_errors += row.result.deadline_misses + row.result.shed + row.result.unexpected_errors;
    total_misses += row.result.deadline_misses;
    total_fallbacks += row.result.fallbacks;
    failures += row.result.mismatches + row.result.unexpected_errors;
    saturation_qps = std::max(saturation_qps, row.result.served_qps);
    accumulate_stats(run_service_stats, row.result.service_stats);
  }

  // ------------------------------------------------------------- artifact
  JsonWriter json;
  json.begin_object();
  json.kv("schema_version", kSchemaVersion);
  json.kv("rev", rev);
  json.kv("smoke", smoke);
  json.kv("threads", threads);
  json.kv("ok", total_ok);
  json.kv("errors", total_errors);
  json.kv("cancelled", 0);
  json.kv("deadline_misses", total_misses);
  json.kv("fallbacks", total_fallbacks);
  json.kv("wall_seconds", total_wall);
  json.kv("saturation_qps", saturation_qps);
  // v8: service counters accumulated across every selected run
  // (write_service_stats emits every ServiceStats field).
  json.key("service_stats");
  write_service_stats(json, run_service_stats);
  json.key("cases");
  json.begin_array();
  for (const auto& row : rows) {
    const RunResult& run = row.result;
    const auto rate = [&](std::uint64_t count) {
      return run.requests > 0 ? static_cast<double>(count) / static_cast<double>(run.requests)
                              : 0.0;
    };
    json.begin_object();
    json.kv("solver", "mrt");
    json.kv("config", row.scenario->name);
    json.kv("options", "");
    json.kv("family", "load");
    json.kv("seed", row.seed);
    json.kv("tasks", tasks);
    json.kv("machines", machines);
    json.kv("status", run.mismatches + run.unexpected_errors == 0 ? "ok" : "error");
    // The metric means are over the REFERENCE pool (deterministic; which
    // requests survive overload is not), matching the digest's provenance.
    json.kv("makespan", ref_makespans.mean());
    json.kv("lower_bound", ref_lower_bounds.mean());
    json.kv("ratio", ref_ratios.mean());
    json.kv("wall_seconds", run.wall_seconds);
    if (run.mismatches + run.unexpected_errors > 0) {
      json.kv("error_code", "solver_failure");
      json.kv("error", std::to_string(run.mismatches) + " outcome(s) differ from the " +
                           "reference solve, " + std::to_string(run.unexpected_errors) +
                           " unexpected error/missing outcome(s)");
    }
    json.kv("shard", row.shards);
    json.kv("qps", run.served_qps);
    json.kv("digest", reference_digest);
    // The load fields (v7).
    json.kv("process", to_string(process));
    json.kv("offered_qps", row.offered_qps);
    json.kv("policy", row.scenario->policy);
    json.kv("queue_discipline", row.scenario->discipline);
    json.kv("requests", run.requests);
    json.kv("completed", run.completed);
    json.kv("deadline_miss_rate", rate(run.deadline_misses));
    json.kv("shed_rate", rate(run.shed));
    json.kv("fallback_rate", rate(run.fallbacks));
    json.kv("queue_depth_high_water", run.queue_depth_high_water);
    json.kv("fast_path_hits", run.fast_path_hits);
    json.kv("trace_digest", run.trace_digest);
    json.key("latency_histogram");
    run.histogram->write_json(json);
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
  std::cout << "\nbench_load: " << rows.size() << " runs (" << scenarios.size()
            << " scenarios x " << shard_counts.size() << " shard counts x "
            << intensities.size() << " intensities, " << to_string(process)
            << " arrivals) in " << cell(total_wall, 1) << " s -> " << out_path << "\n"
            << "saturation: " << cell(saturation_qps, 0) << " qps served at peak\n\n";
  Table table({"scenario", "shards", "offered qps", "served qps", "p50 ms", "p99 ms",
               "miss%", "shed%", "fb%", "q high"});
  for (const auto& row : rows) {
    const RunResult& run = row.result;
    const double denom = run.requests > 0 ? static_cast<double>(run.requests) : 1.0;
    table.add_row({row.scenario->name, cell(static_cast<int>(row.shards)),
                   cell(row.offered_qps, 0), cell(run.served_qps, 0),
                   cell(run.histogram->quantile(0.5) * 1e3, 2),
                   cell(run.histogram->quantile(0.99) * 1e3, 2),
                   cell(100.0 * static_cast<double>(run.deadline_misses) / denom, 1),
                   cell(100.0 * static_cast<double>(run.shed) / denom, 1),
                   cell(100.0 * static_cast<double>(run.fallbacks) / denom, 1),
                   cell(static_cast<long long>(run.queue_depth_high_water))});
  }
  table.print(std::cout);

  if (failures > 0) {
    std::cerr << "\n" << failures
              << " determinism violation(s): primary outcomes differing from the reference "
                 "solve or missing from the stream (see per-case error fields)\n";
    return 1;
  }
  return 0;
}
