// serve-hot: closed loop, 2 client threads, ShardedSchedulerService with 2
// shards of 1 worker each, the cache on at its default capacity, and the
// small-instance fast path covering every request. The content is 4096
// distinct 32-task x 16-machine instances -- twice the tier's total cache
// capacity -- picked with Zipf(1.2) popularity. Each request interns a fresh
// shared_ptr<const Instance> of its content, then calls submit() and wait().
// Interning (model/), cache lookup, insert and eviction and fingerprint
// routing (api/) do most of the work; misses are solved inline on the
// submitting thread and insert into the cache, which is the write side.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "api/sharded_service.hpp"
#include "pools.hpp"
#include "registry/solver_registry.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

#ifdef PERFBENCH_TRACED
#include "replay.hpp"
#endif

namespace perfbench {

namespace {

using malsched::Instance;
using malsched::InstanceHandle;
using malsched::SolveRequest;

constexpr int kContents = 4096;
constexpr double kZipfExponent = 1.2;
constexpr unsigned kShards = 2;
constexpr unsigned kClients = 2;
/// Requests per second the fixed work is sized for: each client makes
/// round(seconds * kNominalRps / kClients) timed requests, split into
/// kRounds rounds whose completion rates give throughput_rps by median. The
/// tier serves about 90k req/s, but it keeps a slot record per request for
/// its lifetime (gc_slots frees only the payload), so the work is sized to
/// keep peak RSS near 300 MiB rather than to fill --seconds.
constexpr double kNominalRps = 16667.0;
constexpr int kRounds = 10;
/// Untimed requests per client at set-up, so the caches reach their steady
/// state before the clock starts.
constexpr int kWarmupPerClient = 20000;

struct Setup {
  std::vector<PoolEntry> contents;
  std::vector<Reference> references;
  AnswerGate gate;  ///< reference solves and warm-up answers
  std::unique_ptr<malsched::ShardedSchedulerService> service;
};

/// Zipf(kZipfExponent) over the contents, ranks mapped to contents through
/// a seeded permutation so popularity is not tied to generation order.
class ZipfPicker {
 public:
  ZipfPicker(std::size_t n, std::uint64_t seed) {
    malsched::Rng rng(seed);
    const auto order = rng.permutation(n);
    content_of_rank_.assign(order.begin(), order.end());
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
      cumulative_.push_back(total);
    }
  }

  std::vector<std::uint32_t> draw(std::size_t count, std::uint64_t seed) const {
    malsched::Rng rng(seed);
    std::vector<std::uint32_t> picks;
    picks.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const double u = rng.next_double() * cumulative_.back();
      const auto rank = static_cast<std::size_t>(
          std::upper_bound(cumulative_.begin(), cumulative_.end(), u) - cumulative_.begin());
      picks.push_back(
          static_cast<std::uint32_t>(content_of_rank_[std::min(rank, cumulative_.size() - 1)]));
    }
    return picks;
  }

 private:
  std::vector<std::size_t> content_of_rank_;
  std::vector<double> cumulative_;
};

/// One client's record of a run of requests.
struct ClientRun {
  std::vector<double> latency;  ///< intern start to wait() return
  std::vector<double> intern;
  std::vector<double> submit;
  std::vector<double> wait;
  std::vector<double> solve;
  std::vector<double> hit;      ///< submit + wait, cache hits
  std::vector<double> miss;     ///< submit + wait, everything else
  double worker_busy{0.0};
  double ratio_sum{0.0};  ///< over answers that passed the gates
  std::size_t ok{0};
  AnswerGate gate;
  SpanLog log;

  /// Appends `from`'s samples, totals and spans (not its gate: gates are
  /// merged in a fixed order by the caller).
  void absorb(ClientRun&& from) {
    for (auto field : {&ClientRun::latency, &ClientRun::intern, &ClientRun::submit,
                       &ClientRun::wait, &ClientRun::solve, &ClientRun::hit, &ClientRun::miss}) {
      (this->*field).insert((this->*field).end(), (from.*field).begin(), (from.*field).end());
    }
    worker_busy += from.worker_busy;
    ratio_sum += from.ratio_sum;
    ok += from.ok;
    log.append(std::move(from.log));
  }
};

/// Runs `picks` closed loop. With `traced`, stamps every layer boundary
/// and records the request's spans.
void client_loop(Setup& setup, const std::vector<std::uint32_t>& picks, bool traced,
                 std::uint64_t request_base, ClientRun& out) {
  std::uint64_t request = request_base;
  for (const std::uint32_t pick : picks) {
    auto content = std::make_shared<const Instance>(setup.contents[pick].instance);
    const double start = process_seconds();
    InstanceHandle handle = InstanceHandle::intern(std::move(content));
    const double interned = traced ? process_seconds() : 0.0;
    const auto ticket = setup.service->submit(SolveRequest("mrt", {}, std::move(handle), true));
    const double submitted = traced ? process_seconds() : 0.0;
    const auto outcome = setup.service->wait(ticket);
    const double done = process_seconds();
    out.latency.push_back(done - start);
    if (traced) {
      const double on_worker = outcome.worker >= 0 ? outcome.wall_seconds : 0.0;
      out.intern.push_back(interned - start);
      out.submit.push_back(submitted - interned);
      out.wait.push_back(done - submitted - on_worker);
      out.solve.push_back(outcome.wall_seconds);
      (outcome.cache_hit ? out.hit : out.miss).push_back(done - interned);
      out.worker_busy += on_worker;
      const int root = out.log.record("bench.request", -1, request, start, done);
      out.log.record("model.intern", root, request, start, interned);
      out.log.record("api.submit", root, request, interned, submitted);
      out.log.record("api.wait", root, request, submitted, done);
      ++request;
    }
    if (outcome.status != malsched::SolveStatus::kOk || !outcome.result) {
      out.gate.fail("request did not complete OK");
    } else if (out.gate.check(answer_of(*outcome.result), setup.references[pick])) {
      out.ratio_sum += outcome.result->ratio;
      ++out.ok;
    }
  }
}

/// Runs one round: every client its slice concurrently; returns the round's
/// wall seconds.
double run_round(Setup& setup, const std::vector<std::vector<std::uint32_t>>& slices,
                 bool traced, std::uint64_t request_base, std::vector<ClientRun>& runs) {
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < slices.size(); ++c) {
    clients.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      client_loop(setup, slices[c], traced, request_base + c * slices[c].size(), runs[c]);
    });
  }
  const double start = process_seconds();
  go.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();
  return process_seconds() - start;
}

std::unique_ptr<Setup> build(std::uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  setup->contents = serve_hot_contents(seed, kContents);
  long long max_tasks = 0;
  for (const auto& entry : setup->contents) {
    const auto handle = InstanceHandle::intern(entry.instance);
    setup->references.push_back(setup->gate.reference(answer_of(
        malsched::SolverRegistry::global().solve(SolveRequest("mrt", {}, handle, false)))));
    max_tasks = std::max<long long>(max_tasks, entry.instance.size());
  }
  malsched::ServiceConfig config;
  config.threads = 1;
  config.gc_slots = true;  // a long-running tier: outcomes are taken once
  config.fast_path_max_tasks = max_tasks;
  setup->service = std::make_unique<malsched::ShardedSchedulerService>(config, kShards);

  const ZipfPicker picker(setup->contents.size(), seed ^ 0x21bfull);
  std::vector<std::vector<std::uint32_t>> warmup;
  for (unsigned c = 0; c < kClients; ++c) {
    warmup.push_back(picker.draw(kWarmupPerClient, seed ^ (0xa000ull + c)));
  }
  std::vector<ClientRun> runs(kClients);
  (void)run_round(*setup, warmup, false, 0, runs);
  for (const auto& run : runs) setup->gate.merge(run.gate);
  return setup;
}

}  // namespace

int run_serve_hot(const RunContext& context) {
  Report::stamp(context);
  SpeedMeter meter(kClients);
  std::vector<double> setup_seconds;
  const auto setup = repeated_setup([&] { return build(context.seed); }, meter, setup_seconds);
  Report::note(format("setup: %zu contents, median of %d set-ups %.3f s at reference speed; "
                      "timed work starts %.3f s after process start",
                      setup->contents.size(), kSetupRepeats,
                      malsched::percentile(setup_seconds, 50.0), process_seconds()));

  const auto per_client = static_cast<std::size_t>(
      std::max(100.0, std::round(context.seconds * kNominalRps / kClients)));
  const ZipfPicker picker(setup->contents.size(), context.seed ^ 0x21bfull);
  std::vector<std::vector<std::uint32_t>> picks;
  for (unsigned c = 0; c < kClients; ++c) {
    picks.push_back(picker.draw(per_client, context.seed ^ (0xb000ull + c)));
  }
  // Round r gives each client the r-th slice of its pick sequence.
  const auto slices_of = [&](int round, int rounds) {
    std::vector<std::vector<std::uint32_t>> slices;
    for (const auto& sequence : picks) {
      const std::size_t lo = sequence.size() * static_cast<std::size_t>(round) /
                             static_cast<std::size_t>(rounds);
      const std::size_t hi = sequence.size() * static_cast<std::size_t>(round + 1) /
                             static_cast<std::size_t>(rounds);
      slices.emplace_back(sequence.begin() + static_cast<std::ptrdiff_t>(lo),
                          sequence.begin() + static_cast<std::ptrdiff_t>(hi));
    }
    return slices;
  };
  // Rounds [first, last) of `rounds`, merged into one record per client;
  // answers are gated in (round, client) order. A speed burst runs before
  // the first round and after each one; `round_rps` gets each round's rate
  // scaled to the reference host and `round_speed` the speed around it.
  // Returns the summed wall.
  AnswerGate answers;
  const auto run_rounds = [&](int first, int last, int rounds, bool traced,
                              std::vector<ClientRun>& runs, std::vector<double>& round_rps,
                              std::vector<double>& round_speed) {
    std::uint64_t request_base = 0;
    double wall_total = 0.0;
    double before = meter.burst();
    for (int round = first; round < last; ++round) {
      const auto slices = slices_of(round, rounds);
      std::vector<ClientRun> round_runs(kClients);
      const double wall = run_round(*setup, slices, traced, request_base, round_runs);
      std::size_t requests = 0;
      for (unsigned c = 0; c < kClients; ++c) {
        requests += slices[c].size();
        answers.merge(round_runs[c].gate);
        runs[c].absorb(std::move(round_runs[c]));
      }
      request_base += requests;
      wall_total += wall;
      const double after = meter.burst();
      round_speed.push_back(0.5 * (before + after));
      round_rps.push_back(static_cast<double>(requests) / wall / round_speed.back());
      before = after;
    }
    return wall_total;
  };

  Report report;
  if (!context.trace) {
    std::vector<ClientRun> runs(kClients);
    std::vector<double> round_rps;
    std::vector<double> round_speed;
    run_rounds(0, kRounds, kRounds, false, runs, round_rps, round_speed);
    std::vector<double> latency;
    for (const auto& run : runs) {
      latency.insert(latency.end(), run.latency.begin(), run.latency.end());
    }
    const double speed = malsched::percentile(round_speed, 50.0);
    const double throughput = malsched::percentile(round_rps, 50.0);
    const double p99 = order_statistic(latency, 0.99) * speed;
    std::vector<double> measured_rps;
    for (std::size_t r = 0; r < round_rps.size(); ++r) {
      measured_rps.push_back(round_rps[r] * round_speed[r]);
      Report::note(format("round %zu: %.0f req/s at host speed %.3f", r, measured_rps.back(),
                          round_speed[r]));
    }
    Report::note(format("as measured: throughput %.0f req/s (median round), median host speed "
                        "%.3f",
                        malsched::percentile(measured_rps, 50.0), speed));
    Report::note(format("%zu requests in %d rounds; answer digest %s", latency.size(), kRounds,
                        answers.digest_hex().c_str()));
    Report::note(format("latency_p50_ms %.6g ms (%zu samples, at reference speed)",
                        order_statistic(latency, 0.50) * speed * 1e3, latency.size()));
    Report::note(format("latency_p99_ms %.6g ms (%zu samples, %zu beyond, at reference speed)",
                        p99 * 1e3, latency.size(), samples_beyond(latency.size(), 0.99)));
    report.add("setup_s", malsched::percentile(setup_seconds, 50.0), "s", setup_seconds.size());
    report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    report.add("throughput_rps", throughput, "req/s", round_rps.size());
    const auto failed = setup->gate.violations() + answers.violations();
    report.add("slo_qps", closed_loop_slo_qps(throughput, p99, failed), "req/s",
               round_rps.size());
    double ratio_sum = 0.0;
    std::size_t ok = 0;
    for (const auto& run : runs) {
      ratio_sum += run.ratio_sum;
      ok += run.ok;
    }
    report.add("ratio_mean", ratio_sum / static_cast<double>(std::max<std::size_t>(1, ok)),
               "ratio", ok);
  } else {
#ifdef PERFBENCH_TRACED
    // Traced run: the first half of the rounds untraced, the second traced,
    // then the single-threaded replay of every content.
    constexpr int kTraceRounds = 4;
    std::vector<ClientRun> plain(kClients);
    std::vector<double> plain_rps;
    std::vector<double> plain_speed;
    run_rounds(0, kTraceRounds / 2, kTraceRounds, false, plain, plain_rps, plain_speed);
    const auto stats_before = setup->service->stats();
    const auto hashes_before = InstanceHandle::content_hashes();
    const auto table_hits_before = InstanceHandle::intern_table_hits();
    std::vector<ClientRun> traced(kClients);
    std::vector<double> traced_rps;
    std::vector<double> traced_speed;
    const double traced_wall = run_rounds(kTraceRounds / 2, kTraceRounds, kTraceRounds, true,
                                          traced, traced_rps, traced_speed);
    const auto hashes = InstanceHandle::content_hashes() - hashes_before;
    const auto table_hits = InstanceHandle::intern_table_hits() - table_hits_before;
    const auto sharded = setup->service->shard_stats();
    const auto& stats = sharded.total;

    ClientRun all;
    for (auto& run : traced) all.absorb(std::move(run));
    SpanLog log = std::move(all.log);
    const auto requests = static_cast<double>(all.latency.size());

    LayerMetrics layers;
    layers.set("model.intern_us_p50", order_statistic(all.intern, 0.5) * 1e6, all.intern.size());
    layers.set("model.intern_table_hit_ratio", static_cast<double>(table_hits) / requests,
               all.intern.size());
    layers.set("model.content_hashes_per_req", static_cast<double>(hashes) / requests,
               all.intern.size());
    layers.set("exec.worker_busy_ratio", all.worker_busy / (kShards * traced_wall),
               all.solve.size());
    layers.set("exec.queue_depth_high_water", static_cast<double>(stats.queue_depth_high_water),
               1);
    set_latency_pair(layers, "api.submit_us", all.submit, "us");
    set_latency_pair(layers, "api.wait_ms", all.wait, "ms");
    set_latency_pair(layers, "api.solve_ms", all.solve, "ms");
    layers.set("api.workspace_reuses",
               static_cast<double>(stats.workspace_reuses - stats_before.workspace_reuses),
               all.latency.size());
    layers.set("api.hit_us_p50", order_statistic(all.hit, 0.5) * 1e6, all.hit.size());
    layers.set("api.miss_us_p50", order_statistic(all.miss, 0.5) * 1e6, all.miss.size());
    const auto hits = stats.cache_hits - stats_before.cache_hits;
    const auto misses = stats.cache_misses - stats_before.cache_misses;
    const auto lookups = std::max<std::uint64_t>(1, hits + misses);
    layers.set("api.cache_hit_ratio",
               static_cast<double>(hits) / static_cast<double>(lookups), hits + misses);
    layers.set("api.cache_evictions",
               static_cast<double>(stats.cache_evictions - stats_before.cache_evictions),
               all.latency.size());
    layers.set("api.shard_skew", shard_skew(sharded), sharded.shards.size());
    const double plain_median = malsched::percentile(plain_rps, 50.0);
    const double traced_median = malsched::percentile(traced_rps, 50.0);
    layers.set("bench.trace_overhead_pct", (plain_median - traced_median) / plain_median * 100.0,
               plain_rps.size() + traced_rps.size());
    Report::note(format("trace overhead: %.0f vs %.0f req/s untraced, at reference speed",
                        traced_median, plain_median));
    std::vector<InstanceHandle> handles;
    for (const auto& entry : setup->contents) {
      handles.push_back(InstanceHandle::intern(entry.instance));
    }
    add_solver_layers(layers, handles, log);
    finish_trace(log, context);
    layers.emit(report);
#endif
  }
  for (const AnswerGate* gate : {&setup->gate, &answers}) {
    for (const auto& message : gate->messages()) Report::note("GATE " + message);
  }
  return report.finish(setup->gate.checked() + answers.checked(),
                       setup->gate.violations() + answers.violations());
}

}  // namespace perfbench
