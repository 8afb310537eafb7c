// serve-poisson: open loop. One generator thread replays a pre-generated
// Poisson trace against a ShardedSchedulerService with 1 shard and 2
// workers, unbounded FIFO queue, no deadlines, no fast path, and every
// request opting out of the cache. Queueing, dispatch and ordered delivery
// in api/ and the exec/ worker pool sit on every request's critical path;
// the cache does nothing. Solves take milliseconds, so VM pauses of a few
// milliseconds do not dominate. A second phase searches a fixed rate ladder
// for slo_qps.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/sharded_service.hpp"
#include "pools.hpp"
#include "registry/solver_registry.hpp"
#include "support/mutex.hpp"
#include "support/rng.hpp"
#include "workload/arrivals.hpp"
#include "workloads.hpp"

#ifdef PERFBENCH_TRACED
#include "replay.hpp"
#endif

namespace perfbench {

namespace {

using malsched::InstanceHandle;
using malsched::SolveOutcome;
using malsched::SolveRequest;

/// The nominal arrival rate: about half the knee of this service on the
/// 4-core reference host (knee between 550 and 650 req/s).
constexpr double kNominalRps = 260.0;
constexpr unsigned kWorkers = 2;
/// The nominal phase runs in rounds of this many requests (p99 then has 10
/// samples beyond it) and reports each latency as the median over rounds,
/// so one host stall moves one round, not the result. It is sized to about
/// half of --seconds; the ladder takes the rest.
constexpr int kRoundRequests = 1000;

/// The slo_qps ladder: rung k offers kNominalRps * kLadderStep^k, k in
/// [0, kLadderTop]. The search starts at kLadderStart (twice the nominal
/// rate) and walks up while rungs pass; when that first rung fails it bisects
/// below it rather than walking down, so a slow program costs about five
/// rungs, not eighteen. It starts no rung once kLadderBudgetSeconds have
/// passed and keeps the best rung passed so far.
constexpr double kLadderStep = 1.04;
constexpr int kLadderStart = 18;
constexpr int kLadderTop = 60;
constexpr double kLadderBudgetSeconds = 60.0;
/// Requests per rung: enough that p99 has at least 10 samples beyond it.
constexpr int kRungRequests = 1200;

/// What the result stream saw for one ticket.
struct Completion {
  double delivered{0.0};  ///< process_seconds() in the callback
  bool ok{false};  ///< kOk with a result
  Answer answer;
  double solve_seconds{0.0};  ///< SolveOutcome::wall_seconds
  int worker{-1};
};

/// Completions by ticket, filled from the service's delivery thread.
class Recorder {
 public:
  void record(const SolveOutcome& outcome) {
    Completion done;
    done.delivered = process_seconds();
    done.ok = outcome.status == malsched::SolveStatus::kOk && outcome.result.has_value();
    if (done.ok) done.answer = answer_of(*outcome.result);
    done.solve_seconds = outcome.wall_seconds;
    done.worker = outcome.worker;
    const malsched::LockGuard lock(mutex_);
    by_ticket_[outcome.ticket] = std::move(done);
  }

  std::unordered_map<std::uint64_t, Completion> take() {
    const malsched::LockGuard lock(mutex_);
    return std::exchange(by_ticket_, {});
  }

 private:
  malsched::Mutex mutex_;
  std::unordered_map<std::uint64_t, Completion> by_ticket_ MALSCHED_GUARDED_BY(mutex_);
};

struct Setup {
  std::vector<InstanceHandle> handles;
  std::vector<Reference> references;
  std::vector<double> intern_seconds;
  AnswerGate gate;  ///< the reference solves
  Recorder recorder;  // declared before the service, which calls into it
  std::unique_ptr<malsched::ShardedSchedulerService> service;
};

std::unique_ptr<Setup> build(std::uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  for (auto& entry : serve_poisson_pool(seed)) {
    setup->handles.push_back(timed_intern(std::move(entry.instance), setup->intern_seconds));
  }
  for (const auto& handle : setup->handles) {
    setup->references.push_back(setup->gate.reference(answer_of(
        malsched::SolverRegistry::global().solve(SolveRequest("mrt", {}, handle, false)))));
  }
  malsched::ServiceConfig config;
  config.threads = kWorkers;
  config.cache = false;
  config.gc_slots = true;  // a long-running tier: outcomes are taken once
  setup->service = std::make_unique<malsched::ShardedSchedulerService>(config, 1);
  Recorder* recorder = &setup->recorder;
  setup->service->on_result([recorder](const SolveOutcome& outcome) { recorder->record(outcome); });
  // Warm-up: the first two instances of every family, one at a time, so the
  // workers have run the solver before the clock starts and the queue stays
  // shallow.
  const std::size_t warmup =
      std::min<std::size_t>(setup->handles.size(), 2 * all_families().size());
  for (std::size_t i = 0; i < warmup; ++i) {
    const auto ticket =
        setup->service->submit(SolveRequest("mrt", {}, setup->handles[i], false));
    (void)setup->service->wait(ticket);
  }
  (void)setup->recorder.take();
  return setup;
}

struct Arrival {
  double at{0.0};  ///< seconds after the phase origin
  std::size_t pick{0};
};

/// `count` Poisson arrivals at `rate` with uniform pool picks drawn from a
/// stream forked off `seed`. The instants are scaled so that the last one
/// falls at exactly count / rate seconds -- a Poisson process's arrivals
/// given their count -- so a trace offers exactly `rate` rather than a draw
/// a few percent either side of it.
std::vector<Arrival> make_trace(double rate, int count, std::size_t pool, std::uint64_t seed) {
  malsched::ArrivalOptions options;
  options.process = malsched::ArrivalProcess::kPoisson;
  options.rate_per_second = rate;
  options.duration_seconds = 1e9;  // the count decides
  options.max_arrivals = static_cast<std::size_t>(count);
  const auto instants = malsched::generate_arrivals(options, seed);
  const double scale = static_cast<double>(count) / rate / instants.back();
  malsched::Rng picks(malsched::Rng(seed).fork_seed());
  std::vector<Arrival> trace;
  for (const double at : instants) {
    trace.push_back({at * scale, static_cast<std::size_t>(picks.uniform_int(
                                     0, static_cast<std::int64_t>(pool) - 1))});
  }
  return trace;
}

/// Sleeps to within kSpinSeconds of `due`, then spins: pacing by sleep
/// alone lets the generator run milliseconds late, while a long spin keeps
/// one more vCPU busy, which on a shared host draws CPU steal onto the
/// workers.
constexpr double kSpinSeconds = 0.0005;
void pace_until(double due) {
  for (;;) {
    const double remaining = due - process_seconds();
    if (remaining <= 0.0) return;
    if (remaining > kSpinSeconds) {
      std::this_thread::sleep_for(std::chrono::duration<double>(remaining - kSpinSeconds));
    }
  }
}

struct Phase {
  std::vector<double> latency;  ///< delivered - scheduled, every completed request
  std::vector<double> gen_lag;  ///< submit start - scheduled
  std::vector<double> submit;   ///< submit() call
  std::vector<double> wait;     ///< delivered - submit returned - solve
  std::vector<double> solve;    ///< worker-observed solve
  std::vector<double> service_path;  ///< delivered - submit start
  std::vector<double> ratios;
  double wall{0.0};          ///< first scheduled arrival to last delivery
  double worker_busy{0.0};   ///< summed worker-observed solve seconds
  std::uint64_t failed{0};
};

/// Replays `trace` open loop and checks every answer into `gate`. Spans, when
/// logged, carry request ids from `request_base` on.
Phase run_phase(Setup& setup, const std::vector<Arrival>& trace, SpanLog* log,
                AnswerGate& gate, std::uint64_t request_base = 0) {
  const std::size_t n = trace.size();
  std::vector<std::uint64_t> tickets(n);
  std::vector<double> due(n);
  std::vector<double> started(n);
  std::vector<double> returned(n);
  const double origin = process_seconds() + 0.010;
  for (std::size_t j = 0; j < n; ++j) {
    due[j] = origin + trace[j].at;
    pace_until(due[j]);
    started[j] = process_seconds();
    tickets[j] =
        setup.service->submit(SolveRequest("mrt", {}, setup.handles[trace[j].pick], false)).id;
    returned[j] = process_seconds();
  }
  setup.service->drain();
  // Observing each outcome lets gc_slots reclaim its payload; the answers
  // themselves were taken from the result stream.
  for (const std::uint64_t ticket : tickets) (void)setup.service->poll({ticket});
  auto completions = setup.recorder.take();

  Phase phase;
  double last_delivery = origin;
  const std::uint64_t violations_before = gate.violations();
  for (std::size_t j = 0; j < n; ++j) {
    const auto it = completions.find(tickets[j]);
    if (it == completions.end()) {
      gate.fail("no outcome delivered for a submitted request");
      continue;
    }
    const Completion& done = it->second;
    last_delivery = std::max(last_delivery, done.delivered);
    phase.latency.push_back(done.delivered - due[j]);
    phase.gen_lag.push_back(started[j] - due[j]);
    phase.submit.push_back(returned[j] - started[j]);
    phase.wait.push_back(done.delivered - returned[j] - done.solve_seconds);
    phase.solve.push_back(done.solve_seconds);
    phase.service_path.push_back(done.delivered - started[j]);
    if (done.worker >= 0) phase.worker_busy += done.solve_seconds;
    if (!done.ok) {
      gate.fail("request did not complete OK");
    } else if (gate.check(done.answer, setup.references[trace[j].pick])) {
      phase.ratios.push_back(done.answer.ratio);
    }
    if (log != nullptr) {
      const std::uint64_t request = request_base + j;
      const int root = log->record("bench.request", -1, request, due[j], done.delivered);
      log->record("bench.gen_lag", root, request, due[j], started[j]);
      log->record("api.submit", root, request, started[j], returned[j]);
      log->record("api.wait", root, request, returned[j], done.delivered);
    }
  }
  phase.wall = last_delivery - (origin + trace.front().at);
  phase.failed = gate.violations() - violations_before;
  return phase;
}

/// A rung passes when nothing failed, p99 <= kSloSeconds, and the backlog
/// does not grow: the median latency of the trace's last quarter stays
/// within twice the first quarter's plus 10 ms.
bool rung_passes(const Phase& phase, double& p99) {
  p99 = order_statistic(phase.latency, 0.99);
  const std::size_t quarter = phase.latency.size() / 4;
  const std::vector<double> first(phase.latency.begin(),
                                  phase.latency.begin() + static_cast<std::ptrdiff_t>(quarter));
  const std::vector<double> last(phase.latency.end() - static_cast<std::ptrdiff_t>(quarter),
                                 phase.latency.end());
  const bool growing =
      malsched::percentile(last, 50.0) > 2.0 * malsched::percentile(first, 50.0) + 0.010;
  return phase.failed == 0 && p99 <= kSloSeconds && !growing;
}

}  // namespace

int run_serve_poisson(const RunContext& context) {
  Report::stamp(context);
  SpeedMeter meter(kWorkers);
  std::vector<double> setup_seconds;
  const auto setup = repeated_setup([&] { return build(context.seed); }, meter, setup_seconds);
  Report::note(format("setup: %zu instances, median of %d set-ups %.3f s at reference speed; "
                      "timed work starts %.3f s after process start",
                      setup->handles.size(), kSetupRepeats,
                      malsched::percentile(setup_seconds, 50.0), process_seconds()));

  const int rounds = std::max(
      2, static_cast<int>(std::lround(context.seconds * kNominalRps / kRoundRequests / 2.0)));
  const std::size_t pool = setup->handles.size();
  AnswerGate answers;  // nominal rounds, digested in order
  AnswerGate ladder;   // which rungs run depends on timing, so no digest
  // Round r of the nominal phase replays its own seeded trace.
  const auto nominal_round = [&](int r, SpanLog* log) {
    const auto trace = make_trace(kNominalRps, kRoundRequests, pool,
                                  context.seed * 1000003ull + static_cast<std::uint64_t>(r));
    return run_phase(*setup, trace, log, answers,
                     static_cast<std::uint64_t>(r) * kRoundRequests);
  };
  Report report;
  if (!context.trace) {
    std::vector<double> p50;
    std::vector<double> p99;
    std::vector<double> lag;
    std::vector<double> ratios;
    for (int r = 0; r < rounds; ++r) {
      const Phase round = nominal_round(r, nullptr);
      p50.push_back(order_statistic(round.latency, 0.50));
      p99.push_back(order_statistic(round.latency, 0.99));
      lag.insert(lag.end(), round.gen_lag.begin(), round.gen_lag.end());
      ratios.insert(ratios.end(), round.ratios.begin(), round.ratios.end());
      Report::note(format("nominal round %d: p50 %.3f ms  p99 %.3f ms  %.1f req/s offered and "
                          "served",
                          r, p50.back() * 1e3, p99.back() * 1e3,
                          static_cast<double>(round.latency.size()) / round.wall));
    }
    Report::note(format("nominal %.0f req/s: %d rounds x %d requests, generator lag p99 %.3f "
                        "ms, answer digest %s",
                        kNominalRps, rounds, kRoundRequests, order_statistic(lag, 0.99) * 1e3,
                        answers.digest_hex().c_str()));

    // A rung that fails is run once more on a fresh trace and passes if the
    // retry does: one isolated host stall must not decide slo_qps, two
    // failures in a row do. Returns the passing attempt's delivered rate
    // (completed requests over first scheduled arrival to last delivery), or
    // 0 when both attempts fail.
    // A speed burst runs before the ladder and after every attempt.
    std::uint64_t rung_seed = context.seed ^ 0x1add3ull;
    const std::size_t ladder_bursts = meter.bursts().size();
    (void)meter.burst();
    const auto rung = [&](int k) {
      const double rate = kNominalRps * std::pow(kLadderStep, k);
      for (int attempt = 1; attempt <= 2; ++attempt) {
        const auto rung_trace = make_trace(rate, kRungRequests, pool, ++rung_seed);
        const Phase phase = run_phase(*setup, rung_trace, nullptr, ladder);
        const double speed = meter.burst();
        double p99_rung = 0.0;
        const bool pass = rung_passes(phase, p99_rung);
        Report::note(format("ladder rung %2d %7.1f req/s attempt %d: p99 %8.3f ms %s, then "
                            "host speed %.3f",
                            k, rate, attempt, p99_rung * 1e3, pass ? "pass" : "fail", speed));
        if (pass) return static_cast<double>(phase.latency.size()) / phase.wall;
      }
      return 0.0;
    };
    // The search keeps the highest rung known to pass and the lowest known to
    // fail (-1 and kLadderTop + 1 stand for none) and ends when they meet.
    const double ladder_deadline = process_seconds() + kLadderBudgetSeconds;
    int passed = -1;
    int failed = kLadderTop + 1;
    double served_rps = 0.0;  // delivered on rung `passed`
    int k = kLadderStart;
    while (failed - passed > 1) {
      if (process_seconds() > ladder_deadline) {
        Report::note("ladder: time budget spent; keeping the best rung passed so far");
        break;
      }
      const double served = rung(k);
      if (served > 0.0) {
        passed = k;
        served_rps = served;
      } else {
        failed = k;
      }
      k = failed > kLadderStart ? passed + 1 : passed + (failed - passed) / 2;
    }
    // The ladder's rates as measured, scaled to the reference host by the
    // median speed of its bursts.
    const std::vector<double> speeds(
        meter.bursts().begin() + static_cast<std::ptrdiff_t>(ladder_bursts), meter.bursts().end());
    const double speed = malsched::percentile(speeds, 50.0);
    const double offered = passed >= 0 ? kNominalRps * std::pow(kLadderStep, passed) : 0.0;
    const double slo_qps = offered / speed;
    Report::note(format("as measured: slo_qps %.1f req/s, delivered %.1f req/s; median host "
                        "speed %.3f over %zu bursts",
                        offered, served_rps, speed, speeds.size()));

    Report::note(format("latency_p50_ms %.6g ms (median of %d round p50s of %d samples)",
                        malsched::percentile(p50, 50.0) * 1e3, rounds, kRoundRequests));
    Report::note(format("latency_p99_ms %.6g ms (median of %d round p99s, %zu samples beyond "
                        "each)",
                        malsched::percentile(p99, 50.0) * 1e3, rounds,
                        samples_beyond(kRoundRequests, 0.99)));
    report.add("setup_s", malsched::percentile(setup_seconds, 50.0), "s", setup_seconds.size());
    report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    // The closed loops define slo_qps from their throughput; here the
    // throughput is the rate delivered at slo_qps, because the nominal rate
    // sits below the knee and its delivered rate measures the trace.
    report.add("throughput_rps", served_rps / speed, "req/s", 1);
    report.add("slo_qps", slo_qps, "req/s", 1);
    report.add("ratio_mean", malsched::mean_of(ratios), "ratio", ratios.size());
  } else {
#ifdef PERFBENCH_TRACED
    // Traced run: half the nominal rounds untraced, the other half traced,
    // then the single-threaded replay of the pool.
    const int half = std::max(1, rounds / 2);
    std::vector<double> plain_p50;
    for (int r = 0; r < half; ++r) {
      plain_p50.push_back(order_statistic(nominal_round(r, nullptr).latency, 0.5));
    }
    const auto stats_before = setup->service->stats();
    const auto hashes_before = malsched::InstanceHandle::content_hashes();
    SpanLog log;
    Phase traced;
    std::vector<double> traced_p50;
    for (int r = half; r < 2 * half; ++r) {
      Phase round = nominal_round(r, &log);
      traced_p50.push_back(order_statistic(round.latency, 0.5));
      for (auto field : {&Phase::latency, &Phase::gen_lag, &Phase::submit, &Phase::wait,
                         &Phase::solve, &Phase::service_path}) {
        (traced.*field).insert((traced.*field).end(), (round.*field).begin(),
                               (round.*field).end());
      }
      traced.wall += round.wall;
      traced.worker_busy += round.worker_busy;
    }
    const auto requests = static_cast<double>(traced.latency.size());
    const auto hashes = malsched::InstanceHandle::content_hashes() - hashes_before;
    const auto sharded = setup->service->shard_stats();
    const auto& stats = sharded.total;

    LayerMetrics layers;
    layers.set("model.intern_us_p50", order_statistic(setup->intern_seconds, 0.5) * 1e6,
               setup->intern_seconds.size());
    layers.set("model.content_hashes_per_req", static_cast<double>(hashes) / requests,
               traced.latency.size());
    layers.set("exec.worker_busy_ratio", traced.worker_busy / (kWorkers * traced.wall),
               traced.solve.size());
    layers.set("exec.queue_depth_high_water", static_cast<double>(stats.queue_depth_high_water),
               1);
    set_latency_pair(layers, "api.submit_us", traced.submit, "us");
    set_latency_pair(layers, "api.wait_ms", traced.wait, "ms");
    set_latency_pair(layers, "api.solve_ms", traced.solve, "ms");
    layers.set("api.workspace_reuses",
               static_cast<double>(stats.workspace_reuses - stats_before.workspace_reuses),
               traced.latency.size());
    layers.set("api.miss_us_p50", order_statistic(traced.service_path, 0.5) * 1e6,
               traced.service_path.size());
    layers.set("api.shard_skew", shard_skew(sharded), sharded.shards.size());
    layers.set("bench.gen_lag_ms_p99", order_statistic(traced.gen_lag, 0.99) * 1e3,
               traced.gen_lag.size());
    const double plain = malsched::percentile(plain_p50, 50.0);
    const double with_spans = malsched::percentile(traced_p50, 50.0);
    layers.set("bench.trace_overhead_pct", (with_spans - plain) / plain * 100.0,
               plain_p50.size() + traced_p50.size());
    Report::note(format("trace overhead: p50 %.3f ms traced vs %.3f ms untraced",
                        with_spans * 1e3, plain * 1e3));
    add_solver_layers(layers, setup->handles, log);
    finish_trace(log, context);
    layers.emit(report);
#endif
  }
  for (const AnswerGate* gate : {&setup->gate, &answers, &ladder}) {
    for (const auto& message : gate->messages()) Report::note("GATE " + message);
  }
  return report.finish(setup->gate.checked() + answers.checked() + ladder.checked(),
                       setup->gate.violations() + answers.violations() + ladder.violations());
}

}  // namespace perfbench
