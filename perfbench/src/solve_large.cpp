// solve-large: closed loop, one thread, no service. Each request is
// SolverRegistry::solve(SolveRequest("mrt", {}, handle, false)) on a fixed
// pool of 1000-2000-task x 256-machine instances, so the mrt hot path does
// all of the work and the serving layers none. The pool mixes families that
// converge in one dual step with nine-step ones, which is where the
// breakpoint-index build weighs against the per-step cost.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "pools.hpp"
#include "registry/solver_registry.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

#ifdef PERFBENCH_TRACED
#include "replay.hpp"
#endif

namespace perfbench {

namespace {

using malsched::InstanceHandle;
using malsched::SolveRequest;
using malsched::SolverRegistry;

/// Solves per second the fixed work is sized for: one run does
/// round(seconds * kNominalRps / pool size) whole passes over the pool. At
/// about 60 solves/s on the reference host a run lasts 1.7x --seconds: the
/// solver's speed drifts in phases of seconds that the speed meter does not
/// see, and 30 s runs left 0.10 of run-to-run spread.
constexpr double kNominalRps = 100.0;

struct Setup {
  std::vector<std::string> families;
  std::vector<InstanceHandle> handles;
  std::vector<Reference> references;
  std::vector<int> steps;
  std::vector<double> intern_seconds;
  AnswerGate gate;
};

std::unique_ptr<Setup> build(std::uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  for (auto& entry : solve_large_pool(seed)) {
    setup->families.push_back(entry.family);
    setup->handles.push_back(timed_intern(std::move(entry.instance), setup->intern_seconds));
  }
  for (const auto& handle : setup->handles) {
    const auto result = SolverRegistry::global().solve(SolveRequest("mrt", {}, handle, false));
    setup->references.push_back(setup->gate.reference(answer_of(result)));
    setup->steps.push_back(static_cast<int>(result.stat("iterations")));
  }
  return setup;
}

/// Whole passes over the pool in a seeded order per pass, with a speed
/// burst before the first pass and after each one.
struct LoopResult {
  std::vector<double> samples;                     ///< per request, seconds
  std::vector<std::vector<double>> per_instance;   ///< per pool index, seconds
  std::vector<double> pass_rps;                    ///< per pass, as measured
  std::vector<double> pass_speed;                  ///< host speed around each pass
  std::vector<double> ratios;

  /// Pass rates scaled to the reference host.
  [[nodiscard]] std::vector<double> scaled_rps() const {
    std::vector<double> out;
    for (std::size_t p = 0; p < pass_rps.size(); ++p) out.push_back(pass_rps[p] / pass_speed[p]);
    return out;
  }
};

LoopResult closed_loop(Setup& setup, int passes, std::uint64_t seed, SpanLog* log,
                       SpeedMeter& meter) {
  const std::size_t n = setup.handles.size();
  LoopResult out;
  out.per_instance.resize(n);
  malsched::Rng order_rng(seed ^ 0x0e0eull);
  std::uint64_t request = 0;
  double before = meter.burst();
  for (int pass = 0; pass < passes; ++pass) {
    const auto order = order_rng.permutation(n);
    const double pass_start = process_seconds();
    for (const std::size_t i : order) {
      const SolveRequest solve_request("mrt", {}, setup.handles[i], false);
      std::optional<Scoped> root;
      if (log != nullptr) root.emplace(*log, "bench.request", request);
      const double start = process_seconds();
      std::optional<Scoped> call;
      if (log != nullptr) call.emplace(*log, "registry.solve", request);
      const auto result = SolverRegistry::global().solve(solve_request);
      call.reset();
      const double elapsed = process_seconds() - start;
      root.reset();
      ++request;
      out.samples.push_back(elapsed);
      out.per_instance[i].push_back(elapsed);
      if (setup.gate.check(answer_of(result), setup.references[i])) {
        out.ratios.push_back(result.ratio);
      }
    }
    out.pass_rps.push_back(static_cast<double>(n) / (process_seconds() - pass_start));
    const double after = meter.burst();
    out.pass_speed.push_back(0.5 * (before + after));
    before = after;
  }
  return out;
}

}  // namespace

int run_solve_large(const RunContext& context) {
  Report::stamp(context);
  SpeedMeter meter(1);  // one thread does all of the work
  std::vector<double> setup_seconds;
  const auto setup = repeated_setup([&] { return build(context.seed); }, meter, setup_seconds);
  Report::note(format("setup: %zu instances, median of %d set-ups %.3f s at reference speed; "
                      "timed work starts %.3f s after process start",
                      setup->handles.size(), kSetupRepeats,
                      malsched::percentile(setup_seconds, 50.0), process_seconds()));

  const auto pool = static_cast<double>(setup->handles.size());
  const int passes =
      std::max(2, static_cast<int>(std::lround(context.seconds * kNominalRps / pool)));
  Report report;
  if (!context.trace) {
    const LoopResult loop = closed_loop(*setup, passes, context.seed, nullptr, meter);
    const double speed = malsched::percentile(loop.pass_speed, 50.0);
    std::vector<double> instance_medians;
    for (const auto& samples : loop.per_instance) {
      instance_medians.push_back(malsched::percentile(samples, 50.0) * speed);
    }
    const double throughput = malsched::percentile(loop.scaled_rps(), 50.0);
    const double slowest = *std::max_element(instance_medians.begin(), instance_medians.end());
    const auto failed = setup->gate.violations();
    for (std::size_t p = 0; p < loop.pass_rps.size(); ++p) {
      Report::note(format("pass %2zu: %.2f req/s at host speed %.3f", p, loop.pass_rps[p],
                          loop.pass_speed[p]));
    }
    Report::note(format("as measured: throughput %.3f req/s (median pass), median host speed "
                        "%.3f",
                        malsched::percentile(loop.pass_rps, 50.0), speed));
    report.add("setup_s", malsched::percentile(setup_seconds, 50.0), "s", setup_seconds.size());
    report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    report.add("throughput_rps", throughput, "req/s", loop.pass_rps.size());
    Report::note(format("latency_p50_ms %.6g ms (%zu samples, at reference speed)",
                        order_statistic(loop.samples, 0.5) * speed * 1e3, loop.samples.size()));
    // The slowest pool instance's median solve time stands in for p99: the
    // pool is small, so its slowest member is the tail a user sees.
    Report::note(format("latency_p99_ms %.6g ms (slowest of %zu instance medians, at reference "
                        "speed)",
                        slowest * 1e3, instance_medians.size()));
    report.add("slo_qps", closed_loop_slo_qps(throughput, slowest, failed), "req/s",
               loop.pass_rps.size());
    report.add("ratio_mean", malsched::mean_of(loop.ratios), "ratio", loop.ratios.size());
    for (std::size_t i = 0; i < instance_medians.size(); ++i) {
      Report::note(format("instance %2zu %-16s %5d tasks %2d steps median %.3f ms", i,
                          setup->families[i].c_str(), setup->handles[i].instance().size(),
                          setup->steps[i], instance_medians[i] * 1e3));
    }
    Report::note(format("%d passes x %zu instances; answer digest %s", passes,
                        setup->handles.size(), setup->gate.digest_hex().c_str()));
  } else {
#ifdef PERFBENCH_TRACED
    // Traced run: the same loop untraced and traced (half the passes each),
    // then the single-threaded replay of every pool instance.
    const int half = std::max(1, passes / 2);
    const LoopResult plain = closed_loop(*setup, half, context.seed, nullptr, meter);
    SpanLog log;
    const auto hashes_before = InstanceHandle::content_hashes();
    const LoopResult traced = closed_loop(*setup, half, context.seed, &log, meter);
    const auto hashes = InstanceHandle::content_hashes() - hashes_before;
    LayerMetrics layers;
    layers.set("model.intern_us_p50", order_statistic(setup->intern_seconds, 0.5) * 1e6,
               setup->intern_seconds.size());
    layers.set("model.content_hashes_per_req",
               static_cast<double>(hashes) / static_cast<double>(traced.samples.size()),
               traced.samples.size());
    add_solver_layers(layers, setup->handles, log);
    const double plain_rps = malsched::percentile(plain.scaled_rps(), 50.0);
    const double traced_rps = malsched::percentile(traced.scaled_rps(), 50.0);
    layers.set("bench.trace_overhead_pct", (plain_rps - traced_rps) / plain_rps * 100.0,
               plain.pass_rps.size() + traced.pass_rps.size());
    Report::note(format("trace overhead: %.1f vs %.1f req/s untraced, at reference speed",
                        traced_rps, plain_rps));
    finish_trace(log, context);
    layers.emit(report);
#endif
  }
  for (const auto& message : setup->gate.messages()) Report::note("GATE " + message);
  return report.finish(setup->gate.checked(), setup->gate.violations());
}

}  // namespace perfbench
