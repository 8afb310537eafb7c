// The benchmark's own tests; they run no timed workload.
//
//   ctest --test-dir .bench_build/perfbench        (or run perfbench_selftest)
//
// 1. The dual-step replay lands on mrt_dual_step's branch and makespan at
//    every guess the search visits, for every generator family at small
//    sizes.
// 2. The order statistics, self times and span additivity the traced run
//    reports are checked against hand-computed values on synthetic data.
// 3. The answer gates count each bad answer once and the digest depends on
//    the answers and their order.
// 4. The speed meter runs work between two recorded bursts and reads their
//    mean.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/mrt_scheduler.hpp"
#include "pools.hpp"
#include "replay.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "speed.hpp"
#include "workload/ocean.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

/// Replays one solve and checks it against mrt_schedule: the replay counts
/// a divergence whenever it lands on another branch or makespan than
/// mrt_dual_step at a visited guess.
void check_replay(const malsched::Instance& instance, const std::string& where,
                  perfbench::ReplayTotals& sweep) {
  perfbench::SpanLog log;
  perfbench::ReplayTotals totals;
  perfbench::replay_solve(malsched::InstanceHandle::intern(instance), 0, log, totals);
  const auto solved = malsched::mrt_schedule(instance);
  check(totals.divergences == 0, where + ": replay diverges from mrt_dual_step");
  check(totals.steps == static_cast<std::uint64_t>(solved.iterations),
        where + ": replay visited as many guesses as mrt_schedule");
  check(perfbench::max_additivity_error(log.spans()) < 1e-9,
        where + ": replay spans add up to their root");
  sweep.steps += totals.steps;
  for (std::size_t b = 0; b < totals.branches.size(); ++b) sweep.branches[b] += totals.branches[b];
  ++sweep.solves;
}

void replay_matches_dual_step() {
  struct Size {
    int tasks;
    int machines;
  };
  const Size sizes[] = {{6, 3}, {12, 4}, {30, 8}, {60, 16}, {100, 32}, {4, 16}, {8, 32}};
  perfbench::ReplayTotals sweep;
  for (const auto& family : perfbench::all_families()) {
    for (const auto& size : sizes) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        check_replay(perfbench::make_instance(family, size.tasks, size.machines, seed),
                     family + " n=" + std::to_string(size.tasks) +
                         " m=" + std::to_string(size.machines) + " seed=" + std::to_string(seed),
                     sweep);
      }
    }
  }
  // Four-block ocean draws on 16 machines are where the library has been
  // seen to report uncertified rejections; replay them too, so a gap step is
  // checked like any other.
  for (std::uint64_t seed = 7000; seed < 7200; ++seed) {
    malsched::OceanOptions options;
    options.machines = 16;
    options.base_grid = 2;
    check_replay(malsched::ocean_instance(options, seed),
                 "ocean base_grid=2 m=16 seed=" + std::to_string(seed), sweep);
  }
  // The sweep must reach more than the trivial branches, or the checks
  // above prove little.
  const auto visits = [&](malsched::DualBranch branch) {
    return sweep.branches[static_cast<std::size_t>(branch)] > 0;
  };
  check(visits(malsched::DualBranch::kRejected), "sweep visits a rejected guess");
  check(visits(malsched::DualBranch::kSingleShelf), "sweep visits single-shelf");
  check(visits(malsched::DualBranch::kTwoShelfKnapsack) ||
            visits(malsched::DualBranch::kCanonicalList),
        "sweep visits a Theorem 3 branch");
  std::printf("replay: %llu instances, %llu dual steps, %llu of them gaps\n",
              static_cast<unsigned long long>(sweep.solves),
              static_cast<unsigned long long>(sweep.steps),
              static_cast<unsigned long long>(
                  sweep.branches[static_cast<std::size_t>(malsched::DualBranch::kGap)]));
}

void order_statistics() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  check(perfbench::order_statistic(hundred, 0.50) == 50.0, "p50 of 1..100 is 50");
  check(perfbench::order_statistic(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  check(perfbench::order_statistic(hundred, 1.00) == 100.0, "p100 of 1..100 is 100");
  check(perfbench::order_statistic({7.0}, 0.99) == 7.0, "p99 of one sample is that sample");
  check(perfbench::order_statistic({}, 0.5) == 0.0, "no samples read 0");
  check(perfbench::samples_beyond(100, 0.99) == 1, "1 of 100 samples lies beyond p99");
  check(perfbench::samples_beyond(1000, 0.99) == 10, "10 of 1000 samples lie beyond p99");
  check(perfbench::samples_beyond(1200, 0.99) == 12, "12 of 1200 samples lie beyond p99");
}

void self_times() {
  using perfbench::Span;
  // root [0,10] > a [1,4] > a1 [2,3]; root > b [5,6] > b1 [5.5,6].
  const std::vector<Span> nested = {
      {"root", -1, 1, 0.0, 10.0}, {"a", 0, 1, 1.0, 4.0},   {"a1", 1, 1, 2.0, 3.0},
      {"b", 0, 1, 5.0, 6.0},      {"b1", 3, 1, 5.5, 6.0},
  };
  const auto self = perfbench::self_times(nested);
  check(near(self[0], 6.0), "root self time is 10 - 3 - 1");
  check(near(self[1], 2.0), "a self time is 3 - 1");
  check(near(self[2], 1.0), "a1 has no children");
  check(near(self[3], 0.5), "b self time is 1 - 0.5");
  check(near(self[4], 0.5), "b1 has no children");
  check(near(perfbench::max_additivity_error(nested), 0.0), "nested spans add up to the root");

  // A child reaching past its parent only counts inside the parent.
  const auto clipped = perfbench::self_times({{"p", -1, 3, 0.0, 2.0}, {"c", 0, 3, 1.0, 3.0}});
  check(near(clipped[0], 1.0), "a child is clipped to its parent's interval");

  // Overlapping siblings: the union is subtracted once, so the subtree's
  // self times exceed the root's duration by the overlap.
  const std::vector<Span> overlapping = {
      {"root", -1, 2, 0.0, 10.0}, {"x", 0, 2, 1.0, 4.0}, {"y", 0, 2, 3.0, 6.0}};
  const auto overlap_self = perfbench::self_times(overlapping);
  check(near(overlap_self[0], 5.0), "root self time subtracts the union [1,6]");
  check(near(perfbench::max_additivity_error(overlapping), 1.0),
        "overlapping children show as a 1 s additivity error");

  const auto totals = perfbench::self_seconds_by_name(
      {{"solve", -1, 1, 0.0, 4.0}, {"step", 0, 1, 0.0, 1.0}, {"step", 0, 1, 2.0, 3.5}});
  check(near(totals.at("step"), 2.5), "self time summed per name");
  check(near(totals.at("solve"), 1.5), "parent keeps the uncovered part");

  perfbench::SpanLog log;
  const int outer = log.open("outer", 9);
  const int inner = log.open("inner", 9);
  log.close(inner);
  log.close(outer);
  check(log.spans()[1].parent == outer, "open() nests under the innermost open span");
  check(log.spans()[0].start <= log.spans()[1].start && log.spans()[1].end <= log.spans()[0].end,
        "a closed child lies inside its parent");
}

void gates() {
  perfbench::AnswerGate gate;
  const perfbench::Answer good{10.0, 8.0, 1.25, 0.0};
  check(gate.check(good, good), "an answer equal to its reference passes");
  perfbench::Answer off = good;
  off.makespan = 10.5;
  off.ratio = 10.5 / 8.0;
  check(!gate.check(off, good), "a different makespan fails");
  perfbench::Answer broken{10.0, 11.0, 2.0, 1.0};  // bound > makespan, ratio, gaps
  check(!gate.check(broken, broken), "bound, ratio and gaps violations fail");
  gate.fail("no outcome");
  check(gate.checked() == 4 && gate.violations() == 3, "each bad request counts once");
  (void)gate.reference(broken);
  check(gate.checked() == 5 && gate.violations() == 4, "a bad reference counts as a violation");

  perfbench::AnswerGate first;
  perfbench::AnswerGate second;
  perfbench::AnswerGate swapped;
  first.check(good, good);
  first.check(off, off);
  second.check(good, good);
  second.check(off, off);
  swapped.check(off, off);
  swapped.check(good, good);
  check(first.digest_hex() == second.digest_hex(), "equal answers give equal digests");
  check(first.digest_hex() != swapped.digest_hex(), "the digest depends on answer order");
}

void speed_meter() {
  perfbench::SpeedMeter meter(2);
  bool ran = false;
  const double speed =
      perfbench::speed_around(meter, [&] { ran = meter.bursts().size() == 1; });
  const auto& bursts = meter.bursts();
  check(ran && bursts.size() == 2, "speed_around runs the work between two bursts");
  check(bursts.size() == 2 && bursts[0] > 0.0 && bursts[1] > 0.0 && std::isfinite(bursts[0]) &&
            std::isfinite(bursts[1]),
        "a burst reads a positive, finite speed");
  check(bursts.size() == 2 && near(speed, 0.5 * (bursts[0] + bursts[1])),
        "the speed around the work is the mean of its two bursts");
}

}  // namespace

int main() {
  replay_matches_dual_step();
  order_statistics();
  self_times();
  gates();
  speed_meter();
  if (failures > 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
