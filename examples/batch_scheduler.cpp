// HPC batch scheduling with moldable jobs, through the service front door:
// a long-lived SchedulerService drains queue snapshots with the sqrt(3)
// scheduler against the strategies an operator might hand-roll (fixed
// user-requested widths, pure sequential backfill). Each snapshot is
// interned ONCE into an InstanceHandle (content fingerprint + static lower
// bound computed up front) and submitted as API-v2 SolveRequests; results
// stream back in ticket order no matter which worker finished first. A
// second drain of the same snapshots then shows the content-addressed solve
// cache answering the whole round from memory -- and with several workers,
// racing duplicates coalesce in flight (dedup_join) instead of solving
// twice -- the daemon-shaped workload (Wu & Loiseau's cloud batches,
// re-evaluated queue snapshots) the service API exists for.
//
// Run: ./build/examples/batch_scheduler

#include <iostream>
#include <vector>

#include "api/scheduler_service.hpp"
#include "support/statistics.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "workload/trace.hpp"

namespace {

/// Machine utilization of a schedule: busy area over m * makespan.
double utilization(const malsched::Schedule& schedule, const malsched::Instance& instance) {
  double busy = 0.0;
  for (int i = 0; i < instance.size(); ++i) {
    const auto& assignment = schedule.of(i);
    busy += static_cast<double>(assignment.procs()) * assignment.duration;
  }
  return busy / (static_cast<double>(instance.machines()) * schedule.makespan());
}

}  // namespace

int main() {
  using namespace malsched;
  constexpr int kSnapshots = 6;
  std::cout << "Moldable batch queue: draining snapshots on a 128-node machine\n\n";

  TraceOptions options;
  options.machines = 128;
  options.jobs = 96;

  const SolverOptions half_speedup = SolverOptions::from_string("policy=half-speedup");
  const SolverOptions lpt_seq = SolverOptions::from_string("policy=lpt-seq");

  // The long-lived front door: persistent workers, ordered result stream,
  // solve cache on. The callback counts deliveries to show the stream is
  // complete and in ticket order by the time drain() returns.
  SchedulerService service;
  std::size_t streamed = 0;
  bool stream_ordered = true;
  service.on_result([&](const SolveOutcome& outcome) {
    // Tickets are dense from 0, so delivery i must carry ticket i.
    if (outcome.ticket != streamed) stream_ordered = false;
    ++streamed;
  });

  // Three strategies per snapshot; tickets[3*s] is MRT on snapshot s,
  // followed by the two naive anchors. Each snapshot is interned once; its
  // three requests share the handle (and its precomputed fingerprint), so
  // nothing below re-reads the profile bits.
  std::vector<InstanceHandle> snapshots;
  std::vector<JobTicket> tickets;
  const Stopwatch first_round;
  for (int snapshot = 0; snapshot < kSnapshots; ++snapshot) {
    const auto handle = InstanceHandle::intern(
        trace_snapshot(options, 500 + static_cast<std::uint64_t>(snapshot)));
    snapshots.push_back(handle);
    tickets.push_back(service.submit({"mrt", {}, handle}));
    tickets.push_back(service.submit({"naive", half_speedup, handle}));
    tickets.push_back(service.submit({"naive", lpt_seq, handle}));
  }
  service.drain();
  const double first_round_ms = first_round.millis();

  Table table({"snapshot", "jobs", "MRT makespan", "MRT util%", "half-speedup", "lpt-seq",
               "speedup vs lpt"});
  Summary mrt_util;
  for (int snapshot = 0; snapshot < kSnapshots; ++snapshot) {
    const auto& instance = snapshots[static_cast<std::size_t>(snapshot)].instance();
    const auto mrt = service.wait(tickets[static_cast<std::size_t>(3 * snapshot)]);
    const auto half = service.wait(tickets[static_cast<std::size_t>(3 * snapshot + 1)]);
    const auto lpt = service.wait(tickets[static_cast<std::size_t>(3 * snapshot + 2)]);
    if (mrt.status != SolveStatus::kOk || half.status != SolveStatus::kOk ||
        lpt.status != SolveStatus::kOk) {
      std::cerr << "snapshot " << snapshot << " failed: " << mrt.error.detail << half.error.detail
                << lpt.error.detail << "\n";
      return 1;
    }
    const double util = 100.0 * utilization(mrt.result->schedule, instance);
    mrt_util.add(util);
    table.add_row({cell(snapshot), cell(instance.size()), cell(mrt.result->makespan, 2),
                   cell(util, 1), cell(half.result->makespan, 2),
                   cell(lpt.result->makespan, 2),
                   cell(lpt.result->makespan / mrt.result->makespan, 2)});
  }
  table.print(std::cout);

  // The daemon re-evaluates the same queue state (nothing arrived, nothing
  // finished): every job is a content-hash cache hit, answered from memory.
  const Stopwatch second_round;
  std::vector<JobTicket> repeat_tickets;
  for (int snapshot = 0; snapshot < kSnapshots; ++snapshot) {
    const auto& handle = snapshots[static_cast<std::size_t>(snapshot)];
    repeat_tickets.push_back(service.submit({"mrt", {}, handle}));
    repeat_tickets.push_back(service.submit({"naive", half_speedup, handle}));
    repeat_tickets.push_back(service.submit({"naive", lpt_seq, handle}));
  }
  service.drain();
  const double second_round_ms = second_round.millis();
  std::size_t repeat_served = 0;
  for (const auto ticket : repeat_tickets) {
    const auto outcome = service.wait(ticket);
    if (outcome.cache_hit || outcome.dedup_join) ++repeat_served;
  }

  const auto stats = service.stats();
  std::cout << "\nfirst drain:  " << tickets.size() << " solves on " << service.threads()
            << " thread(s) in " << cell(first_round_ms, 1) << " ms\n";
  std::cout << "second drain: " << repeat_served << "/" << repeat_tickets.size()
            << " served from memory (cache hits + in-flight joins) in "
            << cell(second_round_ms, 1) << " ms\n";
  std::cout << "stream: " << streamed << " results delivered "
            << (stream_ordered ? "in ticket order" : "OUT OF ORDER (bug!)") << "; cache "
            << stats.cache_hits << " hits / " << stats.cache_misses << " misses; "
            << stats.dedup_joins << " dedup joins\n";
  std::cout << "\nmean MRT utilization: " << cell(mrt_util.mean(), 1)
            << "% -- the dual search squeezes the queue against its certified lower\n"
            << "bound, so idle area only remains where the speedup curves flatten.\n";
  return stream_ordered ? 0 : 1;
}
