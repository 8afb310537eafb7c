#pragma once

#include "model/instance.hpp"
#include "sched/schedule.hpp"
#include "sched/validate.hpp"

/// The overlap sweep and the start-order compaction that validation and
/// compaction ran before the processor chains (sched/processor_chains.hpp),
/// kept as references for the chains' property test. Test oracles, built
/// only with the tests.
namespace malsched {

/// validate_schedule's verdict, reached by per-task checks that read every
/// duration from the profile and an overlap sweep over per-processor
/// buckets of task ids, each sorted by start with std::sort.
[[nodiscard]] bool bucket_sweep_valid(const Schedule& schedule, const Instance& instance,
                                      const ValidationOptions& options = {});

/// compact_schedule's result, reached by one stable radix sort of all
/// (start, task) keys (support/radix_sort.hpp; equal starts, -0.0 and +0.0
/// included, keep the lower task first) and one pass over the tasks in that
/// order, each starting when the last of its processors frees up. Every
/// task must be assigned.
[[nodiscard]] Schedule start_order_compaction(const Schedule& schedule);

}  // namespace malsched
