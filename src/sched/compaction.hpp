#pragma once

#include "model/instance.hpp"
#include "sched/schedule.hpp"

/// Post-pass that slides tasks earlier in time without changing allotments
/// or processor assignments.
///
/// The two-shelf construction (Section 4) starts its second shelf exactly at
/// the guess d even when the first shelf finished earlier on some
/// processors; compaction removes that slack. It never hurts: the worst-case
/// guarantee is preserved and average makespans improve (measured in
/// bench_paper's EXP-T6).
namespace malsched {

/// Returns a schedule where every task, in order of original start time
/// (equal starts, -0.0 and +0.0 included: the lower task index first),
/// begins as early as its processors allow. The order is kept per
/// processor, in the processor chains of sched/processor_chains.hpp: a
/// task's new start is the latest new end of its predecessors on its
/// chains, and it is placed once it heads every chain it lies on. That
/// gives bit for bit the starts of one pass over all tasks in global start
/// order, without sorting them all. Processor intervals are unchanged.
/// Throws std::logic_error when a task is unassigned.
[[nodiscard]] Schedule compact_schedule(const Schedule& schedule, const Instance& instance);

}  // namespace malsched
