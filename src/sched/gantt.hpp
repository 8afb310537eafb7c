#pragma once

#include <ostream>

#include "sched/schedule.hpp"

/// ASCII Gantt rendering.
///
/// Regenerates the paper's schematic figures (1-5) from real schedules:
/// processors are rows, time runs left to right, each task paints its cells
/// with a letter. Used by examples/algorithm_anatomy and handy for debugging.
namespace malsched {

struct GanttOptions {
  int width{72};     ///< number of time columns
  int max_rows{48};  ///< processors beyond this are elided
};

/// Renders `schedule` to `out`. Idle cells print '.', task cells a letter
/// cycling A..Z then a..z; a legend line maps the first 26 letters to their
/// task and processor count.
void render_gantt(std::ostream& out, const Schedule& schedule, const GanttOptions& options = {});

}  // namespace malsched
