#include "sched/gantt.hpp"

#include <algorithm>
#include <iomanip>
#include <string>
#include <vector>

namespace malsched {

namespace {

char letter_for(int task) {
  constexpr int kCycle = 52;
  const int slot = task % kCycle;
  return slot < 26 ? static_cast<char>('A' + slot) : static_cast<char>('a' + slot - 26);
}

}  // namespace

void render_gantt(std::ostream& out, const Schedule& schedule, const GanttOptions& options) {
  const double makespan = schedule.makespan();
  if (makespan <= 0.0) {
    out << "(empty schedule)\n";
    return;
  }
  const int width = std::max(8, options.width);
  const int rows = std::min(schedule.machines(), std::max(1, options.max_rows));
  std::vector<std::string> grid(static_cast<std::size_t>(rows),
                                std::string(static_cast<std::size_t>(width), '.'));

  for (int i = 0; i < schedule.num_tasks(); ++i) {
    if (!schedule.is_assigned(i)) continue;
    const auto& assignment = schedule.of(i);
    // Half-open cell range [c0, c1) covering [start, end).
    int c0 = static_cast<int>(assignment.start / makespan * width);
    int c1 = static_cast<int>(assignment.end() / makespan * width);
    c0 = std::clamp(c0, 0, width - 1);
    c1 = std::clamp(std::max(c1, c0 + 1), c0 + 1, width);
    const int last = std::min(rows, assignment.first_proc + assignment.num_procs);
    for (int p = assignment.first_proc; p < last; ++p) {
      for (int c = c0; c < c1; ++c) {
        grid[static_cast<std::size_t>(p)][static_cast<std::size_t>(c)] = letter_for(i);
      }
    }
  }

  out << "time 0 " << std::string(static_cast<std::size_t>(std::max(0, width - 18)), '-') << " "
      << std::fixed << std::setprecision(3) << makespan << "\n";
  for (int p = 0; p < rows; ++p) {
    out << "P" << std::setw(3) << std::left << p << " |" << grid[static_cast<std::size_t>(p)]
        << "|\n";
  }
  if (rows < schedule.machines()) {
    out << "     (" << schedule.machines() - rows << " more processors elided)\n";
  }
  out << "legend:";
  const int shown = std::min(schedule.num_tasks(), 26);
  for (int i = 0; i < shown; ++i) {
    if (!schedule.is_assigned(i)) continue;
    const auto& assignment = schedule.of(i);
    out << " " << letter_for(i) << "=t" << i << "(p" << assignment.procs() << ")";
  }
  if (schedule.num_tasks() > shown) out << " ...";
  out << "\n";
}

}  // namespace malsched
