#include "graph/graph_scheduler.hpp"

#include <algorithm>
#include <limits>

#include "core/mrt_scheduler.hpp"
#include "sched/sliding.hpp"
#include "support/math_utils.hpp"

namespace malsched {

bool respects_precedence(const Schedule& schedule, const TaskGraph& graph) {
  for (int v = 0; v < graph.size(); ++v) {
    if (!schedule.is_assigned(v)) return false;
    for (const int pred : graph.predecessors(v)) {
      if (!schedule.is_assigned(pred)) return false;
      if (!leq(schedule.of(pred).end(), schedule.of(v).start)) return false;
    }
  }
  return true;
}

GraphScheduleResult layered_graph_schedule(const TaskGraph& graph, double epsilon) {
  Schedule schedule(graph.machines(), graph.size());
  double clock = 0.0;

  for (int level = 0; level < graph.level_count(); ++level) {
    std::vector<int> members;
    for (int v = 0; v < graph.size(); ++v) {
      if (graph.levels()[static_cast<std::size_t>(v)] == level) members.push_back(v);
    }
    if (members.empty()) continue;

    Instance layer(graph.machines());
    layer.reserve(static_cast<int>(members.size()));
    for (const int v : members) {
      const MalleableTask task = graph.task(v);
      layer.add_task(task.profile(), task.name());
    }

    MrtOptions options;
    options.search.epsilon = epsilon;
    const auto result = mrt_schedule(layer, options);

    for (std::size_t k = 0; k < members.size(); ++k) {
      const auto& assignment = result.schedule.of(static_cast<int>(k));
      schedule.assign(members[k], clock + assignment.start, assignment.duration,
                      assignment.first_proc, assignment.num_procs);
    }
    clock += result.makespan;
  }

  const double lb = graph.makespan_lower_bound();
  const double makespan = schedule.makespan();
  return GraphScheduleResult{std::move(schedule), makespan, lb,
                             lb > 0.0 ? makespan / lb : 1.0};
}

GraphScheduleResult ready_list_graph_schedule(const TaskGraph& graph) {
  const int machines = graph.machines();
  Schedule schedule(machines, graph.size());
  std::vector<double> avail(static_cast<std::size_t>(machines), 0.0);

  for (const int v : graph.topological_order()) {
    // Smallest processor count reaching half the task's maximal speedup.
    const MalleableTask task = graph.task(v);
    const double target = task.speedup(machines) / 2.0;
    int procs = 1;
    while (procs < machines && task.speedup(procs) < target) ++procs;
    const double duration = task.time(procs);

    double ready = 0.0;
    for (const int pred : graph.predecessors(v)) {
      ready = std::max(ready, schedule.of(pred).end());
    }

    const auto window_ready = sliding_window_max(avail, procs);
    double best_start = std::numeric_limits<double>::infinity();
    int column = 0;
    for (std::size_t s = 0; s < window_ready.size(); ++s) {
      const double start = std::max(window_ready[s], ready);
      if (start < best_start - kAbsEps) {
        best_start = start;
        column = static_cast<int>(s);
      }
    }
    schedule.assign(v, best_start, duration, column, procs);
    for (int j = column; j < column + procs; ++j) {
      avail[static_cast<std::size_t>(j)] = best_start + duration;
    }
  }

  const double lb = graph.makespan_lower_bound();
  const double makespan = schedule.makespan();
  return GraphScheduleResult{std::move(schedule), makespan, lb,
                             lb > 0.0 ? makespan / lb : 1.0};
}

}  // namespace malsched
