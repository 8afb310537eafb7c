#include "baselines/naive.hpp"

#include <vector>

#include "sched/list_scheduler.hpp"

namespace malsched {

Schedule lpt_sequential_schedule(const Instance& instance) {
  const std::vector<int> allotment(static_cast<std::size_t>(instance.size()), 1);
  const auto order = order_by_decreasing_seq_time(instance);
  return list_schedule(instance, allotment, order);
}

Schedule gang_schedule(const Instance& instance) {
  Schedule schedule(instance.machines(), instance.size());
  double clock = 0.0;
  for (int i = 0; i < instance.size(); ++i) {
    const double duration = instance.task(i).time(instance.machines());
    schedule.assign(i, clock, duration, 0, instance.machines());
    clock += duration;
  }
  return schedule;
}

Schedule half_max_speedup_schedule(const Instance& instance) {
  std::vector<int> allotment(static_cast<std::size_t>(instance.size()), 1);
  for (int i = 0; i < instance.size(); ++i) {
    const MalleableTask task = instance.task(i);
    const double target = task.speedup(instance.machines()) / 2.0;
    int procs = 1;
    while (procs < instance.machines() && task.speedup(procs) < target) ++procs;
    allotment[static_cast<std::size_t>(i)] = procs;
  }
  const auto order = order_by_decreasing_alloted_time(instance, allotment);
  return list_schedule(instance, allotment, order);
}

}  // namespace malsched
