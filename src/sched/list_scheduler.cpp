#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "sched/sliding.hpp"

namespace malsched {

namespace {

void check_inputs(const Instance& instance, std::span<const int> allotment,
                  std::span<const int> order) {
  const auto n = static_cast<std::size_t>(instance.size());
  if (allotment.size() != n) throw std::invalid_argument("list_schedule: allotment size != n");
  if (order.size() != n) throw std::invalid_argument("list_schedule: order size != n");
  for (const int p : allotment) {
    if (p < 1 || p > instance.machines()) {
      throw std::invalid_argument("list_schedule: allotment outside [1, m]");
    }
  }
  std::vector<char> seen(n, 0);
  for (const int task : order) {
    if (task < 0 || static_cast<std::size_t>(task) >= n || seen[static_cast<std::size_t>(task)]) {
      throw std::invalid_argument("list_schedule: order is not a permutation of tasks");
    }
    seen[static_cast<std::size_t>(task)] = 1;
  }
}

}  // namespace

Schedule list_schedule(const Instance& instance, std::span<const int> allotment,
                       std::span<const int> order) {
  check_inputs(instance, allotment, order);
  const int machines = instance.machines();
  Schedule schedule(machines, instance.size());
  std::vector<double> tree(AvailabilityTree::storage_size(machines));
  AvailabilityTree avail(tree, machines);
  std::vector<double> window_buffer(static_cast<std::size_t>(machines));

  for (const int task : order) {
    const int procs = allotment[static_cast<std::size_t>(task)];
    const double duration = instance.task(task).time(procs);
    const auto window = earliest_window(avail, procs, window_buffer);
    schedule.assign(task, window.start, duration, window.column, procs);
    avail.fill(window.column, procs, window.start + duration);
  }
  return schedule;
}

std::vector<int> order_by_decreasing(std::span<const double> keys) {
  std::vector<int> order(keys.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return keys[static_cast<std::size_t>(a)] > keys[static_cast<std::size_t>(b)];
  });
  return order;
}

std::vector<int> order_by_decreasing_alloted_time(const Instance& instance,
                                                  std::span<const int> allotment) {
  std::vector<double> keys(static_cast<std::size_t>(instance.size()));
  for (int i = 0; i < instance.size(); ++i) {
    keys[static_cast<std::size_t>(i)] =
        instance.task(i).time(allotment[static_cast<std::size_t>(i)]);
  }
  return order_by_decreasing(keys);
}

std::vector<int> order_by_decreasing_seq_time(const Instance& instance) {
  std::vector<double> keys(static_cast<std::size_t>(instance.size()));
  for (int i = 0; i < instance.size(); ++i) {
    keys[static_cast<std::size_t>(i)] = instance.task(i).seq_time();
  }
  return order_by_decreasing(keys);
}

}  // namespace malsched
