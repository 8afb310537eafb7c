#include "baselines/two_phase.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "packing/strip_packing.hpp"
#include "sched/list_scheduler.hpp"
#include "support/math_utils.hpp"

namespace malsched {

std::string to_string(RigidAlgo algo) {
  switch (algo) {
    case RigidAlgo::kNfdh:
      return "nfdh";
    case RigidAlgo::kFfdh:
      return "ffdh";
    case RigidAlgo::kListSchedule:
      return "list";
  }
  return "unknown";
}

namespace {

/// Sorted distinct profile values -- the Turek/Ludwig candidate deadlines --
/// that every task meets on m processors. A value below max_i t_i(m) admits
/// no allotment, so it is dropped before the subsample spends a slot on it.
std::vector<double> candidate_thresholds(const Instance& instance, int max_candidates) {
  double longest = 0.0;
  for (int i = 0; i < instance.size(); ++i) {
    longest = std::max(longest, instance.task(i).time(instance.machines()));
  }
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(instance.size()) *
                 static_cast<std::size_t>(instance.machines()));
  for (int i = 0; i < instance.size(); ++i) {
    const MalleableTask task = instance.task(i);
    for (int p = 1; p <= instance.machines(); ++p) {
      // min_procs_for's tolerance, so a kept value is one every task meets.
      const double value = task.time(p);
      if (leq(longest, value)) values.push_back(value);
    }
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  if (max_candidates > 0 && static_cast<int>(values.size()) > max_candidates) {
    std::vector<double> sampled;
    sampled.reserve(static_cast<std::size_t>(max_candidates));
    // One candidate is the smallest; 0 * (n-1)/0 would cast NaN to an index.
    const double stride = max_candidates > 1 ? static_cast<double>(values.size() - 1) /
                                                   static_cast<double>(max_candidates - 1)
                                             : 0.0;
    for (int k = 0; k < max_candidates; ++k) {
      sampled.push_back(values[static_cast<std::size_t>(static_cast<double>(k) * stride)]);
    }
    sampled.erase(std::unique(sampled.begin(), sampled.end()), sampled.end());
    return sampled;
  }
  return values;
}

/// Rigid schedule for one allotment; nullopt when some task cannot meet the
/// threshold on m processors.
std::optional<Schedule> rigid_schedule(const Instance& instance, double threshold,
                                       RigidAlgo algo) {
  std::vector<int> allotment(static_cast<std::size_t>(instance.size()));
  for (int i = 0; i < instance.size(); ++i) {
    const auto procs = instance.task(i).min_procs_for(threshold);
    if (!procs || *procs > instance.machines()) return std::nullopt;
    allotment[static_cast<std::size_t>(i)] = *procs;
  }

  if (algo == RigidAlgo::kListSchedule) {
    const auto order = order_by_decreasing_alloted_time(instance, allotment);
    return list_schedule(instance, allotment, order);
  }

  std::vector<Rect> rects(static_cast<std::size_t>(instance.size()));
  for (int i = 0; i < instance.size(); ++i) {
    const int procs = allotment[static_cast<std::size_t>(i)];
    rects[static_cast<std::size_t>(i)] = Rect{procs, instance.task(i).time(procs)};
  }
  const auto packing = algo == RigidAlgo::kNfdh ? nfdh(rects, instance.machines())
                                                : ffdh(rects, instance.machines());
  Schedule schedule(instance.machines(), instance.size());
  for (const auto& place : packing.placements) {
    const int procs = allotment[static_cast<std::size_t>(place.item)];
    schedule.assign(place.item, place.y, instance.task(place.item).time(procs), place.x, procs);
  }
  return schedule;
}

}  // namespace

TwoPhaseResult two_phase_schedule(const Instance& instance, const TwoPhaseOptions& options) {
  const auto thresholds = candidate_thresholds(instance, options.max_candidates);

  std::optional<Schedule> best;
  double best_makespan = 0.0;
  double best_threshold = 0.0;
  int tried = 0;
  for (const double threshold : thresholds) {
    auto schedule = rigid_schedule(instance, threshold, options.rigid);
    if (!schedule) continue;
    ++tried;
    const double makespan = schedule->makespan();
    if (!best || makespan < best_makespan) {
      best = std::move(schedule);
      best_makespan = makespan;
      best_threshold = threshold;
    }
  }
  if (!best) {
    throw std::runtime_error(
        "two_phase_schedule: no feasible candidate threshold (profiles shorter than m?)");
  }
  return TwoPhaseResult{std::move(*best), best_makespan, tried, best_threshold};
}

}  // namespace malsched
