#include "core/two_shelf.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/canonical.hpp"
#include "core/dual_workspace.hpp"
#include "knapsack/knapsack.hpp"
#include "packing/first_fit.hpp"
#include "packing/shelf.hpp"
#include "support/math_utils.hpp"

namespace malsched {

namespace {

using detail::TwoShelfMigrant;

struct Partition {
  std::vector<int>* s1;  ///< tall tasks, t_i(gamma_i) > lambda*d
  std::vector<int>* s2;  ///< medium tasks, d/2 < t <= lambda*d
  std::vector<int>* s3;  ///< small sequential tasks, t <= d/2
  long long q1{0};
  long long q2{0};
  long long q3{0};
};

Partition make_partition(const Instance& instance, const CanonicalAllotment& canonical,
                         double deadline, TwoShelfScratch& scratch) {
  Partition part{&scratch.s1, &scratch.s2, &scratch.s3, 0, 0, 0};
  scratch.s1.clear();
  scratch.s2.clear();
  scratch.s3.clear();
  const double lambda_d = kLambda * deadline;
  const double half_d = deadline / 2.0;
  long long s1_procs = 0;
  for (int i = 0; i < instance.size(); ++i) {
    const int gamma = canonical.procs[static_cast<std::size_t>(i)];
    const double time = instance.task(i).time(gamma);
    if (!leq(time, lambda_d)) {
      scratch.s1.push_back(i);
      s1_procs += gamma;
    } else if (gamma == 1 && leq(time, half_d)) {
      // Property 1 makes every t <= d/2 task sequential; the gamma check is
      // numerical defensiveness only.
      scratch.s3.push_back(i);
    } else {
      scratch.s2.push_back(i);
      part.q2 += gamma;
    }
  }
  part.q1 = s1_procs - instance.machines();
  if (!scratch.s3.empty()) {
    scratch.sizes.clear();
    for (const int i : scratch.s3) scratch.sizes.push_back(instance.task(i).time(1));
    part.q3 = first_fit_bin_count(scratch.sizes, lambda_d, scratch.ff_loads);
  }
  return part;
}

/// Builds the standard lambda-schedule for migrated set `migrants`
/// (subset of the candidates): shelf 1 carries S1 minus the migrants,
/// shelf 2 the migrants + S2 + S3. Returns nullopt if a shelf overflows
/// (cannot happen when the knapsack feasibility conditions hold; kept as a
/// defensive check so no invalid schedule ever escapes).
std::optional<Schedule> build_lambda_schedule(const Instance& instance,
                                              const CanonicalAllotment& canonical,
                                              const Partition& part, double deadline,
                                              const std::vector<TwoShelfMigrant>& migrants,
                                              TwoShelfScratch& scratch) {
  const int machines = instance.machines();
  const double lambda_d = kLambda * deadline;
  Schedule schedule(machines, instance.size());

  scratch.migrated.assign(static_cast<std::size_t>(instance.size()), 0);
  for (const auto& candidate : migrants) {
    scratch.migrated[static_cast<std::size_t>(candidate.task)] = 1;
  }

  ShelfAllocator shelf1(machines);
  for (const int i : *part.s1) {
    if (scratch.migrated[static_cast<std::size_t>(i)]) continue;
    const int gamma = canonical.procs[static_cast<std::size_t>(i)];
    const auto column = shelf1.allocate(gamma);
    if (!column) return std::nullopt;
    schedule.assign(i, 0.0, instance.task(i).time(gamma), *column, gamma);
  }

  ShelfAllocator shelf2(machines);
  for (const auto& candidate : migrants) {
    const auto column = shelf2.allocate(candidate.gamma_lambda);
    if (!column) return std::nullopt;
    schedule.assign(candidate.task, deadline,
                    instance.task(candidate.task).time(candidate.gamma_lambda), *column,
                    candidate.gamma_lambda);
  }
  for (const int i : *part.s2) {
    const int gamma = canonical.procs[static_cast<std::size_t>(i)];
    const auto column = shelf2.allocate(gamma);
    if (!column) return std::nullopt;
    schedule.assign(i, deadline, instance.task(i).time(gamma), *column, gamma);
  }
  if (!part.s3->empty()) {
    // scratch.sizes still holds the S3 sequential times from make_partition;
    // the packing is rebuilt into reused storage, in the q3 bins
    // first_fit_bin_count counted there.
    first_fit_into(scratch.sizes, lambda_d, scratch.ff_packing);
    const auto& packing = scratch.ff_packing;
    for (int b = 0; b < packing.bin_count(); ++b) {
      const auto column = shelf2.allocate(1);
      if (!column) return std::nullopt;
      double offset = 0.0;
      for (const int item : packing.bins[static_cast<std::size_t>(b)]) {
        const int task = (*part.s3)[static_cast<std::size_t>(item)];
        const double time = instance.task(task).time(1);
        schedule.assign(task, deadline + offset, time, *column, 1);
        offset += time;
      }
    }
  }
  return schedule;
}

/// Builds a *trivial solution* of 4_lambda: `lone` alone on shelf 2; every
/// other task -- including S2 and the First-Fit-packed S3 -- on shelf 1.
std::optional<Schedule> build_trivial_schedule(const Instance& instance,
                                               const CanonicalAllotment& canonical,
                                               const Partition& part, double deadline,
                                               const TwoShelfMigrant& lone,
                                               TwoShelfScratch& scratch) {
  const int machines = instance.machines();
  const double lambda_d = kLambda * deadline;
  Schedule schedule(machines, instance.size());

  ShelfAllocator shelf1(machines);
  for (const int i : *part.s1) {
    if (i == lone.task) continue;
    const int gamma = canonical.procs[static_cast<std::size_t>(i)];
    const auto column = shelf1.allocate(gamma);
    if (!column) return std::nullopt;
    schedule.assign(i, 0.0, instance.task(i).time(gamma), *column, gamma);
  }
  for (const int i : *part.s2) {
    const int gamma = canonical.procs[static_cast<std::size_t>(i)];
    const auto column = shelf1.allocate(gamma);
    if (!column) return std::nullopt;
    schedule.assign(i, 0.0, instance.task(i).time(gamma), *column, gamma);
  }
  if (!part.s3->empty()) {
    first_fit_into(scratch.sizes, lambda_d, scratch.ff_packing);
    const auto& packing = scratch.ff_packing;
    for (int b = 0; b < packing.bin_count(); ++b) {
      const auto column = shelf1.allocate(1);
      if (!column) return std::nullopt;
      double offset = 0.0;
      for (const int item : packing.bins[static_cast<std::size_t>(b)]) {
        const int task = (*part.s3)[static_cast<std::size_t>(item)];
        const double time = instance.task(task).time(1);
        schedule.assign(task, offset, time, *column, 1);
        offset += time;
      }
    }
  }

  ShelfAllocator shelf2(machines);
  const auto column = shelf2.allocate(lone.gamma_lambda);
  if (!column) return std::nullopt;
  schedule.assign(lone.task, deadline, instance.task(lone.task).time(lone.gamma_lambda),
                  *column, lone.gamma_lambda);
  return schedule;
}

/// The Section-4 case analysis. `canonical` must already have survived the
/// Property-2 test.
TwoShelfOutcome two_shelf_run(const Instance& instance, const CanonicalAllotment& canonical,
                              double deadline, const TwoShelfOptions& options,
                              TwoShelfScratch& scratch) {
  TwoShelfOutcome outcome;
  const auto part = make_partition(instance, canonical, deadline, scratch);
  outcome.s1_count = static_cast<int>(part.s1->size());
  outcome.s2_count = static_cast<int>(part.s2->size());
  outcome.s3_count = static_cast<int>(part.s3->size());
  outcome.q1 = part.q1;
  outcome.q2 = part.q2;
  outcome.q3 = part.q3;
  const long long capacity = instance.machines() - part.q2 - part.q3;
  outcome.knapsack_capacity = capacity;

  // Knapsack candidates: S1 tasks that *can* meet the lambda*d deadline.
  const double lambda_d = kLambda * deadline;
  auto& candidates = scratch.candidates;
  auto& items = scratch.items;
  candidates.clear();
  items.clear();
  for (const int i : *part.s1) {
    const auto gl = instance.task(i).min_procs_for(lambda_d);
    if (!gl || *gl > instance.machines()) continue;
    const int gamma = canonical.procs[static_cast<std::size_t>(i)];
    candidates.push_back({i, gamma, *gl});
    items.push_back({*gl, gamma});
  }

  const auto select_to_schedule = [&](const KnapsackSelection& selection) {
    auto& migrants = scratch.migrants;
    migrants.clear();
    for (const int idx : selection.items) {
      migrants.push_back(candidates[static_cast<std::size_t>(idx)]);
    }
    return build_lambda_schedule(instance, canonical, part, deadline, migrants, scratch);
  };

  if (capacity >= 0) {
    // Fast path shared by both modes: a single candidate already covering q1
    // (the paper folds these into the trivial set 4_lambda).
    for (std::size_t idx = 0; idx < items.size(); ++idx) {
      if (items[idx].profit >= part.q1 && items[idx].weight <= capacity) {
        KnapsackSelection single;
        single.items = {static_cast<int>(idx)};
        single.weight = items[idx].weight;
        single.profit = items[idx].profit;
        if (auto schedule = select_to_schedule(single)) {
          outcome.knapsack_profit = single.profit;
          outcome.schedule = std::move(schedule);
          return outcome;
        }
      }
    }

    KnapsackSelection selection;
    if (options.knapsack == KnapsackMode::kExact) {
      // knapsack_exact_auto degrades to branch and bound instead of
      // std::length_error when the DP table would blow the memory guard.
      selection = knapsack_exact_auto(items, capacity, scratch.knapsack, &options.cancel);
    } else {
      selection = knapsack_fptas(items, capacity, options.fptas_eps);
      if (selection.profit < part.q1 && part.q1 > 0) {
        // Lemma 2's dual route: approximate (P') and accept when its weight
        // still fits the second shelf.
        if (const auto dual = min_knapsack_approx(items, part.q1, options.fptas_eps);
            dual && dual->weight <= capacity) {
          selection = *dual;
          outcome.used_dual_knapsack = true;
        }
      }
    }
    outcome.knapsack_profit = selection.profit;
    if (selection.profit >= part.q1) {
      if (auto schedule = select_to_schedule(selection)) {
        outcome.schedule = std::move(schedule);
        return outcome;
      }
    }
  }

  // Section 4.5: one huge task alone on the short shelf, everything else
  // (S1 remainder, S2, S3) packed on the long shelf.
  for (const auto& candidate : candidates) {
    if (candidate.gamma >= part.q1 + part.q2 + part.q3) {
      if (auto schedule =
              build_trivial_schedule(instance, canonical, part, deadline, candidate, scratch)) {
        outcome.used_trivial = true;
        outcome.schedule = std::move(schedule);
        return outcome;
      }
    }
  }
  return outcome;
}

}  // namespace

TwoShelfOutcome two_shelf_schedule(const Instance& instance, double deadline,
                                   const TwoShelfOptions& options) {
  DualWorkspace workspace(instance);
  return two_shelf_schedule(workspace, deadline, options);
}

TwoShelfOutcome two_shelf_schedule(DualWorkspace& workspace, double deadline,
                                   const TwoShelfOptions& options) {
  const Instance& instance = workspace.instance();
  const auto& canonical = workspace.canonical(deadline);
  if (certified_infeasible(instance, canonical)) {
    TwoShelfOutcome outcome;
    outcome.certified_reject = true;
    return outcome;
  }
  auto& scratch = workspace.two_shelf_scratch();
  // Capacity fingerprint before/after: an attempt that grew any scratch
  // buffer counts one allocation event, keeping the workspace's
  // allocation-free-after-warm-up claim auditable for this branch too.
  const auto capacity_fingerprint = [&] {
    std::size_t fingerprint = scratch.s1.capacity() + scratch.s2.capacity() +
                              scratch.s3.capacity() + scratch.sizes.capacity() +
                              scratch.candidates.capacity() + scratch.migrants.capacity() +
                              scratch.items.capacity() + scratch.migrated.capacity() +
                              scratch.ff_loads.capacity() + scratch.ff_packing.loads.capacity() +
                              scratch.ff_packing.bins.capacity();
    for (const auto& bin : scratch.ff_packing.bins) fingerprint += bin.capacity();
    return fingerprint;
  };
  const std::size_t before = capacity_fingerprint();
  auto outcome = two_shelf_run(instance, canonical, deadline, options, scratch);
  if (capacity_fingerprint() != before) ++scratch.alloc_events;
  return outcome;
}

}  // namespace malsched
