#include "oracles/exact_small.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "sched/list_scheduler.hpp"

namespace malsched {

namespace {

long long int_pow(long long base, int exp) {
  long long result = 1;
  for (int i = 0; i < exp; ++i) {
    if (result > (1LL << 62) / base) return 1LL << 62;
    result *= base;
  }
  return result;
}

long long factorial(int n) {
  long long result = 1;
  for (int i = 2; i <= n; ++i) result *= i;
  return result;
}

}  // namespace

std::optional<BruteForceResult> brute_force_schedule(const Instance& instance, long long budget) {
  const int n = instance.size();
  const int m = instance.machines();
  if (n == 0) return BruteForceResult{0.0, Schedule(m, 0)};
  if (n > 8) return std::nullopt;
  const long long combos = int_pow(m, n) * factorial(n);
  if (combos > budget) return std::nullopt;

  std::vector<int> allotment(static_cast<std::size_t>(n), 1);
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  std::optional<BruteForceResult> best;
  for (;;) {
    // Try every priority permutation for this allotment.
    std::vector<int> perm = order;
    std::sort(perm.begin(), perm.end());
    do {
      Schedule candidate = list_schedule(instance, allotment, perm);
      const double makespan = candidate.makespan();
      if (!best || makespan < best->makespan) {
        best = BruteForceResult{makespan, std::move(candidate)};
      }
    } while (std::next_permutation(perm.begin(), perm.end()));

    // Advance the allotment vector like a mixed-radix counter.
    int digit = 0;
    while (digit < n) {
      if (allotment[static_cast<std::size_t>(digit)] < m) {
        ++allotment[static_cast<std::size_t>(digit)];
        break;
      }
      allotment[static_cast<std::size_t>(digit)] = 1;
      ++digit;
    }
    if (digit == n) break;
  }
  return best;
}

}  // namespace malsched
