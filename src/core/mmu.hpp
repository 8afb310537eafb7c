#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "model/instance.hpp"

/// Estimating m_mu, the minimal processor count for which the canonical list
/// algorithm's Property 3 holds (paper appendix, Figure 8).
///
/// The appendix derives m_mu(mu) through a case analysis whose exact closed
/// form did not survive the scan [R]; what is recoverable is its structure
/// (the constants k* and the reallocation width) and its anchor points: the
/// coarse bound is about 20 near mu = sqrt(3)/2 and the refined analysis
/// brings it down to 8. We therefore reproduce Figure 8 empirically: an
/// adversarial estimator that, for each m, stress-tests the algorithm on
/// instances with a *built-in* schedule of length 1 satisfying Theorem 2's
/// area hypothesis, and reports the smallest m beyond which the 2*mu bound
/// was never violated.
namespace malsched {

/// Instance factory used by the estimator: (machines, seed) -> instance that
/// certifiably admits a schedule of length 1 (bench_paper passes the
/// `packed_instance` workload generator).
using InstanceFactory = std::function<Instance(int machines, std::uint64_t seed)>;

struct MmuEstimateOptions {
  int trials_per_m{200};     ///< instances sampled per machine count
  int scan_limit{32};        ///< largest machine count scanned
  std::uint64_t seed{1};     ///< base RNG seed
  bool use_reallocation{true};
};

struct MmuPoint {
  double mu{0.0};
  int kstar{0};
  int reallocation_width{0};
  /// Smallest m such that no 2*mu violation occurred for any m' in
  /// [m, scan_limit]; scan_limit+1 when the largest scanned m still fails.
  int empirical_m{0};
  /// Worst makespan / (2*mu) ratio observed at empirical_m (<= 1).
  double worst_ratio_at_m{0.0};
};

/// Estimates m_mu for one mu.
[[nodiscard]] MmuPoint estimate_mmu(double mu, const InstanceFactory& factory,
                                    const MmuEstimateOptions& options = {});

/// Full curve over a mu grid (Figure 8's x axis).
[[nodiscard]] std::vector<MmuPoint> mmu_curve(const std::vector<double>& mus,
                                              const InstanceFactory& factory,
                                              const MmuEstimateOptions& options = {});

}  // namespace malsched
