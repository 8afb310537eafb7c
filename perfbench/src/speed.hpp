#pragma once

#include <cstdint>
#include <vector>

/// Host speed meter. A shared KVM guest's CPU speed moves with its
/// neighbours' load -- by tens of percent within a second and by up to 2x
/// between runs minutes apart -- while steal time stays near zero and CPU
/// time equals wall time, so a wall-clock rate follows the host as much as
/// the program. The meter times a fixed kernel of the benchmark's own (a
/// dependent pointer chase around a 256 KiB random ring, warmed into cache
/// first, mixed with integer multiplies and a data-dependent branch) in short
/// bursts between pieces of timed work, on as many threads as that work
/// keeps busy. A burst's speed is its kernel rate over kReferenceRate, so 1
/// means "as fast as the reference host"; a rate divided by the speed
/// measured around it, or a duration multiplied by it, reads as it would on
/// that host. The kernel shares no code with the library, so a change to the
/// program moves the scaled figures as much as the measured ones.
namespace perfbench {

class SpeedMeter {
 public:
  /// Kernel steps per second of one thread on the reference host: about
  /// what one vCPU of a 4-vCPU KVM guest (Intel Xeon at 2.1 GHz, gcc 12,
  /// Release) reaches.
  static constexpr double kReferenceRate = 1.5e8;
  /// CPU time each thread spends in one burst.
  static constexpr double kBurstSeconds = 0.04;

  /// A meter whose bursts run on `threads` threads at once, each on a ring
  /// of its own.
  explicit SpeedMeter(unsigned threads);

  /// Runs one burst and returns its speed: the mean per-thread kernel rate,
  /// in steps per CPU second of that thread, over kReferenceRate. Every
  /// burst is kept.
  double burst();

  /// Speed of every burst so far, in order.
  [[nodiscard]] const std::vector<double>& bursts() const noexcept { return bursts_; }

 private:
  unsigned threads_;
  std::vector<std::vector<std::uint32_t>> rings_;
  std::vector<double> bursts_;
};

/// Runs `work` between two bursts of `meter` and returns the mean speed of
/// the two, the host speed the work most likely ran at.
template <class Work>
double speed_around(SpeedMeter& meter, Work&& work) {
  const double before = meter.burst();
  work();
  return 0.5 * (before + meter.burst());
}

}  // namespace perfbench
