#include "speed.hpp"

#include <time.h>

#include <atomic>
#include <thread>

namespace perfbench {

namespace {

/// Ring entries per thread: 256 KiB of uint32_t, which stays in L2 once a
/// burst has warmed it.
constexpr std::uint32_t kRingEntries = 1u << 16;
/// Kernel steps between clock reads.
constexpr int kChunk = 4096;

/// A single random cycle through [0, kRingEntries) (Sattolo's shuffle), so
/// the chase visits every entry before it repeats.
std::vector<std::uint32_t> make_ring(std::uint64_t seed) {
  std::vector<std::uint32_t> ring(kRingEntries);
  for (std::uint32_t i = 0; i < kRingEntries; ++i) ring[i] = i;
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
  for (std::uint32_t i = kRingEntries - 1; i > 0; --i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const auto j = static_cast<std::uint32_t>(state % i);
    std::swap(ring[i], ring[j]);
  }
  return ring;
}

/// CPU seconds the calling thread has used.
double thread_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

/// Runs the kernel until the thread has used `seconds` of CPU time; returns
/// steps per CPU second. Counting CPU rather than wall time keeps a burst
/// whose threads briefly share a vCPU (as new threads do until the
/// scheduler spreads them) from reading half speed.
double run_kernel(const std::vector<std::uint32_t>& ring, double seconds) {
  std::uint32_t at = 0;
  std::uint64_t mix = 1;
  // One untimed lap brings the ring into cache.
  for (std::uint32_t k = 0; k < kRingEntries; ++k) at = ring[at];
  std::uint64_t steps = 0;
  const double start = thread_cpu_seconds();
  double now = start;
  do {
    for (int k = 0; k < kChunk; ++k) {
      at = ring[at];
      mix = mix * 6364136223846793005ull + at;
      if ((mix >> 61) == 0) mix ^= mix >> 29;
    }
    steps += kChunk;
    now = thread_cpu_seconds();
  } while (now - start < seconds);
  // Keep the chase observable so it is not optimised away.
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_add(mix + at, std::memory_order_relaxed);
  return static_cast<double>(steps) / (now - start);
}

}  // namespace

SpeedMeter::SpeedMeter(unsigned threads) : threads_(threads == 0 ? 1 : threads) {
  for (unsigned t = 0; t < threads_; ++t) rings_.push_back(make_ring(t + 1));
}

double SpeedMeter::burst() {
  std::vector<double> rates(threads_, 0.0);
  if (threads_ == 1) {
    rates[0] = run_kernel(rings_[0], kBurstSeconds);
  } else {
    std::atomic<unsigned> ready{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads_; ++t) {
      pool.emplace_back([&, t] {
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (ready.load(std::memory_order_acquire) < threads_) std::this_thread::yield();
        rates[t] = run_kernel(rings_[t], kBurstSeconds);
      });
    }
    for (auto& thread : pool) thread.join();
  }
  double sum = 0.0;
  for (const double rate : rates) sum += rate;
  bursts_.push_back(sum / static_cast<double>(threads_) / kReferenceRate);
  return bursts_.back();
}

}  // namespace perfbench
