#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/mutex.hpp"

#include "registry/solver_options.hpp"
#include "registry/solver_result.hpp"
#include "model/instance_handle.hpp"

/// Content-addressed memoization of registry solves.
///
/// Production queues see near-duplicate work: the same snapshot re-evaluated
/// under the same solver and options solves to the same (deterministic)
/// result, so the second dispatch is pure waste. SolveCache keys a completed
/// SolverResult by the CONTENT of the job: the interned instance's
/// fingerprint (computed ONCE, at InstanceHandle::intern -- building a key
/// never touches profile bits again) mixed with the solver name and the
/// canonical option string. Hits do not depend on callers sharing handles;
/// two separately interned but identical instances carry the same
/// fingerprint and hit the same entry.
///
/// Eviction is LRU past a fixed entry budget. Results never go stale --
/// each one is a deterministic function of its key -- so no entry expires.
///
/// Collisions are handled, not assumed away: entries whose 64-bit
/// fingerprints collide are disambiguated by a full key comparison (solver,
/// options, then instance identity -- handle pointer equality first, deep
/// content compare only for separately interned twins).
///
/// Thread safety: fully synchronized internally (one mutex; the critical
/// sections are lookups and list splices, never solves), so any number of
/// service workers can share one cache. A memoized result is returned BY
/// VALUE -- results are immutable once inserted. The locking discipline is
/// machine-checked: every shared field is MALSCHED_GUARDED_BY(mutex_) and
/// clang's thread-safety analysis runs over it in CI (see
/// support/thread_annotations.hpp).
namespace malsched {

struct SolveCacheStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};  ///< lookups that found nothing
  std::uint64_t evictions{0};  ///< pushed out by the entry budget
  std::size_t entries{0};      ///< current size
};

class SolveCache {
 public:
  /// The precomputed identity of one (solver, options, instance) job.
  /// Building a key mixes the handle's precomputed fingerprint with the two
  /// strings -- profile bits are never re-read; reuse it for lookup+insert.
  struct Key {
    std::uint64_t fingerprint{0};  ///< instance fingerprint + solver + options
    std::string solver;
    std::string options;  ///< SolverOptions::str() -- canonical and injective
    InstanceHandle instance;  ///< always valid()
  };

  /// At most `capacity` memoized results; 0 disables the cache entirely
  /// (lookups miss without counting, inserts drop).
  explicit SolveCache(std::size_t capacity);

  [[nodiscard]] static Key make_key(const std::string& solver, const SolverOptions& options,
                                    InstanceHandle instance);

  /// The memoized result for `key` (nullptr on miss), refreshing its LRU
  /// position; counts a hit, and a miss unless `count_miss` is false.
  /// Returned as a shared_ptr so callers copy (or just read) OUTSIDE the
  /// cache lock -- results are immutable once inserted, and full
  /// SolverResult copies carry whole Schedules.
  ///
  /// `count_miss = false` is for opportunistic probes backed by an
  /// authoritative later lookup (the service's submit-time fast path): the
  /// request is served here on a hit, but on a miss the dispatch-time
  /// lookup still runs and counts -- so every cache-consulting request
  /// counts exactly once, as either one hit or one miss.
  [[nodiscard]] std::shared_ptr<const SolverResult> lookup(const Key& key, bool count_miss = true)
      MALSCHED_EXCLUDES(mutex_);

  /// Memoizes `result` under `key` (idempotent: re-inserting a resident
  /// key refreshes LRU without duplicating), then evicts the LRU tail past
  /// the entry budget. The copy into the cache happens before the lock.
  void insert(const Key& key, const SolverResult& result) MALSCHED_EXCLUDES(mutex_);

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }

  /// One consistent snapshot, copied under the cache mutex.
  [[nodiscard]] SolveCacheStats stats() const MALSCHED_EXCLUDES(mutex_);

  /// Same job? Full comparison behind the fingerprint (collision safety).
  /// Public so other key-indexed structures (the service's in-flight dedup
  /// map) share ONE definition of "identical request".
  [[nodiscard]] static bool same_key(const Key& a, const Key& b);

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const SolverResult> result;  ///< immutable once inserted
  };
  using EntryList = std::list<Entry>;

  void erase_locked(EntryList::iterator it) MALSCHED_REQUIRES(mutex_);

  const std::size_t capacity_;
  mutable Mutex mutex_;
  EntryList entries_ MALSCHED_GUARDED_BY(mutex_);  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::vector<EntryList::iterator>> index_
      MALSCHED_GUARDED_BY(mutex_);
  SolveCacheStats stats_ MALSCHED_GUARDED_BY(mutex_);
};

}  // namespace malsched
