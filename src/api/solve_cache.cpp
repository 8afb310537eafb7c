#include "api/solve_cache.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "support/failpoint.hpp"
#include "support/word_hash.hpp"

namespace malsched {

namespace {

/// WordHash (support/word_hash.hpp) over the key's CHEAP parts: the two
/// identity strings and the instance fingerprint (already computed at
/// intern). Profile bits are never touched here -- that is the whole point
/// of the interned handle.
std::uint64_t key_fingerprint(const std::string& solver, const std::string& options,
                              const InstanceHandle& instance) {
  WordHash hash;
  hash.add_bytes(solver);
  hash.add_bytes(options);
  hash.add_word(instance.fingerprint());
  return hash.finish();
}

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Approximate footprint of one memoized entry, for the byte budget. An
/// estimate, not an accounting: heap headers and map nodes are ignored, the
/// dominant payloads (the flat assignment array, the schedule's table of
/// scattered sets, stat keys, identity strings) are counted.
std::size_t approx_entry_bytes(const SolveCache::Key& key, const SolverResult& result) {
  std::size_t bytes = sizeof(SolveCache::Key) + sizeof(SolverResult);
  bytes += key.solver.size() + key.options.size();
  bytes += result.solver.size();
  const Schedule& schedule = result.schedule;
  bytes += schedule.assignments().size() * sizeof(Assignment);
  for (const auto& assignment : schedule.assignments()) {
    bytes += schedule.scattered(assignment).size() * sizeof(int);
  }
  for (const auto& [name, value] : result.stats) {
    static_cast<void>(value);
    bytes += sizeof(std::pair<std::string, double>) + name.size();
  }
  return bytes;
}

}  // namespace

SolveCache::SolveCache(SolveCacheConfig config) : config_(std::move(config)) {}

SolveCache::Key SolveCache::make_key(const std::string& solver, const SolverOptions& options,
                                     InstanceHandle instance) {
  if (!instance.valid()) throw std::invalid_argument("SolveCache: empty instance handle");
  Key key;
  key.solver = solver;
  key.options = options.str();
  key.fingerprint = key_fingerprint(key.solver, key.options, instance);
  key.instance = std::move(instance);
  return key;
}

bool SolveCache::same_key(const Key& a, const Key& b) {
  if (a.fingerprint != b.fingerprint || a.solver != b.solver || a.options != b.options) {
    return false;
  }
  // Handle equality: shared-intern fast path (pointer), deep content compare
  // only for separately interned twins behind a fingerprint match.
  return a.instance == b.instance;
}

double SolveCache::now() const { return config_.clock ? config_.clock() : steady_seconds(); }

bool SolveCache::expired(const Entry& entry, double at) const noexcept {
  return config_.ttl_seconds > 0.0 && at - entry.inserted_at > config_.ttl_seconds;
}

void SolveCache::erase_locked(EntryList::iterator it) {
  auto& candidates = index_[it->key.fingerprint];
  candidates.erase(std::find(candidates.begin(), candidates.end(), it));
  if (candidates.empty()) index_.erase(it->key.fingerprint);
  bytes_ -= it->bytes;
  entries_.erase(it);
}

std::shared_ptr<const SolverResult> SolveCache::lookup(const Key& key, bool count_miss) {
  if (config_.capacity == 0) return nullptr;
  // After the capacity guard: a disabled cache is a legitimate no-op, not a
  // failure path worth injecting into.
  MALSCHED_FAILPOINT("cache.lookup");
  const LockGuard lock(mutex_);
  const auto bucket = index_.find(key.fingerprint);
  if (bucket != index_.end()) {
    for (const auto& it : bucket->second) {
      if (same_key(it->key, key)) {
        if (expired(*it, now())) {
          erase_locked(it);
          ++stats_.evictions_ttl;
          break;  // at most one live entry per key; fall through to miss
        }
        entries_.splice(entries_.begin(), entries_, it);  // refresh LRU
        ++stats_.hits;
        return it->result;  // shared_ptr copy only; payload copies happen
                            // outside the lock, in the caller
      }
    }
  }
  if (count_miss) ++stats_.misses;
  return nullptr;
}

void SolveCache::insert(const Key& key, const SolverResult& result) {
  if (config_.capacity == 0) return;
  MALSCHED_FAILPOINT("cache.insert");
  // The expensive part (copying a full SolverResult, Schedule included)
  // stays outside the critical section.
  auto memoized = std::make_shared<const SolverResult>(result);
  const std::size_t entry_bytes = approx_entry_bytes(key, result);
  const LockGuard lock(mutex_);
  const double at = now();

  // Idempotent re-insert (two workers may race the same miss): refresh a
  // live entry and keep the first memoized copy -- both came from the same
  // deterministic solve. An expired one is replaced outright.
  auto bucket = index_.find(key.fingerprint);
  if (bucket != index_.end()) {
    for (const auto& it : bucket->second) {
      if (same_key(it->key, key)) {
        if (!expired(*it, at)) {
          entries_.splice(entries_.begin(), entries_, it);
          return;
        }
        erase_locked(it);
        ++stats_.evictions_ttl;
        break;
      }
    }
  }

  entries_.push_front(Entry{key, std::move(memoized), at, entry_bytes});
  index_[key.fingerprint].push_back(entries_.begin());
  bytes_ += entry_bytes;
  ++stats_.insertions;

  // Trim from the LRU tail until both budgets hold: age first (an expired
  // tail entry should be charged to TTL, not capacity), then the entry
  // budget, then the byte budget. The just-inserted entry itself is never
  // evicted for the byte budget alone (see SolveCacheConfig::max_bytes).
  while (entries_.size() > 1) {
    const auto victim = std::prev(entries_.end());
    if (expired(*victim, at)) {
      erase_locked(victim);
      ++stats_.evictions_ttl;
    } else if (entries_.size() > config_.capacity) {
      erase_locked(victim);
      ++stats_.evictions_capacity;
    } else if (config_.max_bytes > 0 && bytes_ > config_.max_bytes) {
      erase_locked(victim);
      ++stats_.evictions_bytes;
    } else {
      break;
    }
  }
}

void SolveCache::clear() {
  const LockGuard lock(mutex_);
  entries_.clear();
  index_.clear();
  bytes_ = 0;
}

SolveCacheStats SolveCache::stats() const {
  const LockGuard lock(mutex_);
  SolveCacheStats out = stats_;
  out.entries = entries_.size();
  out.bytes = bytes_;
  return out;
}

}  // namespace malsched
