#include "api/solve_cache.hpp"

#include <algorithm>
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

}  // namespace

SolveCache::SolveCache(std::size_t capacity) : capacity_(capacity) {}

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

void SolveCache::erase_locked(EntryList::iterator it) {
  auto& candidates = index_[it->key.fingerprint];
  candidates.erase(std::find(candidates.begin(), candidates.end(), it));
  if (candidates.empty()) index_.erase(it->key.fingerprint);
  entries_.erase(it);
}

std::shared_ptr<const SolverResult> SolveCache::lookup(const Key& key, bool count_miss) {
  if (capacity_ == 0) return nullptr;
  // After the capacity guard: a disabled cache is a legitimate no-op, not a
  // failure path worth injecting into.
  MALSCHED_FAILPOINT("cache.lookup");
  const LockGuard lock(mutex_);
  const auto bucket = index_.find(key.fingerprint);
  if (bucket != index_.end()) {
    for (const auto& it : bucket->second) {
      if (same_key(it->key, key)) {
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
  if (capacity_ == 0) return;
  MALSCHED_FAILPOINT("cache.insert");
  // The expensive part (copying a full SolverResult, Schedule included)
  // stays outside the critical section.
  auto memoized = std::make_shared<const SolverResult>(result);
  const LockGuard lock(mutex_);

  // Idempotent re-insert (two workers may race the same miss): refresh the
  // resident entry and keep the first memoized copy -- both came from the
  // same deterministic solve.
  const auto bucket = index_.find(key.fingerprint);
  if (bucket != index_.end()) {
    for (const auto& it : bucket->second) {
      if (same_key(it->key, key)) {
        entries_.splice(entries_.begin(), entries_, it);
        return;
      }
    }
  }

  entries_.push_front(Entry{key, std::move(memoized)});
  index_[key.fingerprint].push_back(entries_.begin());
  while (entries_.size() > capacity_) {
    erase_locked(std::prev(entries_.end()));
    ++stats_.evictions;
  }
}

SolveCacheStats SolveCache::stats() const {
  const LockGuard lock(mutex_);
  SolveCacheStats out = stats_;
  out.entries = entries_.size();
  return out;
}

}  // namespace malsched
