#include "model/instance_handle.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "model/lower_bounds.hpp"
#include "support/mutex.hpp"
#include "support/word_hash.hpp"

namespace malsched {

namespace {

/// One intern() == one tick; the submit-path "zero re-hash" contract is
/// asserted against this counter in the tests. Atomic rather than
/// mutex-guarded (nothing for thread-safety annotations to see): it is a
/// monotone audit counter with no invariant linking it to other state, so
/// relaxed increments are exactly as strong as the read-read deltas the
/// tests take.
std::atomic<std::uint64_t> hash_count{0};

/// Canonical content fingerprint (WordHash, support/word_hash.hpp). Word
/// order is fixed: m, n, then per task the profile length, every profile
/// double's BIT pattern (the serving stack promises byte-identical results,
/// so 0.0 and -0.0 must not alias), and the name as length + packed bytes.
/// The length words keep {4,3},{2} apart from {4},{3,2} and "ab"+"c" apart
/// from "a"+"bc".
std::uint64_t content_fingerprint(const Instance& instance) {
  hash_count.fetch_add(1, std::memory_order_relaxed);
  WordHash hash;
  hash.add_word(static_cast<std::uint64_t>(instance.machines()));
  hash.add_word(static_cast<std::uint64_t>(instance.size()));
  for (int i = 0; i < instance.size(); ++i) {
    const MalleableTask task = instance.task(i);
    hash.add_word(task.profile().size());
    hash.add_doubles(task.profile());
    hash.add_bytes(task.name());
  }
  return hash.finish();
}

/// Interns served by an existing live table entry; audit counter, same
/// relaxed-delta discipline as hash_count.
std::atomic<std::uint64_t> intern_hits{0};

/// The process-wide intern table: entries keyed by fingerprint, holding weak
/// references. The table never keeps an instance alive, it only lets a later
/// equal-content intern() find a still-live allocation. A probe drops the
/// dead entries under its own fingerprint; the other dead entries go in a
/// sweep of the whole table, once it holds twice the entries the last sweep
/// left (and at least kSweepFloor), so the table stays within twice its
/// live entries plus the floor, at amortised O(1) per intern.
struct InternEntry {
  std::weak_ptr<const Instance> instance;
  double lower_bound;  ///< makespan_lower_bound, cached so hits skip it
};

constexpr std::size_t kSweepFloor = 64;

struct InternTable {
  Mutex mutex;
  std::unordered_multimap<std::uint64_t, InternEntry> entries MALSCHED_GUARDED_BY(mutex);
  std::size_t sweep_at MALSCHED_GUARDED_BY(mutex){kSweepFloor};
};

InternTable& intern_table() {
  static InternTable table;
  return table;
}

struct InternOutcome {
  std::shared_ptr<const Instance> instance;
  double lower_bound;
};

/// Probe-or-insert, atomically (probe and insert under one lock, so two
/// concurrent equal-content interns always converge on ONE allocation).
/// `materialize` is called only on a miss and produces the shared instance
/// to insert -- equal to `content` by construction at both call sites.
template <typename Materialize>
InternOutcome intern_or_insert(std::uint64_t fingerprint, const Instance& content,
                               Materialize&& materialize) {
  auto& table = intern_table();
  LockGuard lock(table.mutex);
  auto [it, end] = table.entries.equal_range(fingerprint);
  while (it != end) {
    if (auto live = it->second.instance.lock()) {
      if (*live == content) {
        intern_hits.fetch_add(1, std::memory_order_relaxed);
        return {std::move(live), it->second.lower_bound};
      }
      ++it;
    } else {
      it = table.entries.erase(it);
    }
  }
  std::shared_ptr<const Instance> shared = materialize();
  const double lower_bound = makespan_lower_bound(*shared);
  table.entries.emplace(fingerprint, InternEntry{shared, lower_bound});
  if (table.entries.size() >= table.sweep_at) {
    std::erase_if(table.entries, [](const auto& entry) { return entry.second.instance.expired(); });
    table.sweep_at = std::max(kSweepFloor, 2 * table.entries.size());
  }
  return {std::move(shared), lower_bound};
}

}  // namespace

InstanceHandle InstanceHandle::intern(Instance instance) {
  const std::uint64_t fingerprint = content_fingerprint(instance);
  // The instance is moved into the allocation only on a table miss; a hit
  // drops the caller's copy and shares the live allocation.
  InternOutcome interned = intern_or_insert(fingerprint, instance, [&instance] {
    return std::make_shared<const Instance>(std::move(instance));
  });
  InstanceHandle handle;
  handle.fingerprint_ = fingerprint;
  handle.static_lower_bound_ = interned.lower_bound;
  handle.instance_ = std::move(interned.instance);
  return handle;
}

InstanceHandle InstanceHandle::intern(std::shared_ptr<const Instance> instance) {
  if (!instance) throw std::invalid_argument("InstanceHandle: null instance");
  const std::uint64_t fingerprint = content_fingerprint(*instance);
  InternOutcome interned =
      intern_or_insert(fingerprint, *instance, [&instance] { return std::move(instance); });
  InstanceHandle handle;
  handle.fingerprint_ = fingerprint;
  handle.static_lower_bound_ = interned.lower_bound;
  handle.instance_ = std::move(interned.instance);
  return handle;
}

const Instance& InstanceHandle::instance() const {
  if (!instance_) throw std::logic_error("InstanceHandle: empty handle");
  return *instance_;
}

bool operator==(const InstanceHandle& a, const InstanceHandle& b) {
  if (a.instance_.get() == b.instance_.get()) return true;  // covers both empty
  if (!a.instance_ || !b.instance_) return false;
  if (a.fingerprint_ != b.fingerprint_) return false;
  return *a.instance_ == *b.instance_;
}

std::uint64_t InstanceHandle::content_hashes() noexcept {
  return hash_count.load(std::memory_order_relaxed);
}

std::uint64_t InstanceHandle::intern_table_hits() noexcept {
  return intern_hits.load(std::memory_order_relaxed);
}

std::size_t InstanceHandle::intern_table_size() {
  auto& table = intern_table();
  LockGuard lock(table.mutex);
  return table.entries.size();
}

}  // namespace malsched
