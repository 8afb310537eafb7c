#include "model/instance_handle.hpp"

#include <atomic>
#include <bit>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

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
  for (const auto& task : instance.tasks()) {
    hash.add_word(task.profile().size());
    hash.add_doubles(task.profile());
    hash.add_bytes(task.name());
  }
  return hash.finish();
}

/// Exact content equality (profiles compared bit for bit, names included):
/// the deep half of handle equality behind a fingerprint match.
bool same_instance_content(const Instance& a, const Instance& b) {
  if (a.machines() != b.machines() || a.size() != b.size()) return false;
  for (int i = 0; i < a.size(); ++i) {
    const auto& ta = a.task(i);
    const auto& tb = b.task(i);
    if (ta.name() != tb.name()) return false;
    const auto& pa = ta.profile();
    const auto& pb = tb.profile();
    if (pa.size() != pb.size()) return false;
    for (std::size_t p = 0; p < pa.size(); ++p) {
      if (std::bit_cast<std::uint64_t>(pa[p]) != std::bit_cast<std::uint64_t>(pb[p])) {
        return false;
      }
    }
  }
  return true;
}

/// Interns served by an existing live table entry; audit counter, same
/// relaxed-delta discipline as hash_count.
std::atomic<std::uint64_t> intern_hits{0};

/// The process-wide intern table. Buckets are keyed by fingerprint and hold
/// weak references: the table never keeps an instance alive, it only lets a
/// later equal-content intern() find a still-live allocation. Dead entries
/// are pruned as their bucket is revisited (and wholesale by
/// intern_table_size()).
struct InternEntry {
  std::weak_ptr<const Instance> instance;
  double lower_bound;  ///< makespan_lower_bound, cached so hits skip it
};

struct InternTable {
  Mutex mutex;
  std::unordered_map<std::uint64_t, std::vector<InternEntry>> buckets
      MALSCHED_GUARDED_BY(mutex);
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
  auto& bucket = table.buckets[fingerprint];
  for (auto it = bucket.begin(); it != bucket.end();) {
    if (auto live = it->instance.lock()) {
      if (same_instance_content(*live, content)) {
        intern_hits.fetch_add(1, std::memory_order_relaxed);
        return {std::move(live), it->lower_bound};
      }
      ++it;
    } else {
      it = bucket.erase(it);
    }
  }
  std::shared_ptr<const Instance> shared = materialize();
  const double lower_bound = makespan_lower_bound(*shared);
  bucket.push_back({shared, lower_bound});
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
  return same_instance_content(*a.instance_, *b.instance_);
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
  std::size_t live = 0;
  for (auto bucket_it = table.buckets.begin(); bucket_it != table.buckets.end();) {
    auto& bucket = bucket_it->second;
    for (auto it = bucket.begin(); it != bucket.end();) {
      if (it->instance.expired()) {
        it = bucket.erase(it);
      } else {
        ++live;
        ++it;
      }
    }
    bucket_it = bucket.empty() ? table.buckets.erase(bucket_it) : std::next(bucket_it);
  }
  return live;
}

}  // namespace malsched
