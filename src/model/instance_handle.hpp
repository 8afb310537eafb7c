#pragma once

#include <cstdint>
#include <memory>

#include "model/instance.hpp"

/// Content-addressed identity for instances entering the serving stack.
///
/// Every layer above the model (registry, cache, service) needs three
/// things from an instance besides its tasks: a stable identity
/// ("is this the same problem I already solved?"), a content fingerprint to
/// key caches and dedup maps, and the static makespan lower bound the facade
/// folds into every result. Before API v2 each layer derived those on its
/// own schedule -- the cache re-hashed every profile bit on every submit,
/// and identity meant "same Instance object". InstanceHandle computes all
/// three EXACTLY ONCE, at intern() time, and hands out a cheap copyable
/// handle (one shared_ptr + two scalars):
///
///  * **Frozen content.** The handle owns the instance as
///    `shared_ptr<const Instance>`; nothing downstream can mutate it, so the
///    fingerprint and lower bound stay valid for the handle's lifetime.
///  * **Content fingerprint.** A 64-bit WordHash (support/word_hash.hpp:
///    four xxHash64-style lanes and a full avalanche) over a fixed word
///    order: m, n, then for each task its profile length, the BIT pattern of
///    each profile double (0.0 and -0.0 must not alias -- the serving stack
///    promises byte-identical results), its name length and its name bytes
///    packed little-endian into zero-padded words. The length words keep
///    differently split profiles and names apart. Defined on bit patterns
///    and packed bytes, the value is the same on every compiler, build type
///    and host, so another process can route by it; shards route by
///    `fingerprint % shards`, which the avalanche splits evenly. Two handles
///    interned from separately built but identical instances carry the same
///    fingerprint; operator== confirms with a deep compare behind it
///    (Instance's operator==, collision safety), short-circuited by pointer
///    equality for handles sharing one intern.
///  * **Static lower bound.** makespan_lower_bound(instance), computed once;
///    SolveRequest-path registry dispatch reuses it instead of re-deriving
///    it per solve (bit-identical -- same function, same frozen instance).
///
/// A default-constructed handle is EMPTY (valid() == false): it exists so
/// request/slot types stay default-constructible; every API that consumes a
/// request rejects empty handles up front. intern() never returns one.
///
/// **Process-wide intern table (v2.1).** intern() consults a global table
/// keyed by fingerprint: interning content that is already live anywhere in
/// the process returns a handle sharing THAT allocation (and its cached
/// lower bound -- no recompute), so equal-content handles are
/// pointer-identical across threads and across ShardedSchedulerService
/// shards, and operator== takes its pointer fast path. The table holds weak
/// references only: it never extends an instance's lifetime. A probe drops
/// the dead entries under its fingerprint, and a sweep of the whole table,
/// due once it holds twice the entries the last sweep left, drops the rest,
/// so the table stays within about twice its live entries. Each intern() still
/// hashes the incoming content exactly once (the probe needs the
/// fingerprint), so the content_hashes() audit contract is unchanged: +1 per
/// intern(), zero after.
///
/// Auditing: content_hashes() counts fingerprint computations process-wide.
/// The submit-path contract ("zero profile re-hashing after intern") is a
/// test assertion on this counter, not a comment. intern_table_hits()
/// counts interns served by an existing live entry.
namespace malsched {

class InstanceHandle {
 public:
  /// Empty handle (valid() == false); see the class comment.
  InstanceHandle() = default;

  /// Freezes `instance` and computes its fingerprint + static lower bound.
  [[nodiscard]] static InstanceHandle intern(Instance instance);

  /// As above for an already-shared instance (no copy; the handle pins it).
  /// Throws std::invalid_argument on null. The instance must not be mutated
  /// through other aliases afterwards -- it is `const` here for a reason.
  [[nodiscard]] static InstanceHandle intern(std::shared_ptr<const Instance> instance);

  [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(instance_); }
  explicit operator bool() const noexcept { return valid(); }

  /// The frozen instance; throws std::logic_error on an empty handle.
  [[nodiscard]] const Instance& instance() const;

  /// Content fingerprint, computed once at intern(); 0 for an empty handle.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// makespan_lower_bound(instance()), computed once at intern().
  [[nodiscard]] double static_lower_bound() const noexcept { return static_lower_bound_; }

  /// Content identity: equal fingerprints AND equal content (deep compare,
  /// short-circuited by shared-pointer equality). Two empty handles are
  /// equal; an empty handle equals nothing else.
  friend bool operator==(const InstanceHandle& a, const InstanceHandle& b);

  /// Process-wide count of content-fingerprint computations (one per
  /// intern()) -- the hash-count audit hook. Monotone; read-read deltas are
  /// meaningful, absolute values are not.
  [[nodiscard]] static std::uint64_t content_hashes() noexcept;

  /// Process-wide count of intern() calls served by an existing live intern
  /// table entry (same allocation handed back, lower bound reused). Monotone
  /// audit counter like content_hashes(): take deltas.
  [[nodiscard]] static std::uint64_t intern_table_hits() noexcept;

  /// Entries the process-wide intern table holds, live or not yet swept;
  /// prunes nothing. For tests and introspection.
  [[nodiscard]] static std::size_t intern_table_size();

 private:
  std::shared_ptr<const Instance> instance_;
  std::uint64_t fingerprint_{0};
  double static_lower_bound_{0.0};
};

}  // namespace malsched
