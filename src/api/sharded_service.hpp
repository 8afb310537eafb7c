#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "registry/request.hpp"
#include "api/scheduler_service.hpp"
#include "api/service_config.hpp"

/// ShardedSchedulerService: N independent SchedulerService shards behind the
/// one-service API -- the scale-out tier.
///
/// A single SchedulerService serializes every submit, completion, delivery,
/// and cache probe behind one state mutex and one cache LRU lock. Past a
/// handful of client threads those two locks -- not the workers -- bound
/// served QPS (ShardedService.ContentionDigestIsPinnedAtEveryShardCount
/// drives 8 clients through 1-8 shards). This tier
/// removes the global serialization point by construction instead of by
/// lock-splitting: each shard owns a complete serving stack (its own
/// SolveCache, in-flight dedup table, WorkerPool, and slot/delivery state),
/// and shards share NOTHING. There is deliberately no mutex in this class at
/// all; every member is immutable after construction, so all locking lives
/// inside the shards, where PR 6's annotated Mutex/GUARDED_BY vocabulary
/// (and the thread-safety CI job) already covers it.
///
///  * **Content-addressed routing.** A request lands on shard
///    `fingerprint % shards` (shard_of()). Equal-content requests therefore
///    always meet on the same shard, which is what keeps the per-shard
///    caches and dedup tables exactly as effective as the global ones were:
///    a duplicate can never miss its twin by landing elsewhere. Cross-shard
///    handle identity is the process-wide intern table
///    (model/instance_handle.hpp): equal-content handles share one
///    allocation no matter which shard -- or thread -- interned them.
///  * **Composite tickets.** A ticket encodes (shard, per-shard ticket) in
///    one uint64 (shard in the high 16 bits), so poll/wait/state/cancel
///    route with pure arithmetic -- no shared ticket table to lock. Sharded
///    tickets are opaque: unlike the single-service tier they are neither
///    dense nor globally ordered (per-shard ticket order still holds).
///  * **Determinism.** Every outcome is byte-identical to the same request
///    on an unsharded service (and to a serial SolverRegistry::solve),
///    independent of shard and worker counts -- solvers are deterministic
///    functions of (instance, options), and caches/dedup only ever serve
///    equal-content results. Provenance (`shard`, `worker`, wall times, ticket ids) is
///    run-dependent, as before.
///  * **Streaming.** on_result() installs the callback on every shard;
///    delivery is in ticket order WITHIN each shard but concurrent ACROSS
///    shards (the callback must be thread-safe). A cross-shard total order
///    would require exactly the global serialization point this tier
///    exists to remove; callers that need one should run one shard or sort
///    by their own sequence numbers.
///
/// Lifecycle mirrors SchedulerService: drain() finishes everything
/// submitted on every shard, shutdown() (also the destructor) stops intake
/// and joins every pool; both fan out shard by shard. Outcomes stay
/// poll()-able after shutdown until destruction.
namespace malsched {

/// stats() rolled up over every shard, plus the per-shard breakdown.
/// Each shard's entry is one consistent snapshot (taken under that shard's
/// mutex); the rollup sums snapshots taken one after another, so counters
/// may be skewed by work completing between shards -- same caveat as the
/// service-vs-cache halves of ServiceStats.
struct ShardedServiceStats {
  ServiceStats total;               ///< field-wise sum over shards
  std::vector<ServiceStats> shards; ///< index == shard id
};

class ShardedSchedulerService {
 public:
  using ResultCallback = SchedulerService::ResultCallback;

  /// Ticket-encoding limit (shard id must fit 16 bits); the practical limit
  /// is cores, far below this.
  static constexpr unsigned kMaxShards = 4096;

  /// `config` describes EACH shard (per-shard workers, per-shard cache
  /// budget): the same aggregate SchedulerService takes, so the two tiers
  /// configure identically. Throws std::invalid_argument when the config is
  /// invalid (see ServiceConfig::validate()) or `shards` is 0 or exceeds
  /// kMaxShards.
  explicit ShardedSchedulerService(ServiceConfig config = {}, unsigned shards = 1);
  ~ShardedSchedulerService();  // shutdown()

  ShardedSchedulerService(const ShardedSchedulerService&) = delete;
  ShardedSchedulerService& operator=(const ShardedSchedulerService&) = delete;

  [[nodiscard]] unsigned shards() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }

  /// Total worker threads across all shards.
  [[nodiscard]] unsigned threads() const noexcept;

  /// The shard a request over `handle` routes to: fingerprint % shards.
  /// Throws std::invalid_argument on an empty handle.
  [[nodiscard]] unsigned shard_of(const InstanceHandle& handle) const;

  /// Installs the streaming callback on every shard (see the class comment:
  /// per-shard ticket order, concurrent across shards, must be
  /// thread-safe). Must precede the first submit(), like the one-shard tier.
  void on_result(ResultCallback callback);

  /// Routes by content and enqueues; returns immediately. Throws
  /// std::runtime_error after shutdown() and std::invalid_argument on an
  /// empty handle.
  JobTicket submit(SolveRequest request);

  /// Convenience loop over submit(): tickets are returned in request order.
  /// Handles are validated up front, but enqueueing is per shard -- there is
  /// no cross-shard atomicity (unlike the single-service vector submit).
  std::vector<JobTicket> submit(std::vector<SolveRequest> requests);

  /// Non-blocking terminal-outcome probe; same contract as the one-shard
  /// tier (std::out_of_range on a ticket this service never issued,
  /// std::logic_error on a gc_slots-reclaimed one). The outcome carries the
  /// composite ticket and its `shard`.
  [[nodiscard]] std::optional<SolveOutcome> poll(JobTicket ticket);

  [[nodiscard]] JobState state(JobTicket ticket) const;

  /// Blocks until terminal; returns the outcome (composite ticket, `shard`
  /// stamped).
  [[nodiscard]] SolveOutcome wait(JobTicket ticket);

  /// Cancels a still-queued job on its shard; same semantics as the
  /// one-shard tier.
  bool cancel(JobTicket ticket);

  /// Blocks until every job submitted BEFORE the call is delivered, on
  /// every shard.
  void drain();

  /// Graceful stop of every shard (reject new work, cancel queued jobs,
  /// finish running ones, join workers). Idempotent.
  void shutdown();

  /// The aggregated rollup alone (field-wise sum over shards).
  [[nodiscard]] ServiceStats stats() const;

  /// Rollup plus the per-shard breakdown.
  [[nodiscard]] ShardedServiceStats shard_stats() const;

 private:
  [[nodiscard]] static std::uint64_t encode_ticket(unsigned shard, std::uint64_t inner);
  /// Decodes and bounds-checks; throws std::out_of_range on a shard id this
  /// service never issued.
  void decode_ticket(JobTicket ticket, unsigned& shard, std::uint64_t& inner) const;
  [[nodiscard]] SolveOutcome rewrite(SolveOutcome outcome, unsigned shard) const;

  /// Immutable after construction (the no-mutex invariant -- see the class
  /// comment); each element is internally synchronized.
  std::vector<std::unique_ptr<SchedulerService>> shards_;
};

}  // namespace malsched
