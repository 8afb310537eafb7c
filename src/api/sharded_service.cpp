#include "api/sharded_service.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace malsched {

namespace {

constexpr unsigned kShardShift = 48;  ///< inner tickets keep the low 48 bits
constexpr std::uint64_t kInnerMask = (std::uint64_t{1} << kShardShift) - 1;

}  // namespace

/// Field-wise rollup, kept in ServiceStats' definition order. Declared in
/// scheduler_service.hpp: the bench writers reuse it, and the linter's
/// stats-exhaustive rule cross-references every ServiceStats field against
/// this body -- a new counter that misses this list fails CI, not review.
void accumulate_stats(ServiceStats& total, const ServiceStats& shard) {
  total.submitted += shard.submitted;
  total.completed += shard.completed;
  total.failed += shard.failed;
  total.cancelled += shard.cancelled;
  total.delivered += shard.delivered;
  total.dedup_joins += shard.dedup_joins;
  total.slots_reclaimed += shard.slots_reclaimed;
  total.cache_hits += shard.cache_hits;
  total.cache_misses += shard.cache_misses;
  total.cache_evictions += shard.cache_evictions;
  total.cache_entries += shard.cache_entries;
  total.workspace_reuses += shard.workspace_reuses;
  total.rejected += shard.rejected;
  total.shed += shard.shed;
  total.deadline_misses += shard.deadline_misses;
  total.fallbacks += shard.fallbacks;
  total.cache_failures += shard.cache_failures;
  // Summed like everything else: the rollup is "total pending ever held
  // across the tier", each shard contributing its own high-water mark.
  total.queue_depth_high_water += shard.queue_depth_high_water;
  total.fast_path_hits += shard.fast_path_hits;
}

ShardedSchedulerService::ShardedSchedulerService(ServiceConfig config, unsigned shards) {
  if (shards == 0 || shards > kMaxShards) {
    throw std::invalid_argument("ShardedSchedulerService: shards = " + std::to_string(shards) +
                                " outside [1, " + std::to_string(kMaxShards) + "]");
  }
  // Validate once here for a readable error from THIS constructor; each
  // shard re-validates (cheaply) as it constructs.
  config.ensure_valid();
  shards_.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<SchedulerService>(config));
  }
}

ShardedSchedulerService::~ShardedSchedulerService() { shutdown(); }

unsigned ShardedSchedulerService::threads() const noexcept {
  unsigned total = 0;
  for (const auto& shard : shards_) total += shard->threads();
  return total;
}

unsigned ShardedSchedulerService::shard_of(const InstanceHandle& handle) const {
  if (!handle.valid()) {
    throw std::invalid_argument("ShardedSchedulerService: shard_of() on an empty InstanceHandle");
  }
  return static_cast<unsigned>(handle.fingerprint() % shards_.size());
}

void ShardedSchedulerService::on_result(ResultCallback callback) {
  // One shared copy of the user callback, wrapped per shard to stamp the
  // composite ticket and shard id. Each shard enforces the
  // before-first-submit rule for its own stream.
  auto shared = std::make_shared<ResultCallback>(std::move(callback));
  for (unsigned s = 0; s < shards_.size(); ++s) {
    shards_[s]->on_result([shared, s](const SolveOutcome& inner) {
      SolveOutcome outcome = inner;  // the rewrite needs a mutable copy
      outcome.ticket = encode_ticket(s, inner.ticket);
      outcome.shard = static_cast<int>(s);
      (*shared)(outcome);
    });
  }
}

JobTicket ShardedSchedulerService::submit(SolveRequest request) {
  const unsigned shard = shard_of(request.instance);  // rejects empty handles
  const JobTicket inner = shards_[shard]->submit(std::move(request));
  return JobTicket{encode_ticket(shard, inner.id)};
}

std::vector<JobTicket> ShardedSchedulerService::submit(std::vector<SolveRequest> requests) {
  // Validate every handle BEFORE the first enqueue so a bad request
  // mid-vector cannot strand earlier tickets with the throwing caller
  // (same up-front check as the one-shard tier; enqueueing itself is per
  // shard, as documented).
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!requests[i].instance.valid()) {
      throw std::invalid_argument("ShardedSchedulerService: request " + std::to_string(i) +
                                  " carries an empty InstanceHandle");
    }
  }
  std::vector<JobTicket> tickets;
  tickets.reserve(requests.size());
  for (auto& request : requests) {
    tickets.push_back(submit(std::move(request)));
  }
  return tickets;
}

std::optional<SolveOutcome> ShardedSchedulerService::poll(JobTicket ticket) {
  unsigned shard = 0;
  std::uint64_t inner = 0;
  decode_ticket(ticket, shard, inner);
  std::optional<SolveOutcome> outcome = shards_[shard]->poll(JobTicket{inner});
  if (!outcome) return std::nullopt;
  return rewrite(std::move(*outcome), shard);
}

JobState ShardedSchedulerService::state(JobTicket ticket) const {
  unsigned shard = 0;
  std::uint64_t inner = 0;
  decode_ticket(ticket, shard, inner);
  return shards_[shard]->state(JobTicket{inner});
}

SolveOutcome ShardedSchedulerService::wait(JobTicket ticket) {
  unsigned shard = 0;
  std::uint64_t inner = 0;
  decode_ticket(ticket, shard, inner);
  return rewrite(shards_[shard]->wait(JobTicket{inner}), shard);
}

bool ShardedSchedulerService::cancel(JobTicket ticket) {
  unsigned shard = 0;
  std::uint64_t inner = 0;
  decode_ticket(ticket, shard, inner);
  return shards_[shard]->cancel(JobTicket{inner});
}

void ShardedSchedulerService::drain() {
  for (const auto& shard : shards_) shard->drain();
}

void ShardedSchedulerService::shutdown() {
  for (const auto& shard : shards_) shard->shutdown();
}

ServiceStats ShardedSchedulerService::stats() const {
  ServiceStats total;
  for (const auto& shard : shards_) accumulate_stats(total, shard->stats());
  return total;
}

ShardedServiceStats ShardedSchedulerService::shard_stats() const {
  ShardedServiceStats stats;
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    stats.shards.push_back(shard->stats());
    accumulate_stats(stats.total, stats.shards.back());
  }
  return stats;
}

std::uint64_t ShardedSchedulerService::encode_ticket(unsigned shard, std::uint64_t inner) {
  // Inner tickets are dense per-shard counters; 2^48 of them per shard is
  // out of reach, so the encoding never truncates in practice. The shard
  // bound is enforced at construction (kMaxShards).
  return (static_cast<std::uint64_t>(shard) << kShardShift) | (inner & kInnerMask);
}

void ShardedSchedulerService::decode_ticket(JobTicket ticket, unsigned& shard,
                                            std::uint64_t& inner) const {
  shard = static_cast<unsigned>(ticket.id >> kShardShift);
  inner = ticket.id & kInnerMask;
  if (shard >= shards_.size()) {
    throw std::out_of_range("ShardedSchedulerService: unknown ticket " +
                            std::to_string(ticket.id) + " (shard " + std::to_string(shard) +
                            " of " + std::to_string(shards_.size()) + ")");
  }
}

SolveOutcome ShardedSchedulerService::rewrite(SolveOutcome outcome, unsigned shard) const {
  outcome.ticket = encode_ticket(shard, outcome.ticket);
  outcome.shard = static_cast<int>(shard);
  return outcome;
}

}  // namespace malsched
