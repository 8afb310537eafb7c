#include "api/stats_json.hpp"

#include <cstdint>

namespace malsched {

void write_service_stats(JsonWriter& json, const ServiceStats& stats) {
  json.begin_object();
  json.key("submitted");
  json.value(static_cast<unsigned long long>(stats.submitted));
  json.key("completed");
  json.value(static_cast<unsigned long long>(stats.completed));
  json.key("failed");
  json.value(static_cast<unsigned long long>(stats.failed));
  json.key("cancelled");
  json.value(static_cast<unsigned long long>(stats.cancelled));
  json.key("delivered");
  json.value(static_cast<unsigned long long>(stats.delivered));
  json.key("dedup_joins");
  json.value(static_cast<unsigned long long>(stats.dedup_joins));
  json.key("slots_reclaimed");
  json.value(static_cast<unsigned long long>(stats.slots_reclaimed));
  json.key("cache_hits");
  json.value(static_cast<unsigned long long>(stats.cache_hits));
  json.key("cache_misses");
  json.value(static_cast<unsigned long long>(stats.cache_misses));
  json.key("cache_evictions");
  json.value(static_cast<unsigned long long>(stats.cache_evictions));
  json.key("cache_entries");
  json.value(static_cast<unsigned long long>(stats.cache_entries));
  json.key("workspace_reuses");
  json.value(static_cast<unsigned long long>(stats.workspace_reuses));
  json.key("rejected");
  json.value(static_cast<unsigned long long>(stats.rejected));
  json.key("shed");
  json.value(static_cast<unsigned long long>(stats.shed));
  json.key("deadline_misses");
  json.value(static_cast<unsigned long long>(stats.deadline_misses));
  json.key("fallbacks");
  json.value(static_cast<unsigned long long>(stats.fallbacks));
  json.key("cache_failures");
  json.value(static_cast<unsigned long long>(stats.cache_failures));
  json.key("queue_depth_high_water");
  json.value(static_cast<unsigned long long>(stats.queue_depth_high_water));
  json.key("fast_path_hits");
  json.value(static_cast<unsigned long long>(stats.fast_path_hits));
  json.end_object();
}

}  // namespace malsched
