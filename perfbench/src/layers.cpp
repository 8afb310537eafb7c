#include <algorithm>
#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {

namespace {

struct LayerRow {
  const char* name;
  const char* unit;
};

/// Every per-layer metric in print order. Solver-layer times are self
/// times per replayed solve; counts per solve are means over the pool.
constexpr LayerRow kLayerRows[] = {
    {"model.intern_us_p50", "us"},
    {"model.intern_table_hit_ratio", "ratio"},
    {"model.content_hashes_per_req", "count/req"},
    {"core.dual_steps", "count/solve"},
    {"core.index_build_ms", "ms/solve"},
    {"core.canonical_ms", "ms/solve"},
    {"core.certify_ms", "ms/solve"},
    {"core.area_ms", "ms/solve"},
    {"core.two_shelf_ms", "ms/solve"},
    {"core.canonical_list_ms", "ms/solve"},
    {"core.malleable_list_ms", "ms/solve"},
    {"core.step_self_ms", "ms/solve"},
    {"core.branch.rejected", "count/solve"},
    {"core.branch.single-shelf", "count/solve"},
    {"core.branch.two-shelf-knapsack", "count/solve"},
    {"core.branch.two-shelf-trivial", "count/solve"},
    {"core.branch.canonical-list", "count/solve"},
    {"core.branch.malleable-list", "count/solve"},
    {"core.branch.gap", "count/solve"},
    {"core.gaps", "count"},
    {"sched.compact_ms", "ms/solve"},
    {"sched.validate_ms", "ms/solve"},
    {"registry.overhead_ms", "ms/solve"},
    {"exec.worker_busy_ratio", "ratio"},
    {"exec.queue_depth_high_water", "count"},
    {"api.submit_us_p50", "us"},
    {"api.submit_us_p99", "us"},
    {"api.wait_ms_p50", "ms"},
    {"api.wait_ms_p99", "ms"},
    {"api.solve_ms_p50", "ms"},
    {"api.solve_ms_p99", "ms"},
    {"api.workspace_reuses", "count"},
    {"api.hit_us_p50", "us"},
    {"api.miss_us_p50", "us"},
    {"api.cache_hit_ratio", "ratio"},
    {"api.cache_evictions", "count"},
    {"api.shard_skew", "ratio"},
    {"bench.gen_lag_ms_p99", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.replay_divergences", "count"},
};

}  // namespace

double shard_skew(const malsched::ShardedServiceStats& stats) {
  double total = 0.0;
  double most = 0.0;
  for (const auto& shard : stats.shards) {
    total += static_cast<double>(shard.submitted);
    most = std::max(most, static_cast<double>(shard.submitted));
  }
  return total > 0.0 ? most * static_cast<double>(stats.shards.size()) / total : 0.0;
}

void LayerMetrics::set(const std::string& name, double value, std::size_t samples) {
  for (const auto& row : kLayerRows) {
    if (name == row.name) {
      values_[name] = {value, samples};
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric '" + name + "'");
}

void LayerMetrics::emit(Report& report) const {
  for (const auto& row : kLayerRows) {
    const auto it = values_.find(row.name);
    if (it == values_.end()) {
      report.add(row.name, 0.0, row.unit, 0);
    } else {
      report.add(row.name, it->second.first, row.unit, it->second.second);
    }
  }
}

void set_latency_pair(LayerMetrics& layers, const std::string& prefix,
                      const std::vector<double>& seconds, const std::string& unit) {
  const double scale = unit == "us" ? 1e6 : 1e3;
  layers.set(prefix + "_p50", order_statistic(seconds, 0.50) * scale, seconds.size());
  layers.set(prefix + "_p99", order_statistic(seconds, 0.99) * scale, seconds.size());
}

void finish_trace(const SpanLog& log, const RunContext& context) {
  const double error = max_additivity_error(log.spans());
  Report::note(format("trace: %zu spans; self times add up to each root's duration within "
                      "%.3g s",
                      log.spans().size(), error));
  if (context.trace_dir.empty()) return;
  const std::string path = context.trace_dir + "/" + context.workload + ".csv";
  if (log.write_csv(path)) {
    Report::note("trace: spans written to " + path);
  } else {
    Report::note("trace: could not write " + path);
  }
}

}  // namespace perfbench
