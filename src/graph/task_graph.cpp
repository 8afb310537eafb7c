#include "graph/task_graph.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "model/lower_bounds.hpp"
#include "model/speedup_models.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace malsched {

TaskGraph::TaskGraph(Instance instance, std::vector<std::pair<int, int>> edges)
    : instance_(std::move(instance)),
      predecessors_(static_cast<std::size_t>(instance_.size())),
      successors_(static_cast<std::size_t>(instance_.size())) {
  const int n = instance_.size();
  for (const auto& [from, to] : edges) {
    if (from < 0 || from >= n || to < 0 || to >= n || from == to) {
      throw std::invalid_argument("TaskGraph: edge endpoint out of range");
    }
    successors_[static_cast<std::size_t>(from)].push_back(to);
    predecessors_[static_cast<std::size_t>(to)].push_back(from);
  }
  for (auto& list : successors_) std::sort(list.begin(), list.end());
  for (auto& list : predecessors_) std::sort(list.begin(), list.end());

  // Kahn's algorithm: stable topological order + cycle detection + levels.
  std::vector<int> in_degree(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    in_degree[static_cast<std::size_t>(v)] =
        static_cast<int>(predecessors_[static_cast<std::size_t>(v)].size());
  }
  levels_.assign(static_cast<std::size_t>(n), 0);
  std::priority_queue<int, std::vector<int>, std::greater<>> ready;
  for (int v = 0; v < n; ++v) {
    if (in_degree[static_cast<std::size_t>(v)] == 0) ready.push(v);
  }
  topo_.reserve(static_cast<std::size_t>(n));
  while (!ready.empty()) {
    const int v = ready.top();
    ready.pop();
    topo_.push_back(v);
    for (const int succ : successors_[static_cast<std::size_t>(v)]) {
      levels_[static_cast<std::size_t>(succ)] =
          std::max(levels_[static_cast<std::size_t>(succ)],
                   levels_[static_cast<std::size_t>(v)] + 1);
      if (--in_degree[static_cast<std::size_t>(succ)] == 0) ready.push(succ);
    }
  }
  if (static_cast<int>(topo_.size()) != n) {
    throw std::invalid_argument("TaskGraph: precedence graph contains a cycle");
  }
  for (const int level : levels_) level_count_ = std::max(level_count_, level + 1);
  if (n == 0) level_count_ = 0;
}

double TaskGraph::critical_path_lower_bound() const {
  // Longest path with node weight t_v(m), computed along the topo order.
  std::vector<double> longest(static_cast<std::size_t>(size()), 0.0);
  double best = 0.0;
  for (const int v : topo_) {
    double through = 0.0;
    for (const int pred : predecessors_[static_cast<std::size_t>(v)]) {
      through = std::max(through, longest[static_cast<std::size_t>(pred)]);
    }
    longest[static_cast<std::size_t>(v)] = through + task(v).time(machines());
    best = std::max(best, longest[static_cast<std::size_t>(v)]);
  }
  return best;
}

double TaskGraph::makespan_lower_bound() const {
  return std::max(area_lower_bound(instance_), critical_path_lower_bound());
}

TaskGraph random_out_tree(const TreeWorkloadOptions& options, std::uint64_t seed) {
  Rng rng(seed);
  Instance tasks(options.machines);
  std::vector<std::pair<int, int>> edges;
  tasks.reserve(options.tasks);
  for (int v = 0; v < options.tasks; ++v) {
    const double seq = rng.log_uniform(options.seq_time_lo, options.seq_time_hi);
    tasks.add_task(power_law_profile(seq, rng.uniform(0.6, 0.95), options.machines),
                   label("node", v));
    if (v > 0) {
      // Attach to a random earlier node with spare child slots; preferring
      // recent nodes keeps the tree deep enough to have a real critical path.
      const int hi = v - 1;
      const int lo = std::max(0, v - 1 - options.max_children * 2);
      const int parent = static_cast<int>(rng.uniform_int(lo, hi));
      edges.emplace_back(parent, v);
    }
  }
  return TaskGraph(std::move(tasks), std::move(edges));
}

TaskGraph random_layered_dag(const LayeredDagOptions& options, std::uint64_t seed) {
  Rng rng(seed);
  Instance tasks(options.machines);
  std::vector<std::pair<int, int>> edges;
  tasks.reserve(options.layers * options.width);
  for (int layer = 0; layer < options.layers; ++layer) {
    for (int slot = 0; slot < options.width; ++slot) {
      const int v = layer * options.width + slot;
      const double seq = rng.log_uniform(options.seq_time_lo, options.seq_time_hi);
      tasks.add_task(amdahl_profile(seq, rng.uniform(0.02, 0.3), options.machines),
                     label("L", layer, ".", slot));
      if (layer > 0) {
        const auto fan_in = static_cast<int>(rng.uniform_int(1, 3));
        for (int e = 0; e < fan_in; ++e) {
          const int pred =
              (layer - 1) * options.width + static_cast<int>(rng.uniform_int(0, options.width - 1));
          edges.emplace_back(pred, v);
        }
      }
      (void)v;
    }
  }
  // Deduplicate multi-edges.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return TaskGraph(std::move(tasks), std::move(edges));
}

}  // namespace malsched
