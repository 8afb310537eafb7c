#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/instance.hpp"

/// Malleable tasks under precedence constraints -- the paper's announced
/// future work (Section 5: "the natural continuation of this work is to
/// study the scheduling of precedence graphs structures", with tree
/// structures from the ocean application as the first target).
namespace malsched {

/// A directed acyclic graph of malleable tasks on m identical processors.
/// Node indices are task indices; edges run predecessor -> successor.
class TaskGraph {
 public:
  /// Builds and validates: edges in range, graph acyclic (the instance
  /// validated its profiles). Throws std::invalid_argument otherwise.
  TaskGraph(Instance instance, std::vector<std::pair<int, int>> edges);

  [[nodiscard]] int machines() const noexcept { return instance_.machines(); }
  [[nodiscard]] int size() const noexcept { return instance_.size(); }
  [[nodiscard]] MalleableTask task(int index) const { return instance_.task(index); }

  /// The node set viewed as an independent-task instance (for bounds).
  [[nodiscard]] const Instance& instance() const noexcept { return instance_; }

  [[nodiscard]] const std::vector<int>& predecessors(int task) const {
    return predecessors_.at(static_cast<std::size_t>(task));
  }

  /// A topological order (stable: ties by index).
  [[nodiscard]] const std::vector<int>& topological_order() const noexcept { return topo_; }

  /// Precedence depth: level(v) = 1 + max level over predecessors, roots 0.
  [[nodiscard]] const std::vector<int>& levels() const noexcept { return levels_; }
  [[nodiscard]] int level_count() const noexcept { return level_count_; }

  /// Longest path through the graph with node weights t_v(m) -- a makespan
  /// lower bound even with all processors devoted to the chain.
  [[nodiscard]] double critical_path_lower_bound() const;

  /// max(area bound, critical path bound).
  [[nodiscard]] double makespan_lower_bound() const;

 private:
  Instance instance_;
  std::vector<std::vector<int>> predecessors_;
  std::vector<std::vector<int>> successors_;
  std::vector<int> topo_;
  std::vector<int> levels_;
  int level_count_{0};
};

/// Random out-tree (root spawns children recursively) of malleable tasks --
/// the tree shape the paper cites from the ocean application.
struct TreeWorkloadOptions {
  int machines{32};
  int tasks{40};
  int max_children{3};
  double seq_time_lo{0.5};
  double seq_time_hi{6.0};
};
[[nodiscard]] TaskGraph random_out_tree(const TreeWorkloadOptions& options, std::uint64_t seed);

/// Random layered DAG (series-parallel-ish): `layers` layers, edges only
/// between consecutive layers, each node picking 1..3 predecessors.
struct LayeredDagOptions {
  int machines{32};
  int layers{5};
  int width{8};
  double seq_time_lo{0.5};
  double seq_time_hi{6.0};
};
[[nodiscard]] TaskGraph random_layered_dag(const LayeredDagOptions& options, std::uint64_t seed);

}  // namespace malsched
