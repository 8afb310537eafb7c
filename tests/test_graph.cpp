// Tests for src/graph: DAG construction/validation, levels and critical
// paths, the layered and ready-list schedulers, and the graph workload
// generators (the paper's Section 5 future-work extension).

#include <gtest/gtest.h>

#include <tuple>

#include "graph/graph_scheduler.hpp"
#include "graph/task_graph.hpp"
#include "model/instance_io.hpp"
#include "model/speedup_models.hpp"
#include "sched/validate.hpp"
#include "support/math_utils.hpp"
#include "support/strings.hpp"

namespace malsched {
namespace {

TaskGraph diamond_graph() {
  // 0 -> {1, 2} -> 3 on 4 machines.
  Instance tasks(4);
  for (int i = 0; i < 4; ++i) {
    tasks.add_task(power_law_profile(2.0 + i, 0.8, 4), label("n", i));
  }
  return TaskGraph(std::move(tasks), {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
}

// ------------------------------------------------------------ construction

TEST(TaskGraph, BuildsDiamond) {
  const auto graph = diamond_graph();
  EXPECT_EQ(graph.size(), 4);
  EXPECT_EQ(graph.level_count(), 3);
  EXPECT_EQ(graph.levels(), (std::vector<int>{0, 1, 1, 2}));
  EXPECT_EQ(graph.predecessors(3), (std::vector<int>{1, 2}));
  EXPECT_EQ(graph.topological_order().front(), 0);
  EXPECT_EQ(graph.topological_order().back(), 3);
}

TEST(TaskGraph, RejectsCycle) {
  Instance tasks(2);
  for (int i = 0; i < 3; ++i) tasks.add_task(sequential_profile(1.0, 2));
  EXPECT_THROW(TaskGraph(std::move(tasks), {{0, 1}, {1, 2}, {2, 0}}),
               std::invalid_argument);
}

TEST(TaskGraph, RejectsBadEdges) {
  Instance tasks(2);
  tasks.add_task(sequential_profile(1.0, 2));
  EXPECT_THROW(TaskGraph(std::move(tasks), {{0, 5}}), std::invalid_argument);
  Instance tasks2(2);
  tasks2.add_task(sequential_profile(1.0, 2));
  EXPECT_THROW(TaskGraph(std::move(tasks2), {{0, 0}}), std::invalid_argument);
}

TEST(TaskGraph, EmptyGraph) {
  const TaskGraph graph(Instance(2), {});
  EXPECT_EQ(graph.size(), 0);
  EXPECT_EQ(graph.level_count(), 0);
  EXPECT_DOUBLE_EQ(graph.critical_path_lower_bound(), 0.0);
}

TEST(TaskGraph, CriticalPathOnChain) {
  Instance tasks(2);
  tasks.add_task(std::vector<double>{2.0, 1.2}, "a");
  tasks.add_task(std::vector<double>{3.0, 1.8}, "b");
  const TaskGraph graph(std::move(tasks), {{0, 1}});
  // Chain: t_0(2) + t_1(2) = 1.2 + 1.8.
  EXPECT_NEAR(graph.critical_path_lower_bound(), 3.0, 1e-12);
  // Area bound: (2 + 3)/2 = 2.5 < 3 -> combined is the chain.
  EXPECT_NEAR(graph.makespan_lower_bound(), 3.0, 1e-12);
}

TEST(TaskGraph, CriticalPathDominatedByHeavyBranch) {
  const auto graph = diamond_graph();
  // Longest path 0 -> 2 -> 3 with t(4) weights.
  const double expected = graph.task(0).time(4) + graph.task(2).time(4) + graph.task(3).time(4);
  EXPECT_NEAR(graph.critical_path_lower_bound(), expected, 1e-12);
}

// -------------------------------------------------------------- schedulers

class GraphSchedulerTest : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(GraphSchedulerTest, ValidAndPrecedenceRespectingOnRandomGraphs) {
  const auto [use_tree, seed] = GetParam();
  const TaskGraph graph =
      use_tree ? random_out_tree({}, static_cast<std::uint64_t>(seed))
               : random_layered_dag({}, static_cast<std::uint64_t>(seed));

  for (const bool layered : {true, false}) {
    const auto result =
        layered ? layered_graph_schedule(graph) : ready_list_graph_schedule(graph);
    const auto report = validate_schedule(result.schedule, graph.instance());
    EXPECT_TRUE(report.ok) << report.str();
    EXPECT_TRUE(respects_precedence(result.schedule, graph));
    EXPECT_TRUE(geq(result.makespan, graph.makespan_lower_bound()));
    EXPECT_GT(result.ratio, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GraphSchedulerTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(1, 2, 3, 4, 5)));

TEST(GraphScheduler, ChainIsScheduledBackToBack) {
  Instance tasks(4);
  tasks.add_task(linear_profile(4.0, 4), "a");
  tasks.add_task(linear_profile(4.0, 4), "b");
  const TaskGraph graph(std::move(tasks), {{0, 1}});
  const auto result = layered_graph_schedule(graph);
  // Each task runs on all 4 processors (linear speedup): 1.0 + 1.0.
  EXPECT_NEAR(result.makespan, 2.0, 0.05);
  EXPECT_TRUE(respects_precedence(result.schedule, graph));
}

TEST(GraphScheduler, RespectsPrecedenceDetectsViolations) {
  const auto graph = diamond_graph();
  Schedule bogus(4, 4);
  bogus.assign(0, 0.0, graph.task(0).time(1), 0, 1);
  bogus.assign(1, 0.0, graph.task(1).time(1), 1, 1);  // starts with its pred!
  bogus.assign(2, 10.0, graph.task(2).time(1), 2, 1);
  bogus.assign(3, 20.0, graph.task(3).time(1), 3, 1);
  EXPECT_FALSE(respects_precedence(bogus, graph));
}

TEST(GraphScheduler, WideGraphBenefitsFromLayeredOptimization) {
  // A root fanning out to many independent children: the layer containing
  // the children is a pure independent malleable instance, where the
  // sqrt(3) scheduler shines.
  Instance tasks(16);
  tasks.add_task(linear_profile(2.0, 16), "root");
  std::vector<std::pair<int, int>> edges;
  for (int c = 1; c <= 12; ++c) {
    tasks.add_task(power_law_profile(3.0, 0.85, 16), label("c", c));
    edges.emplace_back(0, c);
  }
  const TaskGraph graph(std::move(tasks), std::move(edges));
  const auto layered = layered_graph_schedule(graph);
  const auto ready = ready_list_graph_schedule(graph);
  EXPECT_TRUE(leq(layered.makespan, ready.makespan * 1.05));
}

// -------------------------------------------------------------- generators

TEST(GraphWorkloads, TreeIsConnectedAndSingleRoot) {
  const auto graph = random_out_tree({}, 11);
  int roots = 0;
  for (int v = 0; v < graph.size(); ++v) {
    if (graph.predecessors(v).empty()) ++roots;
    EXPECT_LE(graph.predecessors(v).size(), 1u) << "a tree node has one parent";
  }
  EXPECT_EQ(roots, 1);
}

TEST(GraphWorkloads, LayeredDagHasExpectedShape) {
  LayeredDagOptions options;
  options.layers = 4;
  options.width = 5;
  const auto graph = random_layered_dag(options, 13);
  EXPECT_EQ(graph.size(), 20);
  EXPECT_EQ(graph.level_count(), 4);
  for (int v = 0; v < graph.size(); ++v) {
    if (v >= options.width) {
      EXPECT_FALSE(graph.predecessors(v).empty());
    }
  }
}

TEST(GraphWorkloads, DeterministicPerSeed) {
  const auto a = random_out_tree({}, 21);
  const auto b = random_out_tree({}, 21);
  EXPECT_EQ(instance_to_string(a.instance()), instance_to_string(b.instance()));
  EXPECT_EQ(a.levels(), b.levels());
}

}  // namespace
}  // namespace malsched
