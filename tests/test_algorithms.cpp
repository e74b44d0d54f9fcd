/// \file test_algorithms.cpp
/// \brief Unit tests for graph algorithms: topological order, levels,
///        depth, longest paths, parallelism, reachability, path counting;
///        and a property test of topological_order against a min-heap Kahn
///        sort.
#include <gtest/gtest.h>

#include <functional>
#include <queue>

#include "check/gen.hpp"
#include "check/prop.hpp"
#include "taskgraph/algorithms.hpp"
#include "taskgraph/task_graph.hpp"

namespace feast {
namespace {

/// a(10) -> b(20) -> d(5)
///   \-> c(30) ----/        (all arcs carry 4 data items)
struct DiamondFixture {
  TaskGraph g;
  NodeId a, b, c, d;

  DiamondFixture() {
    a = g.add_subtask("a", 10.0);
    b = g.add_subtask("b", 20.0);
    c = g.add_subtask("c", 30.0);
    d = g.add_subtask("d", 5.0);
    g.add_precedence(a, b, 4.0);
    g.add_precedence(a, c, 4.0);
    g.add_precedence(b, d, 4.0);
    g.add_precedence(c, d, 4.0);
  }
};

TEST(Algorithms, TopologicalOrderCoversAllNodesOnce) {
  DiamondFixture f;
  const auto order = topological_order(f.g);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->size(), f.g.node_count());

  std::vector<std::size_t> pos(f.g.node_count());
  for (std::size_t i = 0; i < order->size(); ++i) pos[(*order)[i].index()] = i;
  for (const NodeId id : f.g.all_nodes()) {
    for (const NodeId succ : f.g.succs(id)) {
      EXPECT_LT(pos[id.index()], pos[succ.index()]);
    }
  }
}

TEST(Algorithms, TopologicalOrderDetectsCycle) {
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 1.0);
  const NodeId b = g.add_subtask("b", 1.0);
  g.add_precedence(a, b, 0.0);
  g.add_precedence(b, a, 0.0);
  EXPECT_FALSE(topological_order(g).has_value());
  EXPECT_FALSE(is_acyclic(g));
}

TEST(Algorithms, TopologicalOrderDeterministic) {
  DiamondFixture f1;
  DiamondFixture f2;
  EXPECT_EQ(*topological_order(f1.g), *topological_order(f2.g));
}

TEST(Algorithms, ComputationLevels) {
  DiamondFixture f;
  const auto level = computation_levels(f.g);
  EXPECT_EQ(level[f.a.index()], 0);
  EXPECT_EQ(level[f.b.index()], 1);
  EXPECT_EQ(level[f.c.index()], 1);
  EXPECT_EQ(level[f.d.index()], 2);
  // Communication nodes inherit the producer's level.
  for (const NodeId comm : f.g.communication_nodes()) {
    EXPECT_EQ(level[comm.index()], level[f.g.comm_source(comm).index()]);
  }
  EXPECT_EQ(depth(f.g), 3);
}

TEST(Algorithms, DepthOfEmptyAndSingle) {
  TaskGraph g;
  EXPECT_EQ(depth(g), 0);
  g.add_subtask("only", 7.0);
  EXPECT_EQ(depth(g), 1);
}

TEST(Algorithms, LongestPathComputationCost) {
  DiamondFixture f;
  // a -> c -> d = 10 + 30 + 5 = 45 (communication costs zero).
  EXPECT_DOUBLE_EQ(longest_path_length(f.g, computation_cost), 45.0);
  const auto path = longest_path(f.g, computation_cost);
  // Path includes comm nodes: a, a->c, c, c->d, d.
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), f.a);
  EXPECT_EQ(path[2], f.c);
  EXPECT_EQ(path.back(), f.d);
}

TEST(Algorithms, LongestPathWithCommunicationCost) {
  DiamondFixture f;
  const NodeCostFn with_comm = [](const TaskGraph& graph, NodeId id) {
    const Node& n = graph.node(id);
    return n.kind == NodeKind::Computation ? n.exec_time : n.message_items;
  };
  // a -> c -> d plus two messages of 4: 45 + 8 = 53.
  EXPECT_DOUBLE_EQ(longest_path_length(f.g, with_comm), 53.0);
}

TEST(Algorithms, AverageParallelism) {
  DiamondFixture f;
  // Total workload 65, critical path 45.
  EXPECT_NEAR(average_parallelism(f.g), 65.0 / 45.0, 1e-12);

  TaskGraph empty;
  EXPECT_DOUBLE_EQ(average_parallelism(empty), 1.0);
}

TEST(Algorithms, Reachability) {
  DiamondFixture f;
  EXPECT_TRUE(reachable(f.g, f.a, f.d));
  EXPECT_TRUE(reachable(f.g, f.b, f.d));
  EXPECT_FALSE(reachable(f.g, f.b, f.c));
  EXPECT_FALSE(reachable(f.g, f.d, f.a));
  EXPECT_TRUE(reachable(f.g, f.a, f.a));
}

TEST(Algorithms, CountSourceSinkPaths) {
  DiamondFixture f;
  EXPECT_EQ(count_source_sink_paths(f.g), 2);

  TaskGraph chain;
  NodeId prev = chain.add_subtask("p", 1.0);
  for (int i = 0; i < 4; ++i) {
    const NodeId next = chain.add_subtask("n" + std::to_string(i), 1.0);
    chain.add_precedence(prev, next, 0.0);
    prev = next;
  }
  EXPECT_EQ(count_source_sink_paths(chain), 1);
}

TEST(Algorithms, CountPathsGrowsMultiplicatively) {
  // k stacked diamonds: 2^k paths.
  TaskGraph g;
  NodeId join = g.add_subtask("s", 1.0);
  const int k = 10;
  for (int i = 0; i < k; ++i) {
    const NodeId up = g.add_subtask("u" + std::to_string(i), 1.0);
    const NodeId down = g.add_subtask("d" + std::to_string(i), 1.0);
    const NodeId next = g.add_subtask("j" + std::to_string(i), 1.0);
    g.add_precedence(join, up, 0.0);
    g.add_precedence(join, down, 0.0);
    g.add_precedence(up, next, 0.0);
    g.add_precedence(down, next, 0.0);
    join = next;
  }
  EXPECT_EQ(count_source_sink_paths(g), 1 << k);
}

TEST(Algorithms, EnumeratePathsMatchesCount) {
  DiamondFixture f;
  const auto paths = enumerate_source_sink_paths(f.g);
  EXPECT_EQ(static_cast<long long>(paths.size()), count_source_sink_paths(f.g));
  for (const auto& path : paths) {
    EXPECT_EQ(path.front(), f.a);
    EXPECT_EQ(path.back(), f.d);
    EXPECT_EQ(path.size(), 5u);  // 3 computation + 2 communication nodes
  }
}

TEST(Algorithms, EnumerateRespectsLimit) {
  DiamondFixture f;
  const auto paths = enumerate_source_sink_paths(f.g, 1);
  EXPECT_EQ(paths.size(), 1u);
}

/// Kahn's algorithm with a min-heap ready set: the smallest ready id goes
/// first, or nullopt on a cycle.
std::optional<std::vector<NodeId>> heap_kahn(const TaskGraph& graph) {
  std::vector<std::size_t> indegree(graph.node_count());
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>, std::greater<>> ready;
  for (const NodeId id : graph.all_nodes()) {
    indegree[id.index()] = graph.preds(id).size();
    if (indegree[id.index()] == 0) ready.push(id.value);
  }
  std::vector<NodeId> order;
  while (!ready.empty()) {
    const NodeId id(ready.top());
    ready.pop();
    order.push_back(id);
    for (const NodeId succ : graph.succs(id)) {
      if (--indegree[succ.index()] == 0) ready.push(succ.value);
    }
  }
  if (order.size() != graph.node_count()) return std::nullopt;
  return order;
}

TEST(PropTopologicalOrder, MatchesAMinHeapKahnSort) {
  // check::gen graphs and, every fourth case, a paper-sized generator
  // graph (over 64 nodes, so the ready set spans several words); half of
  // them get one to three extra arcs between random subtasks, which close
  // a cycle whenever the target already reaches the source.
  int cyclic = 0;
  const int cases = 400 * check::prop_case_multiplier();
  for (int c = 0; c < cases; ++c) {
    Pcg32 rng(seed_for(0x7090, {static_cast<std::uint64_t>(c)}));
    TaskGraph g = c % 4 == 0 ? generate_random_graph({}, rng) : check::gen_graph(rng);
    const std::vector<NodeId> subtasks = g.computation_nodes();
    if (rng.bernoulli(0.5)) {
      for (int k = rng.uniform_int(1, 3); k > 0; --k) {
        const NodeId from = rng.pick(subtasks);
        const NodeId to = rng.pick(subtasks);
        bool present = from == to;
        for (const NodeId comm : g.succs(from)) present = present || g.comm_sink(comm) == to;
        if (!present) g.add_precedence(from, to, 1.0);
      }
    }
    const auto want = heap_kahn(g);
    const auto got = topological_order(g);
    ASSERT_EQ(got.has_value(), want.has_value()) << "case " << c;
    if (want) {
      EXPECT_EQ(*got, *want) << "case " << c;
    } else {
      ++cyclic;
    }
  }
  EXPECT_GT(cyclic, cases / 10);
}

}  // namespace
}  // namespace feast
