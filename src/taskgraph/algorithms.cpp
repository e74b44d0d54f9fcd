#include "taskgraph/algorithms.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

namespace feast {

Time computation_cost(const TaskGraph& graph, NodeId id) {
  const Node& n = graph.node(id);
  return n.kind == NodeKind::Computation ? n.exec_time : 0.0;
}

std::optional<std::vector<NodeId>> topological_order(const TaskGraph& graph) {
  const std::size_t n = graph.node_count();
  std::vector<std::uint32_t> indegree(n);
  // Ready nodes as a bitset by id: taking the lowest set bit gives the
  // smallest ready id, the tie-break a min-heap would give.
  std::vector<std::uint64_t> ready((n + 63) / 64, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id(static_cast<std::uint32_t>(i));
    indegree[i] = static_cast<std::uint32_t>(graph.preds(id).size());
    if (indegree[i] == 0) ready[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  std::vector<NodeId> order;
  order.reserve(n);
  std::size_t low = 0;  // no ready bit below word `low`
  while (true) {
    while (low < ready.size() && ready[low] == 0) ++low;
    if (low == ready.size()) break;
    const auto id = static_cast<std::uint32_t>(low * 64 + std::countr_zero(ready[low]));
    ready[low] &= ready[low] - 1;
    order.emplace_back(id);
    for (const NodeId succ : graph.succs(NodeId(id))) {
      if (--indegree[succ.index()] == 0) {
        ready[succ.index() / 64] |= std::uint64_t{1} << (succ.index() % 64);
        low = std::min(low, succ.index() / 64);
      }
    }
  }
  if (order.size() != n) return std::nullopt;
  return order;
}

bool is_acyclic(const TaskGraph& graph) { return topological_order(graph).has_value(); }

std::vector<int> computation_levels(const TaskGraph& graph) {
  const auto order = topological_order(graph);
  FEAST_REQUIRE_MSG(order.has_value(), "computation_levels requires an acyclic graph");
  std::vector<int> level(graph.node_count(), 0);
  for (const NodeId id : *order) {
    int lvl = 0;
    const bool is_comp = graph.is_computation(id);
    for (const NodeId pred : graph.preds(id)) {
      // Crossing into a computation node advances one level; communication
      // nodes inherit their producer's level.
      lvl = std::max(lvl, level[pred.index()] + (is_comp ? 1 : 0));
    }
    level[id.index()] = graph.preds(id).empty() ? 0 : lvl;
  }
  return level;
}

int depth(const TaskGraph& graph) {
  if (graph.node_count() == 0) return 0;
  const std::vector<int> level = computation_levels(graph);
  int max_level = 0;
  for (const NodeId id : graph.computation_nodes()) {
    max_level = std::max(max_level, level[id.index()]);
  }
  return max_level + 1;
}

namespace {

/// Computes, for every node, the max path cost ending at that node
/// (inclusive) and the predecessor along one such path.
struct LongestPathTable {
  std::vector<Time> cost_to;
  std::vector<NodeId> via;
};

LongestPathTable longest_path_table(const TaskGraph& graph, const NodeCostFn& cost) {
  const auto order = topological_order(graph);
  FEAST_REQUIRE_MSG(order.has_value(), "longest path requires an acyclic graph");
  LongestPathTable t;
  t.cost_to.assign(graph.node_count(), 0.0);
  t.via.assign(graph.node_count(), NodeId());
  for (const NodeId id : *order) {
    Time best = 0.0;
    NodeId best_pred;
    for (const NodeId pred : graph.preds(id)) {
      if (t.cost_to[pred.index()] > best || !best_pred.valid()) {
        best = t.cost_to[pred.index()];
        best_pred = pred;
      }
    }
    t.cost_to[id.index()] = best + cost(graph, id);
    t.via[id.index()] = best_pred;
  }
  return t;
}

}  // namespace

Time longest_path_length(const TaskGraph& graph, const NodeCostFn& cost) {
  if (graph.node_count() == 0) return 0.0;
  const LongestPathTable t = longest_path_table(graph, cost);
  return *std::max_element(t.cost_to.begin(), t.cost_to.end());
}

std::vector<NodeId> longest_path(const TaskGraph& graph, const NodeCostFn& cost) {
  FEAST_REQUIRE(graph.node_count() > 0);
  const LongestPathTable t = longest_path_table(graph, cost);
  std::size_t best = 0;
  for (std::size_t i = 1; i < t.cost_to.size(); ++i) {
    if (t.cost_to[i] > t.cost_to[best]) best = i;
  }
  std::vector<NodeId> path;
  for (NodeId cur(static_cast<std::uint32_t>(best)); cur.valid(); cur = t.via[cur.index()]) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

double average_parallelism(const TaskGraph& graph) {
  const auto order = topological_order(graph);
  FEAST_REQUIRE_MSG(order.has_value(), "parallelism requires an acyclic graph");
  return average_parallelism(graph, *order);
}

double average_parallelism(const TaskGraph& graph, std::span<const NodeId> order) {
  FEAST_REQUIRE(order.size() == graph.node_count());
  const Time workload = graph.total_workload();
  if (workload <= 0.0) return 1.0;
  // Longest path in execution time: the max over nodes of the cost of the
  // heaviest path ending there (costs are non-negative, so max with 0 is
  // the max over predecessors).
  std::vector<Time> cost_to(graph.node_count(), 0.0);
  Time cp = 0.0;
  for (const NodeId id : order) {
    Time best = 0.0;
    for (const NodeId pred : graph.preds(id)) best = std::max(best, cost_to[pred.index()]);
    cost_to[id.index()] = best + computation_cost(graph, id);
    cp = std::max(cp, cost_to[id.index()]);
  }
  if (cp <= 0.0) return 1.0;
  return workload / cp;
}

bool reachable(const TaskGraph& graph, NodeId from, NodeId to) {
  FEAST_REQUIRE(from.index() < graph.node_count());
  FEAST_REQUIRE(to.index() < graph.node_count());
  if (from == to) return true;
  std::vector<bool> seen(graph.node_count(), false);
  std::vector<NodeId> stack{from};
  seen[from.index()] = true;
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    for (const NodeId succ : graph.succs(cur)) {
      if (succ == to) return true;
      if (!seen[succ.index()]) {
        seen[succ.index()] = true;
        stack.push_back(succ);
      }
    }
  }
  return false;
}

long long count_source_sink_paths(const TaskGraph& graph) {
  const auto order = topological_order(graph);
  FEAST_REQUIRE_MSG(order.has_value(), "path counting requires an acyclic graph");
  constexpr long long kCap = std::numeric_limits<long long>::max() / 2;
  std::vector<long long> ways(graph.node_count(), 0);
  long long total = 0;
  for (const NodeId id : *order) {
    long long w = 0;
    if (graph.preds(id).empty()) {
      w = graph.is_computation(id) ? 1 : 0;  // paths start at computation sources
    } else {
      for (const NodeId pred : graph.preds(id)) {
        w = std::min(kCap, w + ways[pred.index()]);
      }
    }
    ways[id.index()] = w;
    if (graph.is_computation(id) && graph.succs(id).empty()) {
      total = std::min(kCap, total + w);
    }
  }
  return total;
}

namespace {
void enumerate_rec(const TaskGraph& graph, NodeId cur, std::vector<NodeId>& prefix,
                   std::vector<std::vector<NodeId>>& out, std::size_t limit) {
  if (out.size() >= limit) return;
  prefix.push_back(cur);
  if (graph.succs(cur).empty()) {
    out.push_back(prefix);
  } else {
    for (const NodeId succ : graph.succs(cur)) {
      enumerate_rec(graph, succ, prefix, out, limit);
      if (out.size() >= limit) break;
    }
  }
  prefix.pop_back();
}
}  // namespace

std::vector<std::vector<NodeId>> enumerate_source_sink_paths(const TaskGraph& graph,
                                                             std::size_t limit) {
  std::vector<std::vector<NodeId>> out;
  std::vector<NodeId> prefix;
  for (const NodeId src : graph.inputs()) {
    enumerate_rec(graph, src, prefix, out, limit);
    if (out.size() >= limit) break;
  }
  return out;
}

}  // namespace feast
