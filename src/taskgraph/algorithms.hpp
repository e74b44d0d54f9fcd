/// \file algorithms.hpp
/// \brief Graph algorithms shared by the generator, distributor, scheduler
///        and analysis code.
///
/// All algorithms operate on the full node set (computation *and*
/// communication nodes).  Where a node "cost" is needed, callers pass a
/// NodeCostFn so the same longest-path machinery serves both the CCNE view
/// (communication costs zero) and the CCAA view (communication costs equal
/// to estimated bus time).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "taskgraph/task_graph.hpp"

namespace feast {

/// Maps a node to its cost for path-length purposes.
using NodeCostFn = std::function<Time(const TaskGraph&, NodeId)>;

/// Cost function: execution time for computation nodes, zero for
/// communication nodes (the CCNE world view; also the paper's definition of
/// path length "in execution time" for the parallelism metric ξ).
Time computation_cost(const TaskGraph& graph, NodeId id);

/// Returns a topological order over all nodes, or std::nullopt when the
/// graph contains a cycle.  Kahn's algorithm; ties broken by node id so the
/// order is deterministic.
std::optional<std::vector<NodeId>> topological_order(const TaskGraph& graph);

/// True when the graph is acyclic.
bool is_acyclic(const TaskGraph& graph);

/// Longest-path level of every node counting only computation nodes:
/// input subtasks are level 0; a computation node's level is 1 + the max
/// level of its computation predecessors; a communication node inherits its
/// producer's level.  Precondition: acyclic.
std::vector<int> computation_levels(const TaskGraph& graph);

/// Number of levels spanned by the computation subtasks (the paper's graph
/// "depth"); 0 for an empty graph.
int depth(const TaskGraph& graph);

/// Length of the longest path under \p cost (sum of node costs along the
/// path, maximized over all paths).  Precondition: acyclic.
Time longest_path_length(const TaskGraph& graph, const NodeCostFn& cost);

/// Extracts one longest path (sequence of node ids, sources to sinks) under
/// \p cost.  Precondition: acyclic, non-empty.
std::vector<NodeId> longest_path(const TaskGraph& graph, const NodeCostFn& cost);

/// The paper's average task-graph parallelism ξ: total workload divided by
/// the length, in execution time, of the longest path.  Returns 1 for an
/// empty or zero-workload graph.  Precondition: acyclic.
double average_parallelism(const TaskGraph& graph);

/// average_parallelism over a topological order of the graph the caller
/// already holds (ValidationReport::order): one pass, no sort.
double average_parallelism(const TaskGraph& graph, std::span<const NodeId> order);

/// True when \p to is reachable from \p from following arcs forward.
bool reachable(const TaskGraph& graph, NodeId from, NodeId to);

/// Number of distinct computation-to-computation source→sink paths.  Counts
/// through communication nodes but reports paths between computation
/// endpoints; useful for test assertions on generated shapes.  Saturates at
/// std::numeric_limits<long long>::max() / 2 to avoid overflow on dense
/// graphs.  Precondition: acyclic.
long long count_source_sink_paths(const TaskGraph& graph);

/// Enumerates every source→sink path as a node sequence.  Exponential in the
/// worst case; intended for tests and validation on small graphs only.
/// \p limit aborts the enumeration (returning what was found) once reached.
std::vector<std::vector<NodeId>> enumerate_source_sink_paths(const TaskGraph& graph,
                                                             std::size_t limit = 100000);

}  // namespace feast
