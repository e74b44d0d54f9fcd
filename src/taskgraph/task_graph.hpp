/// \file task_graph.hpp
/// \brief The task-graph model of §3 of the paper.
///
/// A real-time application is a directed acyclic graph whose nodes are
/// *subtasks*.  FEAST represents both kinds of subtasks from the paper as
/// graph nodes:
///
///  - **computation subtasks** τ_i with worst-case execution time c_i, and
///  - **communication subtasks** χ_ij with maximum message size m_ij,
///    inserted on every precedence arc τ_i → τ_j.
///
/// Modelling messages as first-class nodes is what lets the deadline
/// distribution algorithm assign release times and deadlines to messages
/// (enabling deadline-driven bus scheduling) and lets the communication-cost
/// estimators treat unknown assignment uniformly: the *cost* of a
/// communication node is unknown until task assignment decides whether its
/// endpoints are co-located.
///
/// Boundary timing lives on the graph: input subtasks carry a release time,
/// output subtasks carry an end-to-end (absolute) deadline.  Per-subtask
/// release times and relative deadlines produced by deadline distribution
/// live in a separate DeadlineAssignment (see core/annotation.hpp), keeping
/// the graph immutable during experiments.
///
/// Arc storage: every arc list of a graph lives in one pool (a single
/// std::vector<NodeId>), and each node holds the offset, size and capacity
/// of its predecessor and successor slots there.  A list that fills its
/// slot moves to the end of the pool with double the capacity; a
/// communication node's two lists hold exactly one entry each.  Building a
/// graph therefore costs no heap allocation per node.  preds() and succs()
/// return spans into the pool, valid until the graph's next mutation.
#pragma once

#include <cstdint>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "taskgraph/ids.hpp"
#include "util/contracts.hpp"
#include "util/time_types.hpp"

namespace feast {

/// Discriminates the two node kinds of the task graph.
enum class NodeKind : std::uint8_t {
  Computation,   ///< An ordinary subtask τ_i with execution time c_i.
  Communication  ///< A message subtask χ_ij with message size m_ij.
};

/// Returns a human-readable name for a node kind.
const char* to_string(NodeKind kind) noexcept;

/// One node of the task graph.  Plain data; invariants are enforced by
/// TaskGraph's mutators.  Its arcs live in the graph (TaskGraph::preds,
/// TaskGraph::succs).
struct Node {
  NodeKind kind = NodeKind::Computation;
  std::string name;

  /// Worst-case execution time c_i (computation nodes only; 0 for comm).
  Time exec_time = 0.0;

  /// Maximum message size m_ij in data items (communication nodes only).
  double message_items = 0.0;

  /// Strict locality constraint: processor this subtask must run on, or
  /// invalid for relaxed subtasks (the scheduler chooses).  Computation only.
  ProcId pinned;

  /// Boundary release time; set on input subtasks (earliest start of the
  /// application), unset elsewhere.
  Time boundary_release = kUnsetTime;

  /// Boundary absolute deadline; set on output subtasks (the end-to-end
  /// deadline D of the pair ⟨τ_1, τ_n⟩), unset elsewhere.
  Time boundary_deadline = kUnsetTime;
};

/// A directed acyclic graph of computation and communication subtasks.
///
/// Structural invariants maintained by the mutators:
///  - no self-arcs, no duplicate arcs;
///  - every communication node has exactly one predecessor and one
///    successor, both computation nodes;
///  - computation nodes are only adjacent to communication nodes (every
///    precedence constraint is mediated by a communication subtask, whose
///    message size may be zero for pure control dependences).
///
/// Acyclicity is not enforced per-arc (that would be quadratic):
/// validate_structure() checks it, and validate_for_distribution(), which
/// every distributor runs on its input, checks it with the boundary rules.
///
/// All arc lists share one pool per graph (see the file comment), so a span
/// returned by preds() or succs() stays valid only until the next call of a
/// mutator on the same graph: adding an arc may move any list.  Copies and
/// moves carry the pool along.
class TaskGraph {
 public:
  /// Reserves room for \p subtasks computation subtasks joined by
  /// \p precedences arcs, so that building a graph of that size
  /// reallocates nothing in the common case.  Optional.
  void reserve(std::size_t subtasks, std::size_t precedences);

  /// Adds a computation subtask with execution time \p exec_time >= 0.
  NodeId add_subtask(std::string name, Time exec_time);

  /// Adds a precedence constraint \p from → \p to mediated by a new
  /// communication subtask carrying \p message_items >= 0 data items.
  /// Returns the id of the communication node.
  NodeId add_precedence(NodeId from, NodeId to, double message_items = 0.0);

  /// Pins a computation subtask to a processor (strict locality constraint).
  void pin(NodeId id, ProcId proc);

  /// Sets the boundary release time of an input subtask.
  void set_boundary_release(NodeId id, Time release);

  /// Sets the end-to-end (absolute) deadline of an output subtask.
  void set_boundary_deadline(NodeId id, Time deadline);

  /// Total number of nodes (computation + communication).
  std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Number of computation subtasks.
  std::size_t subtask_count() const noexcept { return subtask_count_; }

  /// Number of communication subtasks (== number of precedence arcs).
  std::size_t comm_count() const noexcept { return nodes_.size() - subtask_count_; }

  /// Read access to a node.
  const Node& node(NodeId id) const {
    FEAST_REQUIRE(id.index() < nodes_.size());
    return nodes_[id.index()];
  }

  /// Node kind shorthand.
  NodeKind kind(NodeId id) const { return node(id).kind; }

  /// True when \p id is a computation subtask.
  bool is_computation(NodeId id) const { return kind(id) == NodeKind::Computation; }

  /// True when \p id is a communication subtask.
  bool is_communication(NodeId id) const { return kind(id) == NodeKind::Communication; }

  /// Predecessors of a node, in arc insertion order.  Valid until the
  /// graph's next mutation.
  std::span<const NodeId> preds(NodeId id) const { return arcs(links(id).preds); }

  /// Successors of a node, in arc insertion order.  Valid until the
  /// graph's next mutation.
  std::span<const NodeId> succs(NodeId id) const { return arcs(links(id).succs); }

  /// For a communication node, the producing computation subtask.
  NodeId comm_source(NodeId comm) const;

  /// For a communication node, the consuming computation subtask.
  NodeId comm_sink(NodeId comm) const;

  /// Computation subtasks with no predecessors (input subtasks).
  std::vector<NodeId> inputs() const;

  /// Computation subtasks with no successors (output subtasks).
  std::vector<NodeId> outputs() const;

  /// All node ids in insertion order, as a sized range that allocates
  /// nothing.
  auto all_nodes() const {
    return std::views::iota(std::uint32_t{0}, static_cast<std::uint32_t>(nodes_.size())) |
           std::views::transform([](std::uint32_t v) { return NodeId(v); });
  }

  /// All computation-node ids in insertion order.
  std::vector<NodeId> computation_nodes() const;

  /// All communication-node ids in insertion order.
  std::vector<NodeId> communication_nodes() const;

  /// Sum of execution times over all computation subtasks (the paper's
  /// "accumulated task graph workload").
  Time total_workload() const noexcept;

  /// Mean execution time over computation subtasks (0 for an empty graph).
  Time mean_exec_time() const noexcept;

 private:
  /// One arc list: arcs_[offset, offset + size) in use, room for capacity.
  struct Slot {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };
  struct Links {
    Slot preds;
    Slot succs;
  };

  Node& mutable_node(NodeId id) {
    FEAST_REQUIRE(id.index() < nodes_.size());
    return nodes_[id.index()];
  }
  const Links& links(NodeId id) const {
    FEAST_REQUIRE(id.index() < links_.size());
    return links_[id.index()];
  }
  std::span<const NodeId> arcs(Slot slot) const {
    return {arcs_.data() + slot.offset, slot.size};
  }
  /// Appends \p id to the list in \p slot, moving the list to the end of
  /// the pool with double the capacity when it is full.
  void push_arc(Slot& slot, NodeId id);

  std::vector<Node> nodes_;
  std::vector<Links> links_;   ///< Parallel to nodes_.
  std::vector<NodeId> arcs_;   ///< The arc pool every Slot points into.
  std::size_t subtask_count_ = 0;
};

}  // namespace feast
