#include "taskgraph/task_graph.hpp"

#include <algorithm>

namespace feast {

const char* to_string(NodeKind kind) noexcept {
  switch (kind) {
    case NodeKind::Computation: return "computation";
    case NodeKind::Communication: return "communication";
  }
  return "?";
}

namespace {

/// Capacity of a computation node's arc list when it takes its first arc.
/// Covers the 1-3 fan-in/fan-out of the §5.2 graphs without a move.
constexpr std::uint32_t kFirstCapacity = 4;

}  // namespace

void TaskGraph::reserve(std::size_t subtasks, std::size_t precedences) {
  nodes_.reserve(subtasks + precedences);
  links_.reserve(subtasks + precedences);
  // Both one-entry lists of each communication node, and a first slot for
  // both lists of each computation subtask.
  arcs_.reserve(2 * precedences + 2 * kFirstCapacity * subtasks);
}

void TaskGraph::push_arc(Slot& slot, NodeId id) {
  if (slot.size == slot.capacity) {
    const std::uint32_t capacity =
        slot.capacity == 0 ? kFirstCapacity : 2 * slot.capacity;
    const auto offset = static_cast<std::uint32_t>(arcs_.size());
    arcs_.resize(arcs_.size() + capacity);
    std::copy_n(arcs_.begin() + slot.offset, slot.size, arcs_.begin() + offset);
    slot.offset = offset;
    slot.capacity = capacity;
  }
  arcs_[slot.offset + slot.size++] = id;
}

NodeId TaskGraph::add_subtask(std::string name, Time exec_time) {
  FEAST_REQUIRE_MSG(exec_time >= 0.0, "execution time must be non-negative");
  Node& n = nodes_.emplace_back();
  n.kind = NodeKind::Computation;
  n.name = std::move(name);
  n.exec_time = exec_time;
  links_.emplace_back();
  ++subtask_count_;
  return NodeId(static_cast<std::uint32_t>(nodes_.size() - 1));
}

NodeId TaskGraph::add_precedence(NodeId from, NodeId to, double message_items) {
  FEAST_REQUIRE(from.index() < nodes_.size());
  FEAST_REQUIRE(to.index() < nodes_.size());
  FEAST_REQUIRE_MSG(from != to, "self-arcs are not allowed");
  FEAST_REQUIRE_MSG(is_computation(from) && is_computation(to),
                    "precedence arcs connect computation subtasks");
  FEAST_REQUIRE_MSG(message_items >= 0.0, "message size must be non-negative");
  // Reject duplicate arcs: from's successors are comm nodes; check sinks.
  for (const NodeId comm : succs(from)) {
    FEAST_REQUIRE_MSG(comm_sink(comm) != to, "duplicate precedence arc");
  }

  std::string name = node(from).name + "->" + node(to).name;
  Node& comm = nodes_.emplace_back();
  comm.kind = NodeKind::Communication;
  comm.name = std::move(name);
  comm.message_items = message_items;
  // The communication node's two one-entry lists, side by side.
  const auto offset = static_cast<std::uint32_t>(arcs_.size());
  arcs_.push_back(from);
  arcs_.push_back(to);
  links_.push_back(Links{Slot{offset, 1, 1}, Slot{offset + 1, 1, 1}});
  const NodeId comm_id(static_cast<std::uint32_t>(nodes_.size() - 1));
  push_arc(links_[from.index()].succs, comm_id);
  push_arc(links_[to.index()].preds, comm_id);
  return comm_id;
}

void TaskGraph::pin(NodeId id, ProcId proc) {
  FEAST_REQUIRE_MSG(is_computation(id), "only computation subtasks can be pinned");
  FEAST_REQUIRE(proc.valid());
  mutable_node(id).pinned = proc;
}

void TaskGraph::set_boundary_release(NodeId id, Time release) {
  FEAST_REQUIRE_MSG(is_computation(id), "boundary release applies to computation subtasks");
  FEAST_REQUIRE(is_set(release));
  mutable_node(id).boundary_release = release;
}

void TaskGraph::set_boundary_deadline(NodeId id, Time deadline) {
  FEAST_REQUIRE_MSG(is_computation(id), "boundary deadline applies to computation subtasks");
  FEAST_REQUIRE(is_set(deadline));
  mutable_node(id).boundary_deadline = deadline;
}

NodeId TaskGraph::comm_source(NodeId comm) const {
  FEAST_REQUIRE(is_communication(comm));
  FEAST_ASSERT(links(comm).preds.size == 1);
  return arcs_[links(comm).preds.offset];
}

NodeId TaskGraph::comm_sink(NodeId comm) const {
  FEAST_REQUIRE(is_communication(comm));
  FEAST_ASSERT(links(comm).succs.size == 1);
  return arcs_[links(comm).succs.offset];
}

std::vector<NodeId> TaskGraph::inputs() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::Computation && links_[i].preds.size == 0) {
      out.push_back(NodeId(static_cast<std::uint32_t>(i)));
    }
  }
  return out;
}

std::vector<NodeId> TaskGraph::outputs() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::Computation && links_[i].succs.size == 0) {
      out.push_back(NodeId(static_cast<std::uint32_t>(i)));
    }
  }
  return out;
}

std::vector<NodeId> TaskGraph::computation_nodes() const {
  std::vector<NodeId> out;
  out.reserve(subtask_count_);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::Computation)
      out.push_back(NodeId(static_cast<std::uint32_t>(i)));
  }
  return out;
}

std::vector<NodeId> TaskGraph::communication_nodes() const {
  std::vector<NodeId> out;
  out.reserve(comm_count());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::Communication)
      out.push_back(NodeId(static_cast<std::uint32_t>(i)));
  }
  return out;
}

Time TaskGraph::total_workload() const noexcept {
  Time sum = 0.0;
  for (const Node& n : nodes_) {
    if (n.kind == NodeKind::Computation) sum += n.exec_time;
  }
  return sum;
}

Time TaskGraph::mean_exec_time() const noexcept {
  if (subtask_count_ == 0) return 0.0;
  return total_workload() / static_cast<Time>(subtask_count_);
}

}  // namespace feast
