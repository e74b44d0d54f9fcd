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

NodeId TaskGraph::add_subtask(std::string name, Time exec_time) {
  FEAST_REQUIRE_MSG(exec_time >= 0.0, "execution time must be non-negative");
  Node n;
  n.kind = NodeKind::Computation;
  n.name = std::move(name);
  n.exec_time = exec_time;
  nodes_.push_back(std::move(n));
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
  for (const NodeId comm : node(from).succs) {
    FEAST_REQUIRE_MSG(comm_sink(comm) != to, "duplicate precedence arc");
  }

  Node comm;
  comm.kind = NodeKind::Communication;
  comm.name = node(from).name + "->" + node(to).name;
  comm.message_items = message_items;
  comm.preds.push_back(from);
  comm.succs.push_back(to);
  nodes_.push_back(std::move(comm));
  const NodeId comm_id(static_cast<std::uint32_t>(nodes_.size() - 1));
  mutable_node(from).succs.push_back(comm_id);
  mutable_node(to).preds.push_back(comm_id);
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
  FEAST_ASSERT(node(comm).preds.size() == 1);
  return node(comm).preds.front();
}

NodeId TaskGraph::comm_sink(NodeId comm) const {
  FEAST_REQUIRE(is_communication(comm));
  FEAST_ASSERT(node(comm).succs.size() == 1);
  return node(comm).succs.front();
}

std::vector<NodeId> TaskGraph::inputs() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::Computation && nodes_[i].preds.empty()) {
      out.push_back(NodeId(static_cast<std::uint32_t>(i)));
    }
  }
  return out;
}

std::vector<NodeId> TaskGraph::outputs() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::Computation && nodes_[i].succs.empty()) {
      out.push_back(NodeId(static_cast<std::uint32_t>(i)));
    }
  }
  return out;
}

std::vector<NodeId> TaskGraph::all_nodes() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    out.push_back(NodeId(static_cast<std::uint32_t>(i)));
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
