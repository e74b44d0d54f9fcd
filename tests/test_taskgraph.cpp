/// \file test_taskgraph.cpp
/// \brief Unit tests for the TaskGraph model: construction invariants,
///        node-kind discipline, boundary timing, workload accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "taskgraph/task_graph.hpp"
#include "util/contracts.hpp"

namespace feast {
namespace {

TEST(TaskGraph, EmptyGraph) {
  TaskGraph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.subtask_count(), 0u);
  EXPECT_EQ(g.comm_count(), 0u);
  EXPECT_TRUE(g.inputs().empty());
  EXPECT_TRUE(g.outputs().empty());
  EXPECT_DOUBLE_EQ(g.total_workload(), 0.0);
  EXPECT_DOUBLE_EQ(g.mean_exec_time(), 0.0);
}

TEST(TaskGraph, AddSubtaskBasics) {
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 10.0);
  const NodeId b = g.add_subtask("b", 20.0);
  EXPECT_EQ(g.subtask_count(), 2u);
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_TRUE(g.is_computation(a));
  EXPECT_EQ(g.node(a).name, "a");
  EXPECT_DOUBLE_EQ(g.node(b).exec_time, 20.0);
  EXPECT_DOUBLE_EQ(g.total_workload(), 30.0);
  EXPECT_DOUBLE_EQ(g.mean_exec_time(), 15.0);
}

TEST(TaskGraph, NegativeExecTimeRejected) {
  TaskGraph g;
  EXPECT_THROW(g.add_subtask("bad", -1.0), ContractViolation);
}

TEST(TaskGraph, PrecedenceCreatesCommunicationNode) {
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 10.0);
  const NodeId b = g.add_subtask("b", 20.0);
  const NodeId comm = g.add_precedence(a, b, 5.0);

  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.comm_count(), 1u);
  EXPECT_TRUE(g.is_communication(comm));
  EXPECT_DOUBLE_EQ(g.node(comm).message_items, 5.0);
  EXPECT_EQ(g.comm_source(comm), a);
  EXPECT_EQ(g.comm_sink(comm), b);

  // Adjacency runs through the communication node.
  ASSERT_EQ(g.succs(a).size(), 1u);
  EXPECT_EQ(g.succs(a).front(), comm);
  ASSERT_EQ(g.preds(b).size(), 1u);
  EXPECT_EQ(g.preds(b).front(), comm);
}

TEST(TaskGraph, PrecedenceMisuseRejected) {
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 1.0);
  const NodeId b = g.add_subtask("b", 1.0);
  const NodeId comm = g.add_precedence(a, b, 0.0);

  EXPECT_THROW(g.add_precedence(a, a, 0.0), ContractViolation);       // self-arc
  EXPECT_THROW(g.add_precedence(a, b, 0.0), ContractViolation);       // duplicate
  EXPECT_THROW(g.add_precedence(a, comm, 0.0), ContractViolation);    // comm endpoint
  EXPECT_THROW(g.add_precedence(comm, b, 0.0), ContractViolation);    // comm endpoint
  EXPECT_THROW(g.add_precedence(a, b, -2.0), ContractViolation);      // negative size
  EXPECT_THROW(g.add_precedence(a, NodeId(99), 0.0), ContractViolation);
}

TEST(TaskGraph, MutatorsOwnThePerNodeStructure) {
  // Validation checks only what an arc cannot check locally (acyclicity);
  // every per-node rule is enforced here, as each node is built.
  TaskGraph g;
  EXPECT_THROW(g.add_subtask("nan", std::nan("")), ContractViolation);
  const NodeId a = g.add_subtask("a", 1.0);
  const NodeId b = g.add_subtask("b", 1.0);
  const NodeId c = g.add_subtask("c", 1.0);
  EXPECT_THROW(g.add_precedence(a, b, std::nan("")), ContractViolation);
  const NodeId comm = g.add_precedence(a, b, 2.0);

  // A communication node never gains an arc, a pin or boundary times...
  EXPECT_THROW(g.add_precedence(comm, c, 0.0), ContractViolation);
  EXPECT_THROW(g.add_precedence(c, comm, 0.0), ContractViolation);
  EXPECT_THROW(g.pin(comm, ProcId(0)), ContractViolation);
  EXPECT_THROW(g.set_boundary_release(comm, 0.0), ContractViolation);
  // ...so it keeps one computation predecessor, one computation successor,
  // no execution time, and both ends link back to it.
  EXPECT_TRUE(std::ranges::equal(g.preds(comm), std::vector<NodeId>{a}));
  EXPECT_TRUE(std::ranges::equal(g.succs(comm), std::vector<NodeId>{b}));
  EXPECT_EQ(g.node(comm).exec_time, 0.0);
  EXPECT_TRUE(std::ranges::equal(g.succs(a), std::vector<NodeId>{comm}));
  EXPECT_TRUE(std::ranges::equal(g.preds(b), std::vector<NodeId>{comm}));
}

TEST(TaskGraph, ReversePrecedenceIsAllowed) {
  // b -> a after a -> b creates a cycle; structural validation catches it,
  // not the mutator (documented behaviour).
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 1.0);
  const NodeId b = g.add_subtask("b", 1.0);
  g.add_precedence(a, b, 0.0);
  EXPECT_NO_THROW(g.add_precedence(b, a, 0.0));
}

TEST(TaskGraph, InputsAndOutputs) {
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 1.0);
  const NodeId b = g.add_subtask("b", 1.0);
  const NodeId c = g.add_subtask("c", 1.0);
  g.add_precedence(a, b, 0.0);
  g.add_precedence(b, c, 0.0);

  EXPECT_EQ(g.inputs(), std::vector<NodeId>{a});
  EXPECT_EQ(g.outputs(), std::vector<NodeId>{c});
}

TEST(TaskGraph, NodeListsPartitionByKind) {
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 1.0);
  const NodeId b = g.add_subtask("b", 1.0);
  g.add_precedence(a, b, 1.0);

  EXPECT_EQ(g.computation_nodes().size(), 2u);
  EXPECT_EQ(g.communication_nodes().size(), 1u);
  EXPECT_EQ(g.all_nodes().size(), 3u);
}

TEST(TaskGraph, PinningRules) {
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 1.0);
  const NodeId b = g.add_subtask("b", 1.0);
  const NodeId comm = g.add_precedence(a, b, 1.0);

  g.pin(a, ProcId(3));
  EXPECT_EQ(g.node(a).pinned, ProcId(3));
  EXPECT_FALSE(g.node(b).pinned.valid());
  EXPECT_THROW(g.pin(comm, ProcId(0)), ContractViolation);
  EXPECT_THROW(g.pin(a, ProcId()), ContractViolation);
}

TEST(TaskGraph, BoundaryTiming) {
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 1.0);
  const NodeId b = g.add_subtask("b", 1.0);
  const NodeId comm = g.add_precedence(a, b, 1.0);

  g.set_boundary_release(a, 5.0);
  g.set_boundary_deadline(b, 50.0);
  EXPECT_DOUBLE_EQ(g.node(a).boundary_release, 5.0);
  EXPECT_DOUBLE_EQ(g.node(b).boundary_deadline, 50.0);
  EXPECT_FALSE(is_set(g.node(b).boundary_release));
  EXPECT_THROW(g.set_boundary_release(comm, 0.0), ContractViolation);
  EXPECT_THROW(g.set_boundary_deadline(comm, 1.0), ContractViolation);
  EXPECT_THROW(g.set_boundary_release(a, kUnsetTime), ContractViolation);
}

TEST(TaskGraph, CommAccessorsRejectComputationNodes) {
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 1.0);
  EXPECT_THROW(g.comm_source(a), ContractViolation);
  EXPECT_THROW(g.comm_sink(a), ContractViolation);
}

TEST(TaskGraph, NodeKindNames) {
  EXPECT_STREQ(to_string(NodeKind::Computation), "computation");
  EXPECT_STREQ(to_string(NodeKind::Communication), "communication");
}

TEST(NodeIdTest, ValidityAndComparison) {
  NodeId invalid;
  EXPECT_FALSE(invalid.valid());
  NodeId a(1);
  NodeId b(2);
  EXPECT_TRUE(a.valid());
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, NodeId(1));
  EXPECT_EQ(std::hash<NodeId>{}(a), std::hash<NodeId>{}(NodeId(1)));
}

}  // namespace
}  // namespace feast
