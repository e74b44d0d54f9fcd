/// \file test_shapes.cpp
/// \brief Unit tests for the structured task-graph families of §8.
#include <gtest/gtest.h>

#include "taskgraph/algorithms.hpp"
#include "taskgraph/shapes.hpp"
#include "taskgraph/validate.hpp"
#include "util/rng.hpp"

namespace feast {
namespace {

ShapeConfig fixed_config() {
  ShapeConfig c;
  c.exec_spread = 0.0;  // deterministic execution times simplify assertions
  c.message_spread = 0.0;
  return c;
}

TEST(Shapes, Chain) {
  Pcg32 rng(1);
  const TaskGraph g = make_chain(5, fixed_config(), rng);
  EXPECT_EQ(g.subtask_count(), 5u);
  EXPECT_EQ(g.comm_count(), 4u);
  EXPECT_EQ(depth(g), 5);
  EXPECT_EQ(g.inputs().size(), 1u);
  EXPECT_EQ(g.outputs().size(), 1u);
  EXPECT_EQ(count_source_sink_paths(g), 1);
  EXPECT_TRUE(validate_for_distribution(g).ok());
  EXPECT_NEAR(average_parallelism(g), 1.0, 1e-12);
}

TEST(Shapes, ChainOfOne) {
  Pcg32 rng(1);
  const TaskGraph g = make_chain(1, fixed_config(), rng);
  EXPECT_EQ(g.subtask_count(), 1u);
  EXPECT_TRUE(validate_for_distribution(g).ok());
}

TEST(Shapes, InTree) {
  Pcg32 rng(2);
  const TaskGraph g = make_in_tree(3, 2, fixed_config(), rng);
  // Levels: 4 + 2 + 1 nodes.
  EXPECT_EQ(g.subtask_count(), 7u);
  EXPECT_EQ(g.inputs().size(), 4u);
  EXPECT_EQ(g.outputs().size(), 1u);
  EXPECT_EQ(depth(g), 3);
  EXPECT_TRUE(validate_for_distribution(g).ok());
  // Every non-output has exactly one successor (tree property).
  for (const NodeId id : g.computation_nodes()) {
    if (!g.succs(id).empty()) {
      EXPECT_EQ(g.succs(id).size(), 1u);
    }
  }
}

TEST(Shapes, OutTree) {
  Pcg32 rng(3);
  const TaskGraph g = make_out_tree(3, 3, fixed_config(), rng);
  // Levels: 1 + 3 + 9.
  EXPECT_EQ(g.subtask_count(), 13u);
  EXPECT_EQ(g.inputs().size(), 1u);
  EXPECT_EQ(g.outputs().size(), 9u);
  EXPECT_EQ(depth(g), 3);
  EXPECT_TRUE(validate_for_distribution(g).ok());
  for (const NodeId id : g.computation_nodes()) {
    if (!g.preds(id).empty()) {
      EXPECT_EQ(g.preds(id).size(), 1u);
    }
  }
}

TEST(Shapes, InAndOutTreeAreMirrors) {
  Pcg32 rng1(4);
  Pcg32 rng2(4);
  const TaskGraph in_tree = make_in_tree(4, 2, fixed_config(), rng1);
  const TaskGraph out_tree = make_out_tree(4, 2, fixed_config(), rng2);
  EXPECT_EQ(in_tree.subtask_count(), out_tree.subtask_count());
  EXPECT_EQ(in_tree.inputs().size(), out_tree.outputs().size());
  EXPECT_EQ(in_tree.outputs().size(), out_tree.inputs().size());
}

TEST(Shapes, ForkJoin) {
  Pcg32 rng(5);
  const TaskGraph g = make_fork_join(2, 3, 2, fixed_config(), rng);
  // Per stage: fork + join + 3 branches x 2 = 8 subtasks.
  EXPECT_EQ(g.subtask_count(), 16u);
  EXPECT_EQ(g.inputs().size(), 1u);
  EXPECT_EQ(g.outputs().size(), 1u);
  // Depth per stage: fork, 2 branch nodes, join = 4; two stages = 8.
  EXPECT_EQ(depth(g), 8);
  EXPECT_EQ(count_source_sink_paths(g), 9);  // 3 branches x 3 branches
  EXPECT_TRUE(validate_for_distribution(g).ok());
}

TEST(Shapes, Diamond) {
  Pcg32 rng(6);
  const TaskGraph g = make_diamond(4, fixed_config(), rng);
  EXPECT_EQ(g.subtask_count(), 6u);  // fork + 4 + join
  EXPECT_EQ(count_source_sink_paths(g), 4);
  EXPECT_EQ(depth(g), 3);
  EXPECT_NEAR(average_parallelism(g), 6.0 / 3.0, 1e-12);
}

TEST(Shapes, OlrAppliedToShapes) {
  Pcg32 rng(7);
  ShapeConfig config = fixed_config();
  config.olr = 2.0;
  const TaskGraph g = make_diamond(2, config, rng);
  for (const NodeId id : g.outputs()) {
    EXPECT_NEAR(g.node(id).boundary_deadline, 2.0 * g.total_workload(), 1e-9);
  }
}

TEST(Shapes, CriticalPathOlrBasis) {
  Pcg32 rng(8);
  ShapeConfig config = fixed_config();
  config.olr_basis = OlrBasis::CriticalPath;
  const TaskGraph g = make_chain(4, config, rng);
  // For a chain, critical path == total workload.
  for (const NodeId id : g.outputs()) {
    EXPECT_NEAR(g.node(id).boundary_deadline, 1.5 * g.total_workload(), 1e-9);
  }
}

TEST(Shapes, RejectBadParameters) {
  Pcg32 rng(9);
  EXPECT_THROW(make_chain(0, fixed_config(), rng), ContractViolation);
  EXPECT_THROW(make_in_tree(0, 2, fixed_config(), rng), ContractViolation);
  EXPECT_THROW(make_out_tree(2, 0, fixed_config(), rng), ContractViolation);
  EXPECT_THROW(make_fork_join(1, 0, 1, fixed_config(), rng), ContractViolation);
}

TEST(Shapes, RejectNonPositiveOrTinyOlr) {
  // Every family releases its inputs at 0 and gives each output
  // D = olr x basis; these small graphs keep 1e-12 x basis under kTimeEps.
  for (const OlrBasis basis : {OlrBasis::TotalWorkload, OlrBasis::CriticalPath}) {
    for (const double olr : {0.0, -1.0, 1e-12}) {
      ShapeConfig config;
      config.olr = olr;
      config.olr_basis = basis;
      Pcg32 rng(9);
      EXPECT_THROW(make_chain(6, config, rng), ContractViolation) << olr;
      EXPECT_THROW(make_in_tree(3, 2, config, rng), ContractViolation) << olr;
      EXPECT_THROW(make_out_tree(3, 2, config, rng), ContractViolation) << olr;
      EXPECT_THROW(make_fork_join(2, 3, 1, config, rng), ContractViolation) << olr;
      EXPECT_THROW(make_diamond(4, config, rng), ContractViolation) << olr;
    }
  }
}

class ShapeSeedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShapeSeedProperty, AllFamiliesValidateAcrossSeeds) {
  ShapeConfig config;  // randomized execution times
  Pcg32 rng(GetParam());
  EXPECT_TRUE(validate_for_distribution(make_chain(6, config, rng)).ok());
  EXPECT_TRUE(validate_for_distribution(make_in_tree(3, 3, config, rng)).ok());
  EXPECT_TRUE(validate_for_distribution(make_out_tree(3, 2, config, rng)).ok());
  EXPECT_TRUE(validate_for_distribution(make_fork_join(3, 4, 1, config, rng)).ok());
  EXPECT_TRUE(validate_for_distribution(make_diamond(8, config, rng)).ok());
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, ShapeSeedProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace feast
