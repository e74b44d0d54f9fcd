/// \file test_path_finder.cpp
/// \brief Unit tests for the exact critical-path search over the residual
///        graph.  Every case runs on both finders: the sparse
///        CriticalPathFinder the distributor uses and the retained
///        CriticalPathFinderRef.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/comm_estimator.hpp"
#include "core/metrics.hpp"
#include "core/path_finder.hpp"
#include "taskgraph/task_graph.hpp"
#include "taskgraph/validate.hpp"

namespace feast {
namespace {

/// Runs \p body once per finder type, labelling failures with the finder.
template <class Body>
void on_both_finders(Body&& body) {
  {
    SCOPED_TRACE("CriticalPathFinder");
    body.template operator()<CriticalPathFinder>();
  }
  {
    SCOPED_TRACE("CriticalPathFinderRef");
    body.template operator()<CriticalPathFinderRef>();
  }
}

/// Parallel two-branch graph with a common window [0, 100]:
///   a(10) -> b(10) -> out(10)   (short branch through b)
///   a(10) -> c(50) -> out(10)   (heavy branch through c)
struct TwoBranch {
  TaskGraph g;
  NodeId a, b, c, out;

  TwoBranch(double msg = 0.0) {
    a = g.add_subtask("a", 10.0);
    b = g.add_subtask("b", 10.0);
    c = g.add_subtask("c", 50.0);
    out = g.add_subtask("out", 10.0);
    g.add_precedence(a, b, msg);
    g.add_precedence(a, c, msg);
    g.add_precedence(b, out, msg);
    g.add_precedence(c, out, msg);
    g.set_boundary_release(a, 0.0);
    g.set_boundary_deadline(out, 100.0);
  }

  ResidualState fresh_state() const {
    ResidualState state(g.node_count());
    state.lb[a.index()] = 0.0;
    state.ub[out.index()] = 100.0;
    return state;
  }

  /// Computation nodes of a path (filters comm nodes).
  std::vector<NodeId> comp_nodes(const std::vector<NodeId>& path) const {
    std::vector<NodeId> out_nodes;
    for (const NodeId id : path) {
      if (g.is_computation(id)) out_nodes.push_back(id);
    }
    return out_nodes;
  }
};

TEST(PathFinder, PureSelectsHeavyBranch) {
  TwoBranch f;
  PureMetric metric;
  metric.prepare(f.g);
  CcneEstimator ccne;
  on_both_finders([&]<class Finder>() {
    Finder finder(f.g, validate_structure(f.g).order, metric, ccne);

    const auto result = finder.find(f.fresh_state());
    ASSERT_TRUE(result.has_value());
    // Heavy branch: Σc = 70, 3 hops, R = (100-70)/3 = 10.
    // Short branch: Σc = 30, 3 hops, R = (100-30)/3 ≈ 23.3.
    EXPECT_NEAR(result->ratio, 10.0, 1e-9);
    EXPECT_EQ(result->eval.effective_hops, 3);
    EXPECT_NEAR(result->eval.sum_virtual, 70.0, 1e-9);
    EXPECT_EQ(f.comp_nodes(result->nodes), (std::vector<NodeId>{f.a, f.c, f.out}));
    EXPECT_DOUBLE_EQ(result->window_start, 0.0);
    EXPECT_DOUBLE_EQ(result->window_end, 100.0);
  });
}

TEST(PathFinder, NormSelectsHeavyBranchWithProportionalRatio) {
  TwoBranch f;
  NormMetric metric;
  metric.prepare(f.g);
  CcneEstimator ccne;
  on_both_finders([&]<class Finder>() {
    Finder finder(f.g, validate_structure(f.g).order, metric, ccne);

    const auto result = finder.find(f.fresh_state());
    ASSERT_TRUE(result.has_value());
    // R = (100 - 70) / 70.
    EXPECT_NEAR(result->ratio, 30.0 / 70.0, 1e-9);
    EXPECT_EQ(f.comp_nodes(result->nodes), (std::vector<NodeId>{f.a, f.c, f.out}));
  });
}

TEST(PathFinder, CcaaCountsCommunicationHops) {
  TwoBranch f(/*msg=*/5.0);
  PureMetric metric;
  metric.prepare(f.g);
  CcaaEstimator ccaa;
  on_both_finders([&]<class Finder>() {
    Finder finder(f.g, validate_structure(f.g).order, metric, ccaa);

    const auto result = finder.find(f.fresh_state());
    ASSERT_TRUE(result.has_value());
    // Heavy branch now has 5 effective nodes: 70 + 2 messages x 5 = 80.
    // R = (100 - 80)/5 = 4.
    EXPECT_EQ(result->eval.effective_hops, 5);
    EXPECT_NEAR(result->eval.sum_virtual, 80.0, 1e-9);
    EXPECT_NEAR(result->ratio, 4.0, 1e-9);
    // The path sequence includes the communication nodes.
    EXPECT_EQ(result->nodes.size(), 5u);
  });
}

TEST(PathFinder, CcneExcludesCommunicationFromHops) {
  TwoBranch f(/*msg=*/5.0);
  PureMetric metric;
  metric.prepare(f.g);
  CcneEstimator ccne;
  on_both_finders([&]<class Finder>() {
    Finder finder(f.g, validate_structure(f.g).order, metric, ccne);

    const auto result = finder.find(f.fresh_state());
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->eval.effective_hops, 3);
    // Comm nodes still appear in the node sequence (they need windows).
    EXPECT_EQ(result->nodes.size(), 5u);
  });
}

TEST(PathFinder, SecondIterationSeesResidualGraph) {
  TwoBranch f;
  PureMetric metric;
  metric.prepare(f.g);
  CcneEstimator ccne;
  on_both_finders([&]<class Finder>() {
    Finder finder(f.g, validate_structure(f.g).order, metric, ccne);

    ResidualState state = f.fresh_state();
    const auto first = finder.find(state);
    ASSERT_TRUE(first.has_value());
    // Simulate the distributor: assign the heavy path and attach b's bounds.
    for (const NodeId id : first->nodes) state.assigned[id.index()] = true;
    // a got window [0, 20], out got [80, 100] (say); b's bounds follow.
    state.lb[f.b.index()] = 20.0;
    state.ub[f.b.index()] = 80.0;
    const NodeId comm_ab = f.g.succs(f.a)[0];  // a->b comm node
    const NodeId comm_bo = f.g.preds(f.out)[0] == comm_ab ? f.g.preds(f.out)[1]
                                                          : f.g.preds(f.out)[0];
    // Find which comm nodes touch b.
    std::vector<NodeId> residual_comms;
    for (const NodeId comm : f.g.communication_nodes()) {
      if (!state.assigned[comm.index()]) residual_comms.push_back(comm);
    }
    for (const NodeId comm : residual_comms) {
      state.lb[comm.index()] = 20.0;
      state.ub[comm.index()] = 80.0;
    }
    (void)comm_bo;

    const auto second = finder.find(state);
    ASSERT_TRUE(second.has_value());
    // Residual path: (a->b comm), b, (b->out comm); only b is effective.
    EXPECT_EQ(f.comp_nodes(second->nodes), (std::vector<NodeId>{f.b}));
    EXPECT_EQ(second->eval.effective_hops, 1);
    EXPECT_NEAR(second->ratio, (80.0 - 20.0 - 10.0) / 1.0, 1e-9);
  });
}

TEST(PathFinder, ExhaustedResidualReturnsNullopt) {
  TwoBranch f;
  PureMetric metric;
  metric.prepare(f.g);
  CcneEstimator ccne;
  on_both_finders([&]<class Finder>() {
    Finder finder(f.g, validate_structure(f.g).order, metric, ccne);

    ResidualState state = f.fresh_state();
    for (const NodeId id : f.g.all_nodes()) state.assigned[id.index()] = true;
    EXPECT_FALSE(finder.find(state).has_value());
  });
}

TEST(PathFinder, MultipleSourcesWithDifferentBounds) {
  // Two chains: a1 -> z, a2 -> z; a1 released at 0, a2 at 40.
  TaskGraph g;
  const NodeId a1 = g.add_subtask("a1", 10.0);
  const NodeId a2 = g.add_subtask("a2", 10.0);
  const NodeId z = g.add_subtask("z", 10.0);
  g.add_precedence(a1, z, 0.0);
  g.add_precedence(a2, z, 0.0);
  g.set_boundary_release(a1, 0.0);
  g.set_boundary_release(a2, 40.0);
  g.set_boundary_deadline(z, 100.0);

  ResidualState state(g.node_count());
  state.lb[a1.index()] = 0.0;
  state.lb[a2.index()] = 40.0;
  state.ub[z.index()] = 100.0;

  PureMetric metric;
  metric.prepare(g);
  CcneEstimator ccne;
  on_both_finders([&]<class Finder>() {
    Finder finder(g, validate_structure(g).order, metric, ccne);
    const auto result = finder.find(state);
    ASSERT_TRUE(result.has_value());
    // Path from a2: window 60, Σc 20, 2 hops -> R = 20.
    // Path from a1: window 100, Σc 20, 2 hops -> R = 40.
    EXPECT_NEAR(result->ratio, 20.0, 1e-9);
    EXPECT_DOUBLE_EQ(result->window_start, 40.0);
  });
}

TEST(PathFinder, VirtualCostsExposedForInspection) {
  TwoBranch f(/*msg=*/4.0);
  ThresMetric metric(1.0, 1.25);  // MET = 20, c_thres = 25: only c inflates
  metric.prepare(f.g);
  CcaaEstimator ccaa;
  on_both_finders([&]<class Finder>() {
    Finder finder(f.g, validate_structure(f.g).order, metric, ccaa);
    EXPECT_DOUBLE_EQ(finder.effective_cost(f.c), 50.0);
    EXPECT_DOUBLE_EQ(finder.virtual_cost(f.c), 100.0);
    EXPECT_DOUBLE_EQ(finder.virtual_cost(f.a), 10.0);
    const NodeId comm = f.g.succs(f.a)[0];
    EXPECT_DOUBLE_EQ(finder.effective_cost(comm), 4.0);
    EXPECT_DOUBLE_EQ(finder.virtual_cost(comm), 4.0);
  });
}

TEST(PathFinder, SymmetricTiesBreakDeterministically) {
  // Two identical branches: both paths have the same ratio; the winner
  // must be stable across repeated searches (ties broken toward the first
  // candidate in topological order).
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 10.0);
  const NodeId b1 = g.add_subtask("b1", 20.0);
  const NodeId b2 = g.add_subtask("b2", 20.0);
  const NodeId z = g.add_subtask("z", 10.0);
  g.add_precedence(a, b1, 0.0);
  g.add_precedence(a, b2, 0.0);
  g.add_precedence(b1, z, 0.0);
  g.add_precedence(b2, z, 0.0);
  g.set_boundary_release(a, 0.0);
  g.set_boundary_deadline(z, 100.0);

  PureMetric metric;
  metric.prepare(g);
  CcneEstimator ccne;
  on_both_finders([&]<class Finder>() {
    Finder finder(g, validate_structure(g).order, metric, ccne);
    ResidualState state(g.node_count());
    state.lb[a.index()] = 0.0;
    state.ub[z.index()] = 100.0;

    const auto first = finder.find(state);
    const auto second = finder.find(state);
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(first->nodes, second->nodes);
    // The tie goes to b1 (earlier node id).
    bool has_b1 = false;
    for (const NodeId id : first->nodes) has_b1 = has_b1 || id == b1;
    EXPECT_TRUE(has_b1);
  });
}

TEST(PathFinder, SingleNodeGraph) {
  TaskGraph g;
  const NodeId only = g.add_subtask("only", 10.0);
  g.set_boundary_release(only, 0.0);
  g.set_boundary_deadline(only, 50.0);

  ResidualState state(g.node_count());
  state.lb[only.index()] = 0.0;
  state.ub[only.index()] = 50.0;

  PureMetric metric;
  metric.prepare(g);
  CcneEstimator ccne;
  on_both_finders([&]<class Finder>() {
    Finder finder(g, validate_structure(g).order, metric, ccne);
    const auto result = finder.find(state);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->nodes, std::vector<NodeId>{only});
    EXPECT_NEAR(result->ratio, 40.0, 1e-9);
  });
}

TEST(PathFinder, WinningGroupSweptBeforeTheLastKeepsItsPath) {
  // Two lb groups, swept in first-appearance order: a1's (lb 50) first,
  // a2's (lb 0) last.  The winner is a1 -> m -> z, but the last sweep
  // relaxes m and z again from a2 and leaves z's best 3-hop parent on the
  // heavier a2 -> n -> z.  The reported path must still be the winner's.
  TaskGraph g;
  const NodeId a1 = g.add_subtask("a1", 10.0);
  const NodeId a2 = g.add_subtask("a2", 10.0);
  const NodeId m = g.add_subtask("m", 10.0);
  const NodeId n = g.add_subtask("n", 30.0);
  const NodeId z = g.add_subtask("z", 10.0);
  g.add_precedence(a1, m, 0.0);
  g.add_precedence(a2, m, 0.0);
  g.add_precedence(a2, n, 0.0);
  g.add_precedence(m, z, 0.0);
  g.add_precedence(n, z, 0.0);
  g.set_boundary_release(a1, 50.0);
  g.set_boundary_release(a2, 0.0);
  g.set_boundary_deadline(z, 100.0);

  ResidualState state(g.node_count());
  state.lb[a1.index()] = 50.0;
  state.lb[a2.index()] = 0.0;
  state.ub[z.index()] = 100.0;

  PureMetric metric;
  metric.prepare(g);
  CcneEstimator ccne;
  on_both_finders([&]<class Finder>() {
    Finder finder(g, validate_structure(g).order, metric, ccne);
    const auto result = finder.find(state);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(finder.stats().lb_groups, 2u);
    // a1 group: W 50, Σ 30, 3 hops -> R = 20/3.  a2 group: a2-n-z has
    // Σ 50, R = 50/3; a2-m-z has Σ 30, R = 70/3.
    EXPECT_NEAR(result->ratio, 20.0 / 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(result->window_start, 50.0);
    EXPECT_DOUBLE_EQ(result->window_end, 100.0);
    std::vector<NodeId> comp;
    for (const NodeId id : result->nodes) {
      if (g.is_computation(id)) comp.push_back(id);
    }
    EXPECT_EQ(comp, (std::vector<NodeId>{a1, m, z}));
    EXPECT_EQ(result->nodes.front(), a1);
    EXPECT_EQ(result->nodes.back(), z);
  });
}

TEST(PathFinder, FrontierFollowsStatesThatMoveBackwards) {
  // A finder handed an arbitrary sequence of states (not only the
  // distributor's monotone one) must answer each as if it were the first.
  TwoBranch f;
  PureMetric metric;
  metric.prepare(f.g);
  CcneEstimator ccne;
  on_both_finders([&]<class Finder>() {
    Finder finder(f.g, validate_structure(f.g).order, metric, ccne);
    const auto fresh = finder.find(f.fresh_state());
    ASSERT_TRUE(fresh.has_value());

    ResidualState all = f.fresh_state();
    for (const NodeId id : f.g.all_nodes()) all.assigned[id.index()] = true;
    EXPECT_FALSE(finder.find(all).has_value());

    const auto again = finder.find(f.fresh_state());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->nodes, fresh->nodes);
    EXPECT_EQ(again->ratio, fresh->ratio);
  });
}

TEST(PathFinder, InterleavedFindersShareTheThreadScratch) {
  // The sparse finder's DP tables are thread-local and shared by every
  // finder on the thread; alternating finds over graphs of different sizes
  // must not leak one finder's rows into the other's answer.
  TwoBranch small;
  TaskGraph big;
  std::vector<NodeId> chain;
  for (int i = 0; i < 70; ++i) {
    chain.push_back(big.add_subtask("c" + std::to_string(i), 1.0 + i % 7));
    if (i > 0) big.add_precedence(chain[i - 1], chain[i], 1.0);
  }
  big.set_boundary_release(chain.front(), 0.0);
  big.set_boundary_deadline(chain.back(), 1000.0);
  ResidualState big_state(big.node_count());
  big_state.lb[chain.front().index()] = 0.0;
  big_state.ub[chain.back().index()] = 1000.0;

  PureMetric metric;
  metric.prepare(small.g);
  CcaaEstimator ccaa;
  const std::vector<NodeId> small_order = validate_structure(small.g).order;
  const std::vector<NodeId> big_order = validate_structure(big).order;
  CriticalPathFinder small_fast(small.g, small_order, metric, ccaa);
  CriticalPathFinderRef small_ref(small.g, small_order, metric, ccaa);
  CriticalPathFinder big_fast(big, big_order, metric, ccaa);
  CriticalPathFinderRef big_ref(big, big_order, metric, ccaa);
  for (int round = 0; round < 3; ++round) {
    const auto bf = big_fast.find(big_state);
    const auto sf = small_fast.find(small.fresh_state());
    const auto br = big_ref.find(big_state);
    const auto sr = small_ref.find(small.fresh_state());
    ASSERT_TRUE(bf && sf && br && sr);
    EXPECT_EQ(bf->nodes, br->nodes);
    EXPECT_EQ(bf->ratio, br->ratio);
    EXPECT_EQ(sf->nodes, sr->nodes);
    EXPECT_EQ(sf->ratio, sr->ratio);
    EXPECT_EQ(bf->nodes.size(), big.node_count());
  }
}

/// Expects \p got to be what a freshly built reference finder returns for
/// \p state.
void expect_fresh_answer(const TaskGraph& g, const SliceMetric& metric,
                         const CommCostEstimator& estimator, const ResidualState& state,
                         const std::optional<CriticalPathResult>& got) {
  CriticalPathFinderRef fresh(g, validate_structure(g).order, metric, estimator);
  const auto want = fresh.find(state);
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want) return;
  EXPECT_EQ(got->nodes, want->nodes);
  EXPECT_EQ(got->ratio, want->ratio);
  EXPECT_EQ(got->window_start, want->window_start);
  EXPECT_EQ(got->window_end, want->window_end);
}

TEST(PathFinder, SinkUbEditWithoutAFlipChangesTheAnswer) {
  // a -> b and a -> c: one lb group, two sinks.  Only c's ub moves between
  // the two finds; no node is assigned or unassigned.
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 10.0);
  const NodeId b = g.add_subtask("b", 10.0);
  const NodeId c = g.add_subtask("c", 50.0);
  g.add_precedence(a, b, 0.0);
  g.add_precedence(a, c, 0.0);
  g.set_boundary_release(a, 0.0);
  g.set_boundary_deadline(b, 100.0);
  g.set_boundary_deadline(c, 100.0);

  PureMetric metric;
  metric.prepare(g);
  CcneEstimator ccne;
  on_both_finders([&]<class Finder>() {
    Finder finder(g, validate_structure(g).order, metric, ccne);
    ResidualState state(g.node_count());
    state.lb[a.index()] = 0.0;
    state.ub[b.index()] = 100.0;
    state.ub[c.index()] = 100.0;

    const auto heavy = finder.find(state);
    ASSERT_TRUE(heavy.has_value());
    EXPECT_EQ(heavy->nodes.back(), c);  // R = (100 - 60) / 2 = 20
    expect_fresh_answer(g, metric, ccne, state, heavy);

    state.ub[c.index()] = 1000.0;  // R via c: 470; via b: 40
    const auto light = finder.find(state);
    ASSERT_TRUE(light.has_value());
    EXPECT_EQ(light->nodes.back(), b);
    EXPECT_NEAR(light->ratio, 40.0, 1e-9);
    expect_fresh_answer(g, metric, ccne, state, light);
  });
}

TEST(PathFinder, UnassignGrowsTheConeOfAnUnchangedGroup) {
  // Chain a -> b.  With b (and the message) assigned, a alone is the
  // residual graph.  Unassigning them keeps a's group (same source, same lb)
  // and flips no node of its old cone, yet the cone grows to a -> b: the
  // first answer must not be reused.
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 10.0);
  const NodeId b = g.add_subtask("b", 10.0);
  const NodeId msg = g.add_precedence(a, b, 0.0);
  g.set_boundary_release(a, 0.0);
  g.set_boundary_deadline(b, 100.0);

  PureMetric metric;
  metric.prepare(g);
  CcneEstimator ccne;
  on_both_finders([&]<class Finder>() {
    Finder finder(g, validate_structure(g).order, metric, ccne);
    ResidualState state(g.node_count());
    for (const NodeId id : g.all_nodes()) {
      state.lb[id.index()] = 0.0;
      state.ub[id.index()] = 100.0;
    }
    state.assigned[msg.index()] = true;
    state.assigned[b.index()] = true;
    const auto alone = finder.find(state);
    ASSERT_TRUE(alone.has_value());
    EXPECT_EQ(alone->nodes, std::vector<NodeId>{a});
    EXPECT_NEAR(alone->ratio, 90.0, 1e-9);

    state.assigned[msg.index()] = false;
    state.assigned[b.index()] = false;
    const auto chain = finder.find(state);
    ASSERT_TRUE(chain.has_value());
    EXPECT_EQ(chain->nodes, (std::vector<NodeId>{a, msg, b}));
    EXPECT_NEAR(chain->ratio, 40.0, 1e-9);
    expect_fresh_answer(g, metric, ccne, state, chain);
  });
}

TEST(PathFinder, MiddleSourceBelongsToTwoLbGroups) {
  // Sources a, b, c with lbs 0, 0.9e-9 and 1.8e-9: time_eq makes groups
  // {a, b} (lb 0) and {b, c} (lb 1.8e-9), so b is swept in both.  Its heavy
  // path wins in the second group, whose window is 1.8e-9 shorter.
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 10.0);
  const NodeId b = g.add_subtask("b", 30.0);
  const NodeId c = g.add_subtask("c", 10.0);
  const NodeId z = g.add_subtask("z", 10.0);
  g.add_precedence(a, z, 0.0);
  g.add_precedence(b, z, 0.0);
  g.add_precedence(c, z, 0.0);
  g.set_boundary_release(a, 0.0);
  g.set_boundary_release(b, 0.9e-9);
  g.set_boundary_release(c, 1.8e-9);
  g.set_boundary_deadline(z, 100.0);

  PureMetric metric;
  metric.prepare(g);
  CcneEstimator ccne;
  on_both_finders([&]<class Finder>() {
    Finder finder(g, validate_structure(g).order, metric, ccne);
    ResidualState state(g.node_count());
    state.lb[a.index()] = 0.0;
    state.lb[b.index()] = 0.9e-9;
    state.lb[c.index()] = 1.8e-9;
    state.ub[z.index()] = 100.0;

    for (int round = 0; round < 2; ++round) {
      const auto result = finder.find(state);
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(finder.stats().lb_groups, 2u * (round + 1));
      EXPECT_EQ(result->nodes.front(), b);
      EXPECT_EQ(result->nodes.back(), z);
      EXPECT_EQ(result->window_start, 1.8e-9);
      expect_fresh_answer(g, metric, ccne, state, result);
    }
  });
}

}  // namespace
}  // namespace feast
