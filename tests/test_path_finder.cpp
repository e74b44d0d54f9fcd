/// \file test_path_finder.cpp
/// \brief Unit tests for the exact critical-path search over the residual
///        graph.  Every case runs on both finders: the sparse
///        CriticalPathFinder the distributor uses and the retained
///        CriticalPathFinderRef.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
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
    state.set_lb(a, 0.0);
    state.set_ub(out, 100.0);
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
    for (const NodeId id : first->nodes) state.assign(id);
    // a got window [0, 20], out got [80, 100] (say); b's bounds follow.
    state.set_lb(f.b, 20.0);
    state.set_ub(f.b, 80.0);
    const NodeId comm_ab = f.g.succs(f.a)[0];  // a->b comm node
    const NodeId comm_bo = f.g.preds(f.out)[0] == comm_ab ? f.g.preds(f.out)[1]
                                                          : f.g.preds(f.out)[0];
    // Find which comm nodes touch b.
    std::vector<NodeId> residual_comms;
    for (const NodeId comm : f.g.communication_nodes()) {
      if (!state.assigned(comm)) residual_comms.push_back(comm);
    }
    for (const NodeId comm : residual_comms) {
      state.set_lb(comm, 20.0);
      state.set_ub(comm, 80.0);
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
    for (const NodeId id : f.g.all_nodes()) state.assign(id);
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
  state.set_lb(a1, 0.0);
  state.set_lb(a2, 40.0);
  state.set_ub(z, 100.0);

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
    state.set_lb(a, 0.0);
    state.set_ub(z, 100.0);

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
  state.set_lb(only, 0.0);
  state.set_ub(only, 50.0);

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
  state.set_lb(a1, 50.0);
  state.set_lb(a2, 0.0);
  state.set_ub(z, 100.0);

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
    for (const NodeId id : f.g.all_nodes()) all.assign(id);
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
  big_state.set_lb(chain.front(), 0.0);
  big_state.set_ub(chain.back(), 1000.0);

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
    state.set_lb(a, 0.0);
    state.set_ub(b, 100.0);
    state.set_ub(c, 100.0);

    const auto heavy = finder.find(state);
    ASSERT_TRUE(heavy.has_value());
    EXPECT_EQ(heavy->nodes.back(), c);  // R = (100 - 60) / 2 = 20
    expect_fresh_answer(g, metric, ccne, state, heavy);

    state.set_ub(c, 1000.0);  // R via c: 470; via b: 40
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
      state.set_lb(id, 0.0);
      state.set_ub(id, 100.0);
    }
    state.assign(msg);
    state.assign(b);
    const auto alone = finder.find(state);
    ASSERT_TRUE(alone.has_value());
    EXPECT_EQ(alone->nodes, std::vector<NodeId>{a});
    EXPECT_NEAR(alone->ratio, 90.0, 1e-9);

    state.unassign(msg);
    state.unassign(b);
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
    state.set_lb(a, 0.0);
    state.set_lb(b, 0.9e-9);
    state.set_lb(c, 1.8e-9);
    state.set_ub(z, 100.0);

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

// ---------------------------------------------------------------------------
// FinderLog: a long-lived CriticalPathFinder driven through hand-built edit
// sequences, one per way its lb groups can be re-formed from scratch.  After
// every step it, and a long-lived CriticalPathFinderRef, must return what a
// freshly built CriticalPathFinderRef returns, bit for bit, and form as many
// lb groups; each step also states whether the finder had to re-form its
// groups from scratch (FinderStats::regroups) or could edit them.

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Expects \p got to equal \p want bit for bit.
void expect_same_result(const std::optional<CriticalPathResult>& got,
                        const std::optional<CriticalPathResult>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want) return;
  EXPECT_EQ(got->nodes, want->nodes);
  EXPECT_TRUE(same_bits(got->ratio, want->ratio)) << got->ratio << " vs " << want->ratio;
  EXPECT_TRUE(same_bits(got->window_start, want->window_start));
  EXPECT_TRUE(same_bits(got->window_end, want->window_end));
  EXPECT_TRUE(same_bits(got->eval.window, want->eval.window));
  EXPECT_TRUE(same_bits(got->eval.sum_virtual, want->eval.sum_virtual));
  EXPECT_EQ(got->eval.effective_hops, want->eval.effective_hops);
}

/// One long-lived finder of each kind on \p g under PURE+CCNE.
struct LongLived {
  const TaskGraph& g;
  PureMetric metric;
  CcneEstimator ccne;
  std::vector<NodeId> order;
  std::optional<CriticalPathFinder> fast;
  std::optional<CriticalPathFinderRef> kept;
  bool regrouped = false;  ///< The last find() formed its groups from scratch.

  explicit LongLived(const TaskGraph& graph) : g(graph) {
    metric.prepare(g);
    order = validate_structure(g).order;
    fast.emplace(g, order, metric, ccne);
    kept.emplace(g, order, metric, ccne);
  }

  /// Both finders' answer to \p state, checked against a fresh reference.
  std::optional<CriticalPathResult> find(const ResidualState& state) {
    CriticalPathFinderRef fresh(g, order, metric, ccne);
    const auto want = fresh.find(state);
    const std::uint64_t groups = fast->stats().lb_groups;
    const std::uint64_t regroups = fast->stats().regroups;
    const auto got = fast->find(state);
    EXPECT_EQ(fast->stats().lb_groups - groups, fresh.stats().lb_groups);
    regrouped = fast->stats().regroups != regroups;
    {
      SCOPED_TRACE("CriticalPathFinder");
      expect_same_result(got, want);
    }
    {
      SCOPED_TRACE("long-lived CriticalPathFinderRef");
      expect_same_result(kept->find(state), want);
    }
    return got;
  }
};

/// \p count sources (exec times from \p costs, in id and topological order),
/// each feeding the sink z, window ub(z) = 100.
struct FanIn {
  TaskGraph g;
  std::vector<NodeId> src;
  std::vector<NodeId> msg;  ///< src[i] -> z
  NodeId z;

  explicit FanIn(const std::vector<double>& costs) {
    for (std::size_t i = 0; i < costs.size(); ++i) {
      src.push_back(g.add_subtask("s" + std::to_string(i), costs[i]));
    }
    z = g.add_subtask("z", 10.0);
    for (const NodeId s : src) msg.push_back(g.add_precedence(s, z, 0.0));
  }

  ResidualState state(const std::vector<double>& lbs) const {
    ResidualState st(g.node_count());
    for (std::size_t i = 0; i < src.size(); ++i) {
      st.set_lb(src[i], lbs[i]);
      st.set_lb(msg[i], lbs[i]);
    }
    st.set_lb(z, 0.0);
    st.set_ub(z, 100.0);
    return st;
  }

  /// Assigns source i with its message, so that z stays the only sink.
  void retire(ResidualState& st, std::size_t i) const {
    st.assign(src[i]);
    st.assign(msg[i]);
  }
};

TEST(FinderLog, LbEditOfALiveSourceRegroups) {
  FanIn f({10.0, 20.0, 30.0, 15.0});
  LongLived run(f.g);
  ResidualState st = f.state({0.0, 10.0, 20.0, 30.0});
  run.find(st);
  EXPECT_TRUE(run.regrouped);  // the first find() on a state
  st.set_lb(f.src[1], 0.0);  // s1 moves into s0's group
  run.find(st);
  EXPECT_TRUE(run.regrouped);
  st.set_lb(f.src[0], 20.0);  // the founder moves into s2's group
  run.find(st);
  EXPECT_TRUE(run.regrouped);
  st.set_lb(f.src[2], 5.0);  // edited, then leaves in the same batch
  f.retire(st, 2);
  run.find(st);
  EXPECT_TRUE(run.regrouped);
  st.raise_lb(f.src[3], 40.0);
  st.lower_ub(f.z, 90.0);
  run.find(st);
  EXPECT_TRUE(run.regrouped);
  f.retire(st, 3);  // a plain leave edits the groups
  run.find(st);
  EXPECT_FALSE(run.regrouped);
}

TEST(FinderLog, JoiningSourceWithAnInfiniteLb) {
  // s0 gates j; once s0 is assigned, j (through its message) joins with an
  // infinite lb.  time_eq(∞, ∞) is false, so its group has no members and
  // no path starts at j.
  TaskGraph g;
  const NodeId s0 = g.add_subtask("s0", 10.0);
  const NodeId j = g.add_subtask("j", 10.0);
  const NodeId m = g.add_precedence(s0, j, 0.0);
  const NodeId s1 = g.add_subtask("s1", 20.0);
  const NodeId z = g.add_subtask("z", 10.0);
  g.add_precedence(j, z, 0.0);
  g.add_precedence(s1, z, 0.0);
  LongLived run(g);
  ResidualState st(g.node_count());
  for (const NodeId id : g.all_nodes()) st.set_lb(id, 0.0);
  st.set_ub(z, 100.0);
  run.find(st);
  st.set_lb(m, kInfiniteTime);
  st.set_lb(j, kInfiniteTime);
  st.assign(s0);  // m joins with lb +∞
  run.find(st);
  EXPECT_TRUE(run.regrouped);
  st.assign(m);  // j replaces it
  const auto path = run.find(st);
  EXPECT_TRUE(run.regrouped);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes.front(), s1);
  st.assign(j);
  run.find(st);
  EXPECT_TRUE(run.regrouped);  // an empty group never lies apart
}

TEST(FinderLog, JoiningSourceNearASecondGroup) {
  // s0 and s1 found groups at lb 0 and 3.5e-9 (apart: more than
  // 3·kTimeEps).  Gates g0..g4 (lb 0, in s0's group) each hold back one
  // joiner: once its gate and message are assigned, the joiner joins.
  TaskGraph g;
  const NodeId s0 = g.add_subtask("s0", 20.0);
  const NodeId s1 = g.add_subtask("s1", 30.0);
  std::vector<NodeId> gate;
  std::vector<NodeId> joiner;
  std::vector<NodeId> link;
  for (int i = 0; i < 5; ++i) {
    gate.push_back(g.add_subtask("g" + std::to_string(i), 5.0));
    joiner.push_back(g.add_subtask("j" + std::to_string(i), 10.0 + 5 * i));
    link.push_back(g.add_precedence(gate.back(), joiner.back(), 0.0));
  }
  const NodeId z = g.add_subtask("z", 10.0);
  for (const NodeId id : joiner) g.add_precedence(id, z, 0.0);
  g.add_precedence(s0, z, 0.0);
  g.add_precedence(s1, z, 0.0);
  LongLived run(g);
  ResidualState st(g.node_count());
  for (const NodeId id : g.all_nodes()) st.set_lb(id, 0.0);
  st.set_lb(s1, 3.5e-9);
  // Joiner lbs: within 3·kTimeEps of both groups, time_eq to neither;
  // time_eq to s1's group, within 3·kTimeEps of s0's; within 3·kTimeEps of
  // s0's group only, not time_eq; time_eq to s1's only; apart from both.
  const double joiner_lb[] = {1.75e-9, 2.6e-9, -2.5e-9, 4.2e-9, 20.0};
  // Whether the join, and then the joiner's leave, re-form the groups.
  const bool join_regroups[] = {true, true, true, false, false};
  const bool leave_regroups[] = {true, false, true, false, false};
  for (int i = 0; i < 5; ++i) {
    st.set_lb(joiner[i], joiner_lb[i]);
    st.set_lb(link[i], joiner_lb[i]);
  }
  st.set_ub(z, 100.0);
  run.find(st);
  for (int i = 0; i < 5; ++i) {
    SCOPED_TRACE("joiner " + std::to_string(i));
    st.assign(gate[i]);
    st.assign(link[i]);
    run.find(st);
    EXPECT_EQ(run.regrouped, join_regroups[i]);
    st.assign(joiner[i]);  // its message to z joins s0's group
    run.find(st);
    EXPECT_EQ(run.regrouped, leave_regroups[i]);
  }
}

TEST(FinderLog, FounderLeavesWithTheSameLb) {
  // s0 and s2 share lb 0; s1 holds lb 10.  Groups in founder order:
  // {s0, s2}, {s1}.  s2 -> z ties s1 -> z at R = 30, so the first group
  // wins; once s0 leaves, s2 founds its group after s1's, and s1 wins.
  FanIn f({10.0, 20.0, 30.0});
  LongLived run(f.g);
  ResidualState st = f.state({0.0, 10.0, 0.0});
  const auto before = run.find(st);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->nodes.front(), f.src[2]);
  f.retire(st, 0);
  const auto after = run.find(st);
  EXPECT_FALSE(run.regrouped);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->nodes.front(), f.src[1]);
}

TEST(FinderLog, FounderLeavesWithADifferentLb) {
  // {s0, s1, s2} share s0's group (lbs 0, 0.5e-9, −0.6e-9); s3 is apart at
  // 5e-9.  Once s0 leaves, s1 founds a group at 0.5e-9 that no longer
  // holds s2 (1.1e-9 away).
  FanIn f({10.0, 20.0, 40.0, 30.0});
  LongLived run(f.g);
  ResidualState st = f.state({0.0, 0.5e-9, -0.6e-9, 5e-9});
  run.find(st);
  f.retire(st, 0);
  run.find(st);
  EXPECT_TRUE(run.regrouped);
  f.retire(st, 1);  // s1's and s2's groups overlap
  run.find(st);
  EXPECT_TRUE(run.regrouped);
}

TEST(FinderLog, JoiningSourcePreemptsAFounder) {
  // g gates m (g -> m -> j), and m comes before s in topological order,
  // so m, joining, would found any group it shares with s.
  for (const double m_lb : {0.0, 0.5e-9}) {
    SCOPED_TRACE("joiner lb " + std::to_string(m_lb * 1e9) + "e-9");
    TaskGraph g;
    const NodeId gate = g.add_subtask("g", 10.0);
    const NodeId j = g.add_subtask("j", 10.0);
    const NodeId m = g.add_precedence(gate, j, 0.0);
    const NodeId s = g.add_subtask("s", 10.0);
    const NodeId t = g.add_subtask("t", 25.0);
    const NodeId z = g.add_subtask("z", 10.0);
    g.add_precedence(j, z, 0.0);
    g.add_precedence(s, z, 0.0);
    g.add_precedence(t, z, 0.0);
    LongLived run(g);
    ResidualState st(g.node_count());
    for (const NodeId id : g.all_nodes()) st.set_lb(id, 0.0);
    st.set_lb(gate, 50.0);
    st.set_lb(m, m_lb);
    st.set_lb(j, m_lb);
    st.set_lb(t, 20.0);
    st.set_ub(z, 100.0);
    const bool same = m_lb == 0.0;
    run.find(st);
    st.assign(gate);  // m joins ahead of s
    run.find(st);
    EXPECT_EQ(run.regrouped, !same);
    st.assign(m);  // j replaces m
    run.find(st);
    EXPECT_EQ(run.regrouped, !same);
    st.assign(s);
    run.find(st);
    EXPECT_FALSE(run.regrouped);
  }
}

TEST(FinderLog, UnassignAfterIncrementalFinds) {
  FanIn f({10.0, 20.0, 30.0, 15.0});
  LongLived run(f.g);
  ResidualState st = f.state({0.0, 10.0, 0.0, 10.0});
  run.find(st);
  f.retire(st, 1);
  run.find(st);
  f.retire(st, 2);
  run.find(st);
  EXPECT_FALSE(run.regrouped);
  st.unassign(f.msg[1]);
  st.unassign(f.src[1]);
  run.find(st);
  EXPECT_TRUE(run.regrouped);
  st.set_ub(f.z, 200.0);
  run.find(st);
  EXPECT_FALSE(run.regrouped);
}

TEST(FinderLog, OneFinderAlternatesBetweenTwoStates) {
  FanIn f({10.0, 20.0, 30.0, 15.0});
  LongLived run(f.g);
  ResidualState one = f.state({0.0, 10.0, 0.0, 10.0});
  ResidualState two = f.state({5.0, 5.0, 20.0, 0.0});
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE("round " + std::to_string(i));
    run.find(one);
    EXPECT_TRUE(run.regrouped);
    run.find(two);
    EXPECT_TRUE(run.regrouped);
    f.retire(one, i);
    f.retire(two, 3 - i);
    two.lower_ub(f.z, 100.0 - 10.0 * static_cast<double>(i));
  }
  run.find(one);
  run.find(two);
  // A third state, edited as `one` was except for s0.
  ResidualState other = f.state({0.0, 10.0, 0.0, 10.0});
  for (std::size_t i = 1; i < 4; ++i) f.retire(other, i);
  run.find(other);
  EXPECT_TRUE(run.regrouped);
  run.find(one);
  EXPECT_TRUE(run.regrouped);
  // A moved state keeps its serial and its log.
  ResidualState moved = std::move(one);
  run.find(moved);
  EXPECT_FALSE(run.regrouped);
}

TEST(FinderLog, OneFinderMovesBetweenThreads) {
  // The scratch of the first thread still holds this finder's groups from
  // its first find(); after a find() on another thread they are stale.
  FanIn f({10.0, 20.0, 30.0, 15.0});
  LongLived run(f.g);
  ResidualState st = f.state({0.0, 10.0, 0.0, 10.0});
  run.find(st);
  f.retire(st, 0);
  std::thread([&] { run.find(st); }).join();
  f.retire(st, 2);
  run.find(st);
  EXPECT_TRUE(run.regrouped);
}

TEST(FinderLog, TwoFindersInterleavedOnOneThread) {
  // Both finders share the thread's scratch: each find() by one takes it
  // from the other.
  FanIn f({10.0, 20.0, 30.0, 15.0});
  LongLived first(f.g);
  LongLived second(f.g);
  ResidualState one = f.state({0.0, 10.0, 0.0, 10.0});
  ResidualState two = f.state({5.0, 5.0, 20.0, 0.0});
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE("round " + std::to_string(i));
    first.find(one);
    EXPECT_EQ(first.regrouped, i == 0);  // it took the scratch back last
    second.find(two);
    EXPECT_TRUE(second.regrouped);
    second.find(two);
    EXPECT_FALSE(second.regrouped);
    first.find(one);
    EXPECT_TRUE(first.regrouped);
    f.retire(one, i);
    f.retire(two, 3 - i);
  }
  first.find(one);
  second.find(two);
}

}  // namespace
}  // namespace feast
