/// \file test_prop_exactness.cpp
/// \brief The critical-path search is exact, not a heuristic: a brute-force
///        enumeration of every maximal residual path agrees with find() at
///        every iteration of a full distribution.
///
/// For each small random graph (about 20 nodes, subtasks plus messages)
/// and each metric × estimator pair, the property replays the distribution
/// iteration by iteration.  Before each slice it enumerates all maximal
/// paths of the residual graph (residual source → residual sink over
/// unassigned arcs), scores each with slice_ratio — Σv summed in path
/// order, exactly as the DP does — and requires that find() returns a
/// path of minimum R, that the returned path is one of the enumerated
/// maximal paths with the R it reports, and that it is the path the
/// distributor sliced.  Failures arrive shrunk to a minimal graph by the
/// src/check/prop engine.
///
/// The one documented exception (path_finder.hpp): under NORM, a residual
/// path whose window is inverted (W < 0) has R = W/Σv − 1, which *grows*
/// with Σv, so the max-Σv DP need not find it.  Such candidates are
/// excluded from the minimum for NORM only;
/// NormInvertedWindowIsOutsideTheClaim pins the behaviour on a hand-built
/// residual state.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>

#include "check/prop.hpp"
#include "core/comm_estimator.hpp"
#include "core/metrics.hpp"
#include "core/path_finder.hpp"
#include "core/slicing.hpp"
#include "taskgraph/validate.hpp"

namespace feast::check {
namespace {

/// One enumerated maximal residual path.
struct Candidate {
  std::vector<NodeId> nodes;
  PathEvaluation eval;
  double ratio = 0.0;
};

/// Every maximal path of the residual graph of \p state, scored under
/// \p share with the finder's effective and virtual costs.
std::vector<Candidate> enumerate_paths(const TaskGraph& graph,
                                       const CriticalPathFinder& finder,
                                       const ResidualState& state, SlackShare share) {
  std::vector<Candidate> out;
  std::vector<NodeId> stack;
  auto residual = [&](NodeId id) { return !state.assigned(id); };
  auto dfs = [&](auto&& self, NodeId id, Time sum, int hops) -> void {
    stack.push_back(id);
    bool sink = true;
    for (const NodeId succ : graph.succs(id)) {
      if (!residual(succ)) continue;
      sink = false;
      self(self, succ, sum + finder.virtual_cost(succ),
           hops + (finder.effective_cost(succ) > kNegligibleCost ? 1 : 0));
    }
    if (sink) {
      Candidate c;
      c.nodes = stack;
      c.eval.window = state.ub(id) - state.lb(stack.front());
      c.eval.sum_virtual = sum;
      c.eval.effective_hops = hops;
      c.ratio = slice_ratio(c.eval, share);
      out.push_back(std::move(c));
    }
    stack.pop_back();
  };
  for (const NodeId id : graph.all_nodes()) {
    if (!residual(id)) continue;
    bool source = true;
    for (const NodeId pred : graph.preds(id)) source = source && !residual(pred);
    if (!source) continue;
    dfs(dfs, id, finder.virtual_cost(id),
        finder.effective_cost(id) > kNegligibleCost ? 1 : 0);
  }
  return out;
}

/// Ratios equal up to the lb-group merge: sources whose lb agree within
/// kTimeEps share one window start in the DP.
bool ratio_close(double a, double b) {
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return std::fabs(a - b) <= 1e-6 * std::max(1.0, std::fabs(b));
}

/// Replays one distribution and checks find() against the enumeration at
/// every iteration.
std::optional<std::string> check_exact(const TaskGraph& graph, SliceMetric& metric,
                                       const CommCostEstimator& estimator) {
  const DeadlineAssignment assignment = distribute_deadlines(graph, metric, estimator);
  metric.prepare(graph);
  CriticalPathFinder finder(graph, validate_structure(graph).order, metric, estimator);
  const SlackShare share = metric.share();

  ResidualState state(graph.node_count());
  for (const NodeId id : graph.inputs()) {
    state.set_lb(id, graph.node(id).boundary_release);
  }
  for (const NodeId id : graph.outputs()) {
    state.set_ub(id, graph.node(id).boundary_deadline);
  }

  for (const SlicedPath& sliced : assignment.paths()) {
    std::ostringstream os;
    os.precision(17);
    os << metric.name() << "+" << estimator.name() << ", iteration " << sliced.iteration
       << ": ";
    const auto found = finder.find(state);
    if (!found) return os.str() + "find() returned nothing on a non-empty residual graph";
    if (found->nodes != sliced.nodes) {
      return os.str() + "find() disagrees with the path the distributor sliced";
    }

    const std::vector<Candidate> candidates =
        enumerate_paths(graph, finder, state, share);
    const Candidate* best = nullptr;
    const Candidate* same = nullptr;
    for (const Candidate& c : candidates) {
      if (c.nodes == found->nodes) same = &c;
      if (share == SlackShare::ProportionalToCost && c.eval.window < 0.0) continue;
      if (best == nullptr || c.ratio < best->ratio) best = &c;
    }
    if (same == nullptr) {
      return os.str() + "find() returned a path that is not a maximal residual path";
    }
    if (!ratio_close(same->ratio, found->ratio) ||
        same->eval.effective_hops != found->eval.effective_hops ||
        same->eval.sum_virtual != found->eval.sum_virtual) {
      os << "find() reports R=" << found->ratio << " (Σv " << found->eval.sum_virtual
         << ", " << found->eval.effective_hops << " hops) for a path whose R is "
         << same->ratio << " (Σv " << same->eval.sum_virtual << ", "
         << same->eval.effective_hops << " hops)";
      return os.str();
    }
    if (best != nullptr && best->ratio < found->ratio &&
        !ratio_close(best->ratio, found->ratio)) {
      os << "find() returned R=" << found->ratio << " but a " << best->nodes.size()
         << "-node maximal path has R=" << best->ratio << " (window "
         << best->eval.window << ", Σv " << best->eval.sum_virtual << ", "
         << best->eval.effective_hops << " hops) among " << candidates.size()
         << " candidates";
      return os.str();
    }

    // Attach the slice exactly as the distributor does.
    for (const NodeId id : sliced.nodes) state.assign(id);
    for (const NodeId id : sliced.nodes) {
      for (const NodeId succ : graph.succs(id)) {
        if (!state.assigned(succ)) state.raise_lb(succ, assignment.abs_deadline(id));
      }
      for (const NodeId pred : graph.preds(id)) {
        if (!state.assigned(pred)) state.lower_ub(pred, assignment.release(id));
      }
    }
  }
  if (finder.find(state).has_value()) {
    return std::string("residual left after the last slice");
  }
  return std::nullopt;
}

/// Small graphs (about 20 nodes) with OLRs down to heavy overload, so
/// overloaded and inverted windows come up.
RandomGraphConfig small_config(std::uint64_t seed) {
  Pcg32 rng(seed);
  RandomGraphConfig config = gen_graph_config(rng);
  config.min_subtasks = rng.uniform_int(2, 5);
  config.max_subtasks = config.min_subtasks + rng.uniform_int(0, 4);
  config.max_degree = std::min(config.max_degree, 2);
  config.olr = rng.uniform_real(0.3, 3.0);
  return config;
}

void expect_exact(const std::function<std::unique_ptr<SliceMetric>()>& make_metric,
                  const std::string& label, std::uint64_t seed_base) {
  for (const bool ccaa : {false, true}) {
    ForallOptions options;
    options.seed_base = seed_base + (ccaa ? 500 : 0);
    options.cases = 400;
    options.label = "exactness-" + label + (ccaa ? "-ccaa" : "-ccne");
    const auto estimator = ccaa ? make_ccaa() : make_ccne();
    const ForallReport report = forall_graphs(
        small_config(options.seed_base), options, [&](const TaskGraph& graph) {
          const auto metric = make_metric();
          return check_exact(graph, *metric, *estimator);
        });
    EXPECT_TRUE(report.ok()) << report.describe();
  }
}

TEST(PropExactness, PureFindsTheMinimumRatioPath) {
  expect_exact([] { return make_pure(); }, "pure", 7100);
}

TEST(PropExactness, NormFindsTheMinimumRatioPathOverNonInvertedWindows) {
  expect_exact([] { return make_norm(); }, "norm", 7200);
}

TEST(PropExactness, NormInvertedWindowIsOutsideTheClaim) {
  // s -> {x, y} -> t with lb(s) = 50 > ub(t) = 40: both paths have 3 hops
  // and W = -10.  NORM's R = W/Σv - 1 is then *lower* for the lighter path
  // (Σv 30: R = -4/3) than for the heavier one (Σv 40: R = -5/4), and the
  // max-Σv search returns the heavier.  Both finders agree on it.
  TaskGraph g;
  const NodeId s = g.add_subtask("s", 10.0);
  const NodeId x = g.add_subtask("x", 10.0);
  const NodeId y = g.add_subtask("y", 20.0);
  const NodeId t = g.add_subtask("t", 10.0);
  g.add_precedence(s, x, 0.0);
  g.add_precedence(s, y, 0.0);
  g.add_precedence(x, t, 0.0);
  g.add_precedence(y, t, 0.0);
  g.set_boundary_release(s, 0.0);
  g.set_boundary_deadline(t, 100.0);
  ResidualState state(g.node_count());
  state.set_lb(s, 50.0);
  state.set_ub(t, 40.0);

  NormMetric metric;
  metric.prepare(g);
  CcneEstimator ccne;
  CriticalPathFinder finder(g, validate_structure(g).order, metric, ccne);
  CriticalPathFinderRef ref(g, validate_structure(g).order, metric, ccne);
  const auto found = finder.find(state);
  const auto oracle = ref.find(state);
  ASSERT_TRUE(found && oracle);
  EXPECT_EQ(found->nodes, oracle->nodes);
  EXPECT_DOUBLE_EQ(found->ratio, -10.0 / 40.0 - 1.0);

  double min_ratio = kInfiniteTime;
  for (const Candidate& c :
       enumerate_paths(g, finder, state, SlackShare::ProportionalToCost)) {
    min_ratio = std::min(min_ratio, c.ratio);
  }
  EXPECT_DOUBLE_EQ(min_ratio, -10.0 / 30.0 - 1.0);
}

TEST(PropExactness, ThresFindsTheMinimumRatioPath) {
  expect_exact([] { return make_thres(1.0, 1.25); }, "thres", 7300);
  expect_exact([] { return make_thres(0.0, 1.0); }, "thres0", 7400);
}

TEST(PropExactness, AdaptFindsTheMinimumRatioPath) {
  expect_exact([] { return make_adapt(3, 1.25); }, "adapt", 7500);
}

TEST(PropExactness, EnumeratorSeesEveryMaximalPath) {
  // The diamond a -> {b, c} -> d has exactly two maximal paths; with
  // messages it still has two (comm nodes lie on them).
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 10.0);
  const NodeId b = g.add_subtask("b", 10.0);
  const NodeId c = g.add_subtask("c", 20.0);
  const NodeId d = g.add_subtask("d", 10.0);
  g.add_precedence(a, b, 2.0);
  g.add_precedence(a, c, 2.0);
  g.add_precedence(b, d, 2.0);
  g.add_precedence(c, d, 2.0);
  g.set_boundary_release(a, 0.0);
  g.set_boundary_deadline(d, 100.0);
  PureMetric metric;
  metric.prepare(g);
  CcaaEstimator ccaa;
  CriticalPathFinder finder(g, validate_structure(g).order, metric, ccaa);
  ResidualState state(g.node_count());
  state.set_lb(a, 0.0);
  state.set_ub(d, 100.0);
  const auto paths = enumerate_paths(g, finder, state, SlackShare::PerEffectiveHop);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].nodes.size(), 5u);
  EXPECT_EQ(paths[0].eval.effective_hops, 5);
  EXPECT_DOUBLE_EQ(paths[0].eval.sum_virtual, 34.0);
  EXPECT_DOUBLE_EQ(paths[1].eval.sum_virtual, 44.0);
  EXPECT_EQ(check_exact(g, metric, ccaa), std::nullopt);
}

}  // namespace
}  // namespace feast::check
