/// \file test_dist_differential.cpp
/// \brief Differential tests of the sparse critical-path finder against the
///        retained reference, and the distributor's exact work counters.
///
/// The heavy harness (`feastc diffdist`, ≥500 trials) runs in CI; this is
/// the ctest slice — enough randomized graphs to catch a contract
/// regression in a local edit-compile-test loop, plus directed cases for
/// the sparse finder's special paths (lb groups that share a source, the
/// thread-local scratch across graph sizes) and the dist.* counters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/comm_estimator.hpp"
#include "core/diffdist.hpp"
#include "core/metrics.hpp"
#include "core/slicing.hpp"
#include "obs/obs.hpp"
#include "taskgraph/generator.hpp"
#include "util/rng.hpp"

namespace feast {
namespace {

TEST(DiffDist, QuickRandomizedGraphsAgreeOnAllCombos) {
  DiffDistConfig config;
  config.seed = 20261017;
  config.trials = 80;
  config.quick = true;
  const DiffDistResult result = run_diffdist(config);
  EXPECT_EQ(result.trials, 80);
  EXPECT_EQ(result.combos, 16);
  // One reference run and one sparse run per combo.
  EXPECT_EQ(result.distributions, 80LL * 16 * 2);
  EXPECT_EQ(result.mismatches, 0) << result.first_problem;
  // The slice must reach the overload branches of the slicing loop.
  EXPECT_GT(result.overloaded, 0);
  EXPECT_GT(result.inverted, 0);
}

TEST(DiffDist, PaperSizedGraphsAgree) {
  DiffDistConfig config;
  config.seed = 97;
  config.trials = 8;  // full-size graphs, all 16 combos each
  const DiffDistResult result = run_diffdist(config);
  EXPECT_TRUE(result.ok()) << result.first_problem;
}

TEST(DiffDist, SourceSharedByTwoLbGroupsAgrees) {
  // time_eq is not transitive: lbs 0, 0.8e-9 and 1.6e-9 form two groups
  // (0 and 1.6e-9), and the middle source belongs to both.  Both finders
  // must seed it into both sweeps and break the resulting ties alike.
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 10.0);
  const NodeId b = g.add_subtask("b", 10.0);
  const NodeId c = g.add_subtask("c", 10.0);
  const NodeId j = g.add_subtask("j", 10.0);
  const NodeId z = g.add_subtask("z", 10.0);
  g.add_precedence(a, j, 1.0);
  g.add_precedence(b, j, 1.0);
  g.add_precedence(c, j, 1.0);
  g.add_precedence(j, z, 1.0);
  g.add_precedence(c, z, 1.0);
  g.set_boundary_release(a, 0.0);
  g.set_boundary_release(b, 0.8e-9);
  g.set_boundary_release(c, 1.6e-9);
  g.set_boundary_deadline(z, 60.0);

  for (const bool ccaa : {false, true}) {
    for (const auto& metric : {make_pure(), make_norm()}) {
      const auto estimator = ccaa ? make_ccaa() : make_ccne();
      const DeadlineAssignment ref = distribute_deadlines_ref(g, *metric, *estimator);
      const DeadlineAssignment fast = distribute_deadlines(g, *metric, *estimator);
      const auto why = assignment_difference(g, ref, fast);
      EXPECT_FALSE(why.has_value()) << metric->name() << ": " << *why;
    }
  }
}

TEST(DiffDist, ThreadScratchCarriesNoStateAcrossSizes) {
  // Large, small, large again on one thread: the sparse finder's reused
  // DP tables must give what a fresh reference run gives each time.
  Pcg32 rng(42);
  RandomGraphConfig big;
  big.min_subtasks = 90;
  big.max_subtasks = 110;
  RandomGraphConfig small;
  small.min_subtasks = 4;
  small.max_subtasks = 6;
  small.min_depth = 2;
  small.max_depth = 3;
  const TaskGraph g_big = generate_random_graph(big, rng);
  const TaskGraph g_small = generate_random_graph(small, rng);
  const auto metric = make_pure();
  const auto estimator = make_ccaa();
  for (const TaskGraph* g : {&g_big, &g_small, &g_big, &g_small}) {
    const DeadlineAssignment ref = distribute_deadlines_ref(*g, *metric, *estimator);
    const DeadlineAssignment fast = distribute_deadlines(*g, *metric, *estimator);
    const auto why = assignment_difference(*g, ref, fast);
    EXPECT_FALSE(why.has_value()) << *why;
  }
}

TEST(DiffDist, AssignmentDifferenceNamesTheFirstDivergence) {
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 10.0);
  g.set_boundary_release(a, 0.0);
  g.set_boundary_deadline(a, 50.0);
  const auto metric = make_pure();
  const auto estimator = make_ccne();
  const DeadlineAssignment base = distribute_deadlines(g, *metric, *estimator);
  EXPECT_FALSE(assignment_difference(g, base, base).has_value());

  DeadlineAssignment shifted(g);
  shifted.assign(a, 0.0, base.rel_deadline(a) + 1e-12, 0);
  const auto why = assignment_difference(g, base, shifted);
  ASSERT_TRUE(why.has_value());
  EXPECT_NE(why->find("window of node 0"), std::string::npos) << *why;
}

/// dist.* counter totals of distributing \p graphs under PURE+CCAA and
/// NORM+CCNE, with the reference finder when \p ref.
struct DistTotals {
  std::uint64_t iterations = 0;
  std::uint64_t lb_groups = 0;
  std::uint64_t dp_cells = 0;
  std::uint64_t regroups = 0;
};

DistTotals count_distributions(const std::vector<TaskGraph>& graphs, bool ref) {
  obs::Sink sink;
  {
    obs::ScopedSink scope(sink);
    for (const TaskGraph& g : graphs) {
      const auto pure = make_pure();
      const auto norm = make_norm();
      const auto ccaa = make_ccaa();
      const auto ccne = make_ccne();
      if (ref) {
        distribute_deadlines_ref(g, *pure, *ccaa);
        distribute_deadlines_ref(g, *norm, *ccne);
      } else {
        distribute_deadlines(g, *pure, *ccaa);
        distribute_deadlines(g, *norm, *ccne);
      }
    }
  }
  const obs::Report report = sink.report();
  return {report.counter_value(obs::Counter::DistIterations),
          report.counter_value(obs::Counter::DistLbGroups),
          report.counter_value(obs::Counter::DistDpCells),
          report.counter_value(obs::Counter::DistRegroups)};
}

TEST(DistCounters, ExactTotalsOnAFixedSeed) {
  // Eight paper-sized graphs (MDET, OLR 1.5, CCR 1) from a fixed seed.
  // dist.iterations and dist.lb_groups are properties of the algorithm,
  // not of the finder or the machine, so they are pinned exactly and must
  // match between the finders; dist.dp_cells is the sparse finder's
  // saving and must stay far below the dense reference's.
  Pcg32 rng(seed_for(2026, {0xD157}));
  std::vector<TaskGraph> graphs;
  for (int i = 0; i < 8; ++i) graphs.push_back(generate_random_graph({}, rng));

  const DistTotals fast = count_distributions(graphs, false);
  const DistTotals ref = count_distributions(graphs, true);
  EXPECT_EQ(fast.iterations, 838u);
  EXPECT_EQ(fast.lb_groups, 6011u);
  EXPECT_EQ(ref.iterations, fast.iterations);
  EXPECT_EQ(ref.lb_groups, fast.lb_groups);
  EXPECT_GT(fast.dp_cells, 0u);
  // Measured: 21207 sparse cells against 17618317 dense ones.
  EXPECT_LT(fast.dp_cells * 100, ref.dp_cells)
      << "sparse " << fast.dp_cells << " vs dense " << ref.dp_cells;
  // dist.regroups: 16 distributions each form their groups from scratch on
  // their first find(), and 6 finds fall back to it.  The reference does
  // on every find(): one per iteration and the last, empty one.
  EXPECT_EQ(fast.regroups, 22u);
  EXPECT_EQ(ref.regroups, ref.iterations + 16);
}

}  // namespace
}  // namespace feast
