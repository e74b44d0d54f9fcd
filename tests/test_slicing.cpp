/// \file test_slicing.cpp
/// \brief Tests for the deadline-distribution algorithm of Figure 1: exact
///        hand-computed windows on small graphs, plus property sweeps over
///        random graphs × metrics × estimators.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/distribution_validate.hpp"
#include "core/metrics.hpp"
#include "core/slicing.hpp"
#include "taskgraph/generator.hpp"
#include "util/rng.hpp"

namespace feast {
namespace {

/// a(10) -> b(20) -> c(30), window [0, 120], messages of 5 items each.
struct Chain {
  TaskGraph g;
  NodeId a, b, c, ab, bc;

  explicit Chain(Time deadline = 120.0, double msg = 5.0) {
    a = g.add_subtask("a", 10.0);
    b = g.add_subtask("b", 20.0);
    c = g.add_subtask("c", 30.0);
    ab = g.add_precedence(a, b, msg);
    bc = g.add_precedence(b, c, msg);
    g.set_boundary_release(a, 0.0);
    g.set_boundary_deadline(c, deadline);
  }
};

TEST(Slicing, PureCcneChainWindows) {
  Chain f;
  auto metric = make_pure();
  const auto ccne = make_ccne();
  const DeadlineAssignment asg = distribute_deadlines(f.g, *metric, *ccne);

  // R = (120 - 60) / 3 = 20; slices a[0,30], b[30,70], c[70,120].
  EXPECT_DOUBLE_EQ(asg.release(f.a), 0.0);
  EXPECT_DOUBLE_EQ(asg.rel_deadline(f.a), 30.0);
  EXPECT_DOUBLE_EQ(asg.release(f.b), 30.0);
  EXPECT_DOUBLE_EQ(asg.rel_deadline(f.b), 40.0);
  EXPECT_DOUBLE_EQ(asg.release(f.c), 70.0);
  EXPECT_DOUBLE_EQ(asg.abs_deadline(f.c), 120.0);

  // Communication subtasks get zero-width windows at the producer deadline.
  EXPECT_DOUBLE_EQ(asg.release(f.ab), 30.0);
  EXPECT_DOUBLE_EQ(asg.rel_deadline(f.ab), 0.0);
  EXPECT_DOUBLE_EQ(asg.release(f.bc), 70.0);
  EXPECT_DOUBLE_EQ(asg.rel_deadline(f.bc), 0.0);

  // One iteration slices the whole chain.
  ASSERT_EQ(asg.paths().size(), 1u);
  EXPECT_NEAR(asg.paths()[0].ratio, 20.0, 1e-9);
  EXPECT_EQ(asg.paths()[0].nodes.size(), 5u);
}

TEST(Slicing, NormCcneChainWindows) {
  Chain f;
  auto metric = make_norm();
  const auto ccne = make_ccne();
  const DeadlineAssignment asg = distribute_deadlines(f.g, *metric, *ccne);

  // R = (120 - 60)/60 = 1; d_i = 2 c_i: a[0,20], b[20,60], c[60,120].
  EXPECT_DOUBLE_EQ(asg.rel_deadline(f.a), 20.0);
  EXPECT_DOUBLE_EQ(asg.rel_deadline(f.b), 40.0);
  EXPECT_DOUBLE_EQ(asg.rel_deadline(f.c), 60.0);
  EXPECT_DOUBLE_EQ(asg.release(f.c), 60.0);
}

TEST(Slicing, PureCcaaChainGivesMessagesWindows) {
  Chain f;  // messages of 5 items, unit bus rate
  auto metric = make_pure();
  const auto ccaa = make_ccaa();
  const DeadlineAssignment asg = distribute_deadlines(f.g, *metric, *ccaa);

  // Effective path: 10 + 5 + 20 + 5 + 30 = 70 over 5 hops; R = 10.
  // Slices: a[0,20], ab[20,35], b[35,65], bc[65,80], c[80,120].
  EXPECT_DOUBLE_EQ(asg.rel_deadline(f.a), 20.0);
  EXPECT_DOUBLE_EQ(asg.release(f.ab), 20.0);
  EXPECT_DOUBLE_EQ(asg.rel_deadline(f.ab), 15.0);
  EXPECT_DOUBLE_EQ(asg.release(f.b), 35.0);
  EXPECT_DOUBLE_EQ(asg.rel_deadline(f.b), 30.0);
  EXPECT_DOUBLE_EQ(asg.release(f.bc), 65.0);
  EXPECT_DOUBLE_EQ(asg.rel_deadline(f.bc), 15.0);
  EXPECT_DOUBLE_EQ(asg.abs_deadline(f.c), 120.0);
}

TEST(Slicing, ZeroSizeMessageIsNegligibleEvenUnderCcaa) {
  Chain f(120.0, /*msg=*/0.0);
  auto metric = make_pure();
  const auto ccaa = make_ccaa();
  const DeadlineAssignment asg = distribute_deadlines(f.g, *metric, *ccaa);
  EXPECT_DOUBLE_EQ(asg.rel_deadline(f.ab), 0.0);
  EXPECT_NEAR(asg.paths()[0].ratio, 20.0, 1e-9);  // same as CCNE
}

TEST(Slicing, SecondPathAttachesToSpine) {
  // a(10) -> {b(10), c(50)} -> out(10), window [0, 100].
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 10.0);
  const NodeId b = g.add_subtask("b", 10.0);
  const NodeId c = g.add_subtask("c", 50.0);
  const NodeId out = g.add_subtask("out", 10.0);
  g.add_precedence(a, b, 0.0);
  g.add_precedence(a, c, 0.0);
  g.add_precedence(b, out, 0.0);
  g.add_precedence(c, out, 0.0);
  g.set_boundary_release(a, 0.0);
  g.set_boundary_deadline(out, 100.0);

  auto metric = make_pure();
  const auto ccne = make_ccne();
  const DeadlineAssignment asg = distribute_deadlines(g, *metric, *ccne);

  // Spine (iteration 0): a[0,20], c[20,80], out[80,100] with R = 10.
  EXPECT_EQ(asg.window(a).iteration, 0);
  EXPECT_EQ(asg.window(c).iteration, 0);
  EXPECT_DOUBLE_EQ(asg.abs_deadline(a), 20.0);
  EXPECT_DOUBLE_EQ(asg.abs_deadline(c), 80.0);

  // b attaches between a's deadline and out's release: [20, 80], R = 50.
  EXPECT_EQ(asg.window(b).iteration, 1);
  EXPECT_DOUBLE_EQ(asg.release(b), 20.0);
  EXPECT_DOUBLE_EQ(asg.abs_deadline(b), 80.0);

  ASSERT_EQ(asg.paths().size(), 2u);
  EXPECT_NEAR(asg.paths()[1].ratio, 50.0, 1e-9);
}

TEST(Slicing, ThresInflatesLongSubtaskShare) {
  Chain f;  // MET = 20; threshold 1.25 MET = 25: only c (30) inflates.
  auto metric = make_thres(/*surplus=*/1.0, /*threshold_factor=*/1.25);
  const auto ccne = make_ccne();
  const DeadlineAssignment asg = distribute_deadlines(f.g, *metric, *ccne);

  // Virtual costs: 10, 20, 60 => Σv = 90, R = (120-90)/3 = 10.
  // Slices: a[0,20], b[20,50], c[50,120].
  EXPECT_DOUBLE_EQ(asg.rel_deadline(f.a), 20.0);
  EXPECT_DOUBLE_EQ(asg.rel_deadline(f.b), 30.0);
  EXPECT_DOUBLE_EQ(asg.rel_deadline(f.c), 70.0);
  // c's share grew at the expense of a and b relative to PURE.
  EXPECT_GT(asg.rel_deadline(f.c), 50.0);
}

TEST(Slicing, AdaptHandComputedOnTwoBranchGraph) {
  // a(10) -> {b(10), c(30)} -> out(10); window [0, 120]; N = 2 procs.
  // Workload 60, critical path 50 => xi = 1.2, surplus = 0.6.
  // MET = 15, threshold 1.25 x MET = 18.75: only c (30) inflates.
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 10.0);
  const NodeId b = g.add_subtask("b", 10.0);
  const NodeId c = g.add_subtask("c", 30.0);
  const NodeId out = g.add_subtask("out", 10.0);
  g.add_precedence(a, b, 0.0);
  g.add_precedence(a, c, 0.0);
  g.add_precedence(b, out, 0.0);
  g.add_precedence(c, out, 0.0);
  g.set_boundary_release(a, 0.0);
  g.set_boundary_deadline(out, 120.0);

  AdaptMetric metric(/*n_procs=*/2, 1.25);
  metric.prepare(g);
  EXPECT_NEAR(metric.surplus(), 0.6, 1e-12);
  EXPECT_NEAR(metric.threshold(), 18.75, 1e-12);

  const auto ccne = make_ccne();
  const DeadlineAssignment asg = distribute_deadlines(g, metric, *ccne);

  // Critical path a-c-out: virtual costs 10, 48, 10 => Σv = 68,
  // R = (120 - 68)/3 = 52/3.  Slices: a d = 10 + 52/3, c d = 48 + 52/3,
  // out ends exactly at 120.
  const double r = 52.0 / 3.0;
  EXPECT_NEAR(asg.rel_deadline(a), 10.0 + r, 1e-9);
  EXPECT_NEAR(asg.rel_deadline(c), 48.0 + r, 1e-9);
  EXPECT_NEAR(asg.rel_deadline(out), 10.0 + r, 1e-9);
  EXPECT_NEAR(asg.abs_deadline(out), 120.0, 1e-9);
  // c received 2.4x the window PURE would have granted it (30 + 80/3).
  EXPECT_GT(asg.rel_deadline(c), 30.0 + 80.0 / 3.0);
  // b attaches inside [D_a, r_out]: its window is the leftover span.
  EXPECT_NEAR(asg.release(b), 10.0 + r, 1e-9);
  EXPECT_NEAR(asg.abs_deadline(b), 120.0 - (10.0 + r), 1e-9);
}

TEST(Slicing, OverloadedWindowCompressesProportionally) {
  Chain f(/*deadline=*/40.0);  // Σc = 60 > 40
  auto metric = make_pure();
  const auto ccne = make_ccne();
  const DeadlineAssignment asg = distribute_deadlines(f.g, *metric, *ccne);

  // Compression factor 40/60: d = {6.67, 13.33, 20}.
  EXPECT_NEAR(asg.rel_deadline(f.a), 10.0 * 40.0 / 60.0, 1e-9);
  EXPECT_NEAR(asg.rel_deadline(f.b), 20.0 * 40.0 / 60.0, 1e-9);
  EXPECT_NEAR(asg.rel_deadline(f.c), 30.0 * 40.0 / 60.0, 1e-9);
  EXPECT_NEAR(asg.abs_deadline(f.c), 40.0, 1e-9);
  require_valid(check_assignment_basic(f.g, asg));
}

TEST(Slicing, MinLaxityAndLaxity) {
  Chain f;
  auto metric = make_pure();
  const auto ccne = make_ccne();
  const DeadlineAssignment asg = distribute_deadlines(f.g, *metric, *ccne);
  EXPECT_DOUBLE_EQ(asg.laxity(f.g, f.a), 20.0);
  EXPECT_DOUBLE_EQ(asg.min_laxity(f.g), 20.0);
}

TEST(Slicing, DescribeAndAdapterName) {
  EXPECT_EQ(make_slicing_distributor(make_pure(), make_ccne())->name(), "PURE+CCNE");

  const auto adapter = make_slicing_distributor(make_norm(), make_ccaa());
  EXPECT_EQ(adapter->name(), "NORM+CCAA");
  Chain f;
  const DeadlineAssignment asg = adapter->distribute(f.g);
  EXPECT_TRUE(asg.complete());
}

TEST(Slicing, RejectsUnpreparedGraphs) {
  TaskGraph g;
  g.add_subtask("lonely", 1.0);  // no boundary timing
  auto metric = make_pure();
  const auto ccne = make_ccne();
  EXPECT_THROW(distribute_deadlines(g, *metric, *ccne), ContractViolation);
}

// ------------------------------------------------------------------ property

enum class MetricKind { Pure, Norm, Thres, Adapt };

std::unique_ptr<SliceMetric> make_metric(MetricKind kind) {
  switch (kind) {
    case MetricKind::Pure: return make_pure();
    case MetricKind::Norm: return make_norm();
    case MetricKind::Thres: return make_thres(1.0, 1.25);
    case MetricKind::Adapt: return make_adapt(4, 1.25);
  }
  return make_pure();
}

class SlicingProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, MetricKind, bool>> {};

TEST_P(SlicingProperty, RandomGraphInvariants) {
  const auto [seed, metric_kind, use_ccaa] = GetParam();
  RandomGraphConfig config;
  Pcg32 rng(seed);
  const TaskGraph g = generate_random_graph(config, rng);

  auto metric = make_metric(metric_kind);
  const auto estimator = use_ccaa
                             ? std::unique_ptr<CommCostEstimator>(make_ccaa())
                             : std::unique_ptr<CommCostEstimator>(make_ccne());
  const DeadlineAssignment asg = distribute_deadlines(g, *metric, *estimator);

  // Complete and structurally sound.
  EXPECT_TRUE(asg.complete());
  const AssignmentReport report = check_assignment_basic(g, asg);
  EXPECT_TRUE(report.ok()) << report.to_string();

  // Negligible communication nodes have zero-width windows.
  for (const NodeId comm : g.communication_nodes()) {
    const Time est = estimator->estimate(g, comm);
    if (est <= kNegligibleCost) {
      EXPECT_DOUBLE_EQ(asg.rel_deadline(comm), 0.0);
    }
  }

  // Deterministic: a second distribution is identical.
  auto metric2 = make_metric(metric_kind);
  const DeadlineAssignment again = distribute_deadlines(g, *metric2, *estimator);
  for (const NodeId id : g.all_nodes()) {
    EXPECT_DOUBLE_EQ(asg.release(id), again.release(id));
    EXPECT_DOUBLE_EQ(asg.rel_deadline(id), again.rel_deadline(id));
  }
}

TEST_P(SlicingProperty, InteriorBoundsModeIsArcMonotone) {
  const auto [seed, metric_kind, use_ccaa] = GetParam();
  RandomGraphConfig config;
  Pcg32 rng(seed);
  const TaskGraph g = generate_random_graph(config, rng);

  auto metric = make_metric(metric_kind);
  const auto estimator = use_ccaa
                             ? std::unique_ptr<CommCostEstimator>(make_ccaa())
                             : std::unique_ptr<CommCostEstimator>(make_ccne());
  SlicingOptions options;
  options.respect_interior_bounds = true;
  const DeadlineAssignment asg = distribute_deadlines(g, *metric, *estimator, options);

  EXPECT_TRUE(asg.complete());
  EXPECT_EQ(count_arc_window_overlaps(g, asg), 0u);
  // With monotone windows, the §4.1 constraint holds on every path.
  const AssignmentReport sums = check_path_deadline_sums(g, asg);
  EXPECT_TRUE(sums.ok()) << sums.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SlicingProperty,
    ::testing::Combine(::testing::Range<std::uint64_t>(0, 8),
                       ::testing::Values(MetricKind::Pure, MetricKind::Norm,
                                         MetricKind::Thres, MetricKind::Adapt),
                       ::testing::Bool()));

}  // namespace
}  // namespace feast
