/// \file test_prop_exact.cpp
/// \brief Ground-truth properties of the exact oracle against the paper's
///        heuristics, and the oracle's own anytime/determinism contracts.
///
///  * `optimal <= heuristic` for NORM / PURE / THRES / ADAPT over seeded
///    random instances (check_exact_dominates; failures arrive shrunk with
///    a FEAST_PROP_REPLAY seed).
///  * Anytime monotonicity: as the node budget grows the certified bound
///    never worsens and the incumbent never degrades — a budget-limited
///    solve is always a usable (bound, incumbent) sandwich around the
///    optimum.
///  * Determinism: identical instance + budget => identical node counts,
///    prune counts and incumbent, byte for byte.
///  * Budget exhaustion: a search stopped mid-tree still returns a real
///    schedule's objective no worse than the heuristic that seeded it.
#include <gtest/gtest.h>

#include <memory>

#include "check/invariants.hpp"
#include "check/prop.hpp"
#include "exact/exact.hpp"
#include "exact/gap.hpp"
#include "obs/obs.hpp"
#include "experiment/strategy.hpp"
#include "sched/lateness.hpp"
#include "sched/list_scheduler.hpp"
#include "taskgraph/generator.hpp"
#include "util/rng.hpp"

namespace feast::check {
namespace {

/// Instances sized for the oracle: within kMaxExactSubtasks with real
/// precedence depth so unbudgeted reference solves stay cheap.
RandomGraphConfig oracle_config() {
  RandomGraphConfig config;
  config.min_subtasks = 5;
  config.max_subtasks = 12;
  config.min_depth = 2;
  config.max_depth = 5;
  config.ccr = 1.0;
  config.olr = 1.4;
  return config;
}

void expect_oracle_dominated(const Strategy& strategy, std::uint64_t seed_base) {
  const RandomGraphConfig config = oracle_config();
  Machine machine;
  machine.n_procs = 3;
  const SchedulerOptions sched_options;

  ForallOptions options;
  options.seed_base = seed_base;
  options.cases = 60;
  options.label = "exact-dominates-" + strategy.label;
  const ForallReport report =
      forall_graphs(config, options, [&](const TaskGraph& graph) {
        const std::unique_ptr<Distributor> distributor = strategy.make(machine.n_procs);
        return check_exact_dominates(graph, *distributor, machine, sched_options,
                                     /*node_budget=*/200000);
      });
  EXPECT_TRUE(report.ok()) << report.describe();
}

TEST(PropExact, NormNeverBeatsTheOracle) {
  expect_oracle_dominated(strategy_norm(EstimatorKind::CCNE), 8100);
}

TEST(PropExact, PureNeverBeatsTheOracle) {
  expect_oracle_dominated(strategy_pure(EstimatorKind::CCNE), 8200);
}

TEST(PropExact, ThresNeverBeatsTheOracle) {
  expect_oracle_dominated(strategy_thres(1.0, 1.25), 8300);
}

TEST(PropExact, AdaptNeverBeatsTheOracle) {
  expect_oracle_dominated(strategy_adapt(1.25), 8400);
}

/// A medium instance whose unpruned tree comfortably exceeds the budgets
/// exercised below, so the anytime path genuinely stops mid-search.
TaskGraph anytime_instance(std::uint64_t seed) {
  RandomGraphConfig config;
  config.min_subtasks = 13;
  config.max_subtasks = 14;
  config.min_depth = 3;
  config.max_depth = 5;
  config.ccr = 1.0;
  config.olr = 1.3;
  Pcg32 rng(seed);
  return generate_random_graph(config, rng);
}

TEST(PropExact, AnytimeBoundNeverWorsensWithBudget) {
  Machine machine;
  machine.n_procs = 3;

  for (std::uint64_t seed : {91u, 92u}) {
    const TaskGraph graph = anytime_instance(seed);
    const exact::ExactResult reference = exact::solve_exact(graph, machine);
    ASSERT_TRUE(reference.proven);

    Time prev_bound = -kInfiniteTime;
    Time prev_incumbent = kInfiniteTime;
    for (const std::uint64_t budget : {16u, 64u, 256u, 1024u, 8192u, 0u}) {
      exact::ExactOptions options;
      options.node_budget = budget;
      const exact::ExactResult result = exact::solve_exact(graph, machine, options);

      // The sandwich: bound <= true optimum <= incumbent, always.
      EXPECT_LE(result.bound, reference.optimal) << "seed " << seed;
      EXPECT_GE(result.optimal, reference.optimal) << "seed " << seed;
      // Monotone in the budget.
      EXPECT_GE(result.bound, prev_bound) << "seed " << seed << " budget " << budget;
      EXPECT_LE(result.optimal, prev_incumbent)
          << "seed " << seed << " budget " << budget;
      prev_bound = result.bound;
      prev_incumbent = result.optimal;

      if (budget == 0) {
        EXPECT_TRUE(result.proven);
        EXPECT_EQ(result.optimal, reference.optimal);
        EXPECT_EQ(result.bound, reference.optimal);
      }
      if (result.proven) {
        EXPECT_EQ(result.bound, result.optimal);
      }
    }
  }
}

TEST(PropExact, NodeCountsAreDeterministic) {
  Machine machine;
  machine.n_procs = 3;
  const TaskGraph graph = anytime_instance(77);

  for (const std::uint64_t budget : {128u, 20000u}) {
    exact::ExactOptions options;
    options.node_budget = budget;
    const exact::ExactResult first = exact::solve_exact(graph, machine, options);
    const exact::ExactResult second = exact::solve_exact(graph, machine, options);
    EXPECT_EQ(first.nodes, second.nodes);
    EXPECT_EQ(first.pruned_bound, second.pruned_bound);
    EXPECT_EQ(first.pruned_dominated, second.pruned_dominated);
    EXPECT_EQ(first.optimal, second.optimal);
    EXPECT_EQ(first.bound, second.bound);
    EXPECT_EQ(first.proven, second.proven);
  }
}

TEST(PropExact, BudgetExhaustionKeepsAValidIncumbent) {
  // Stop the search almost immediately: the incumbent must still be the
  // heuristic-seeded schedule's objective (or better), never garbage.
  Machine machine;
  machine.n_procs = 3;
  const SchedulerOptions sched_options;

  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    const TaskGraph graph = anytime_instance(seed);
    const Strategy strategy = strategy_norm(EstimatorKind::CCNE);
    const std::unique_ptr<Distributor> distributor = strategy.make(machine.n_procs);
    const DeadlineAssignment assignment = distributor->distribute(graph);
    const Schedule schedule =
        list_schedule(graph, assignment, machine, sched_options);
    const Time heuristic =
        computation_lateness(graph, assignment, schedule).max_lateness;

    exact::ExactOptions options;
    options.node_budget = 1;
    options.seeds.push_back(exact::seed_from_schedule(graph, schedule));
    const exact::ExactResult result = exact::solve_exact(graph, machine, options);

    EXPECT_FALSE(result.proven) << "seed " << seed;
    // The warm start replays through the oracle's left-shifted placement
    // rule, which can only tighten the heuristic schedule.
    EXPECT_LE(result.optimal, heuristic) << "seed " << seed;
    EXPECT_LE(result.bound, result.optimal) << "seed " << seed;
    EXPECT_EQ(result.placement.size(), graph.subtask_count()) << "seed " << seed;
  }
}

/// A gap cell validates each sample's assignment and schedule when the
/// context asks, as run_once does: one Validate span each per sample.
TEST(GapCell, ValidatesEachSampleWhenTheContextAsks) {
  BatchConfig batch;
  batch.samples = 3;
  batch.seed = 21;
  for (const bool validate : {true, false}) {
    obs::Sink sink;
    RunContext context;
    context.validate = validate;
    context.sink = &sink;
    (void)exact::run_gap_cell(oracle_config(), strategy_pure(EstimatorKind::CCNE), 2,
                              batch, context, /*node_budget=*/20000);
    std::uint64_t validations = 0;
    for (const obs::Report::SpanRow& row : sink.report().spans) {
      if (row.span == obs::Span::Validate) validations += row.count;
    }
    EXPECT_EQ(validations, validate ? 2u * 3u : 0u) << "validate=" << validate;
  }
}

}  // namespace
}  // namespace feast::check
