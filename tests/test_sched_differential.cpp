/// \file test_sched_differential.cpp
/// \brief Differential tests of the optimized list-scheduler core against
///        the retained reference implementation.
///
/// The heavy harness (`feastc diffsched`, ≥500 trials) runs in CI; this is
/// the ctest slice — enough randomized workloads to catch a contract
/// regression in a local edit-compile-test loop, plus directed cases for
/// the optimized core's special paths (heap ties, scratch reuse across
/// mismatched shapes, the contention-free top-two fast path, ready bitsets
/// spanning many words, the memoized selection order of a reused
/// topology).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/comm_estimator.hpp"
#include "core/metrics.hpp"
#include "core/slicing.hpp"
#include "experiment/runner.hpp"
#include "experiment/strategy.hpp"
#include "sched/batch.hpp"
#include "sched/diffsched.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/trace.hpp"
#include "taskgraph/generator.hpp"
#include "util/rng.hpp"

namespace feast {
namespace {

TEST(DiffSched, QuickRandomizedWorkloadsAgreeOnAllPolicyCombos) {
  DiffSchedConfig config;
  config.seed = 20260805;
  config.trials = 40;
  config.quick = true;
  const DiffSchedResult result = run_diffsched(config);
  EXPECT_EQ(result.trials, 40);
  EXPECT_EQ(result.combos, 12);
  // One reference run and one fast run per combo.
  EXPECT_EQ(result.schedules, 40LL * 12 * 2);
  EXPECT_EQ(result.mismatches, 0) << result.first_problem;
  EXPECT_EQ(result.invalid, 0) << result.first_problem;
}

TEST(DiffSched, PaperSizedWorkloadsAgree) {
  DiffSchedConfig config;
  config.seed = 97;
  config.trials = 8;  // full-size graphs, all 12 combos each
  const DiffSchedResult result = run_diffsched(config);
  EXPECT_TRUE(result.ok()) << result.first_problem;
}

/// The scratch arena must not leak state between runs of different shapes:
/// schedule a large graph on a wide machine, then a small graph on a
/// narrow one, through the same arena, and compare against fresh runs.
TEST(DiffSched, ScratchArenaCarriesNoStateAcrossShapes) {
  Pcg32 rng(42);
  RandomGraphConfig big;
  RandomGraphConfig small;
  small.min_subtasks = 5;
  small.max_subtasks = 8;
  small.min_depth = 2;
  small.max_depth = 3;

  TaskGraph g_big = generate_random_graph(big, rng);
  TaskGraph g_small = generate_random_graph(small, rng);
  const auto metric = make_pure();
  const auto estimator = make_ccne();
  const DeadlineAssignment a_big = distribute_deadlines(g_big, *metric, *estimator);
  const DeadlineAssignment a_small =
      distribute_deadlines(g_small, *metric, *estimator);

  Machine wide;
  wide.n_procs = 12;
  wide.contention = CommContention::SharedBus;
  Machine narrow;
  narrow.n_procs = 2;
  narrow.contention = CommContention::PointToPointLinks;

  SchedulerScratch reused;
  const SchedulerOptions options;
  const Schedule big_first = list_schedule(g_big, a_big, wide, options, reused);
  const Schedule small_second =
      list_schedule(g_small, a_small, narrow, options, reused);
  const Schedule big_third = list_schedule(g_big, a_big, wide, options, reused);

  SchedulerScratch fresh_a;
  SchedulerScratch fresh_b;
  const Schedule small_fresh =
      list_schedule(g_small, a_small, narrow, options, fresh_a);
  const Schedule big_fresh = list_schedule(g_big, a_big, wide, options, fresh_b);

  std::string why;
  EXPECT_TRUE(schedule_trace_equal(g_small, small_second, small_fresh, &why)) << why;
  EXPECT_TRUE(schedule_trace_equal(g_big, big_first, big_fresh, &why)) << why;
  EXPECT_TRUE(schedule_trace_equal(g_big, big_third, big_fresh, &why)) << why;
}

/// Identical selection keys everywhere: the heap's pop order must still
/// match the reference's linear scan (the exact (key, release, id) order
/// makes the minimum unique even under total ties).
TEST(DiffSched, DegenerateSelectionTiesStillAgree) {
  TaskGraph graph;
  std::vector<NodeId> layer1;
  for (int i = 0; i < 6; ++i) {
    layer1.push_back(graph.add_subtask("u" + std::to_string(i), 10.0));
  }
  std::vector<NodeId> layer2;
  for (int i = 0; i < 6; ++i) {
    layer2.push_back(graph.add_subtask("v" + std::to_string(i), 10.0));
  }
  for (std::size_t i = 0; i < layer2.size(); ++i) {
    graph.add_precedence(layer1[i], layer2[i], 4.0);
    graph.add_precedence(layer1[(i + 1) % layer1.size()], layer2[i], 4.0);
  }
  DeadlineAssignment assignment(graph);
  for (const NodeId id : graph.computation_nodes()) {
    // Every subtask: same release, same deadline → key and release tie for
    // all policies; only the id tie-break decides.
    assignment.assign(id, 0.0, 100.0, 0);
  }
  for (const NodeId comm : graph.communication_nodes()) {
    assignment.assign(comm, 100.0, 0.0, 0);
  }

  Machine machine;
  machine.n_procs = 3;
  for (const CommContention contention :
       {CommContention::ContentionFree, CommContention::SharedBus,
        CommContention::PointToPointLinks}) {
    machine.contention = contention;
    for (const SelectionPolicy selection :
         {SelectionPolicy::Edf, SelectionPolicy::Fifo, SelectionPolicy::StaticLaxity}) {
      SchedulerOptions options;
      options.selection = selection;
      const Schedule ref = list_schedule_ref(graph, assignment, machine, options);
      const Schedule fast = list_schedule(graph, assignment, machine, options);
      std::string why;
      EXPECT_TRUE(schedule_trace_equal(graph, ref, fast, &why))
          << to_string(contention) << "/" << to_string(selection) << ": " << why;
    }
  }
}

TEST(DiffSched, DispatcherSelectsCores) {
  Pcg32 rng(7);
  RandomGraphConfig config;
  config.min_subtasks = 10;
  config.max_subtasks = 15;
  config.min_depth = 3;
  config.max_depth = 4;
  TaskGraph graph = generate_random_graph(config, rng);
  const auto metric = make_norm();
  const auto estimator = make_ccne();
  const DeadlineAssignment assignment =
      distribute_deadlines(graph, *metric, *estimator);
  Machine machine;
  machine.n_procs = 4;

  const Schedule a =
      list_schedule_with(SchedulerCore::Fast, graph, assignment, machine);
  const Schedule b =
      list_schedule_with(SchedulerCore::Reference, graph, assignment, machine);
  std::string why;
  EXPECT_TRUE(schedule_trace_equal(graph, a, b, &why)) << why;
  EXPECT_EQ(schedule_trace_digest(graph, a), schedule_trace_digest(graph, b));
}

/// A hand-built workload: the graph and its deadline windows.
struct Workload {
  TaskGraph graph;
  DeadlineAssignment assignment;
};

/// \p n subtasks: with \p fork_join, root → (n − 2) middles → sink (for
/// n >= 3; a chain below that), otherwise \p n independent subtasks.
/// Deadlines permute the middles' ranks against their ids, and the sink
/// (latest deadline) takes the highest rank, so at the end of a fork-join
/// run the only ready bit sits behind (n − 1) / 64 empty bitset words.
Workload ready_bitset_workload(int n, bool fork_join) {
  Workload w;
  std::vector<NodeId> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(w.graph.add_subtask("s" + std::to_string(i), 5.0 + i % 3));
  }
  const int width = n - 2;
  if (fork_join && n == 2) w.graph.add_precedence(nodes[0], nodes[1], 2.0);
  if (fork_join && n >= 3) {
    for (int i = 1; i <= width; ++i) {
      w.graph.add_precedence(nodes[0], nodes[static_cast<std::size_t>(i)], 2.0);
      w.graph.add_precedence(nodes[static_cast<std::size_t>(i)],
                             nodes[static_cast<std::size_t>(n - 1)], 1.0 + i % 4);
    }
  }
  w.assignment = DeadlineAssignment(w.graph);
  for (int i = 0; i < n; ++i) {
    const NodeId id = nodes[static_cast<std::size_t>(i)];
    const Time permuted = static_cast<Time>((i * 37) % n);
    if (!fork_join) {
      w.assignment.assign(id, 0.0, 10.0 + permuted, 0);
    } else if (i == 0) {
      w.assignment.assign(id, 0.0, 10.0, 0);
    } else if (i == n - 1) {
      w.assignment.assign(id, 40.0 + n, 60.0, 0);
    } else {
      w.assignment.assign(id, 10.0, 20.0 + permuted, 0);
    }
  }
  for (const NodeId comm : w.graph.communication_nodes()) {
    const NodeId producer = w.graph.comm_source(comm);
    w.assignment.assign(comm, w.assignment.abs_deadline(producer), 0.0, 0);
  }
  return w;
}

/// Fast and reference cores agree on \p w under every contention model
/// and selection policy.
void expect_cores_agree(const Workload& w, const std::string& label) {
  Machine machine;
  machine.n_procs = 4;
  for (const CommContention contention :
       {CommContention::ContentionFree, CommContention::SharedBus,
        CommContention::PointToPointLinks}) {
    machine.contention = contention;
    for (const SelectionPolicy selection :
         {SelectionPolicy::Edf, SelectionPolicy::Fifo, SelectionPolicy::StaticLaxity}) {
      SchedulerOptions options;
      options.selection = selection;
      const Schedule ref = list_schedule_ref(w.graph, w.assignment, machine, options);
      const Schedule fast = list_schedule(w.graph, w.assignment, machine, options);
      std::string why;
      EXPECT_TRUE(schedule_trace_equal(w.graph, ref, fast, &why))
          << label << " " << to_string(contention) << "/" << to_string(selection)
          << ": " << why;
    }
  }
}

TEST(DiffSched, ReadyBitsetSingleWordEdges) {
  // Rank counts at the edges of the first bitset word, as an all-ready
  // independent set and as a fork-join.
  for (const int n : {1, 2, 31, 32, 63, 64}) {
    for (const bool fork_join : {false, true}) {
      expect_cores_agree(ready_bitset_workload(n, fork_join),
                         "n=" + std::to_string(n) +
                             (fork_join ? " fork-join" : " independent"));
    }
  }
}

TEST(DiffSched, ReadyBitsetLeadingZeroWordsAndTails) {
  // Multi-word bitsets, full and with a partial last word: the sink's pop
  // walks every leading word the middles have emptied.
  for (int words = 1; words <= 10; ++words) {
    for (const int tail : {0, 1, 17}) {
      const int n = 64 * words + tail;
      expect_cores_agree(ready_bitset_workload(n, /*fork_join=*/true),
                         "n=" + std::to_string(n));
    }
  }
}

TEST(DiffSched, ReadyBitsetFuzzAgainstReference) {
  // Random layered graphs spanning two and three bitset words.
  Pcg32 rng(101);
  const auto metric = make_pure();
  const auto estimator = make_ccne();
  for (int trial = 0; trial < 10; ++trial) {
    RandomGraphConfig config;
    config.min_subtasks = 65;
    config.max_subtasks = 180;
    Workload w;
    w.graph = generate_random_graph(config, rng);
    w.assignment = distribute_deadlines(w.graph, *metric, *estimator);
    expect_cores_agree(w, "trial=" + std::to_string(trial));
  }
}

/// One prepared topology replayed under changing policies, machines and
/// windows: its memoized selection order must be re-derived whenever the
/// policy tag or any window changes, so every run matches the reference.
TEST(DiffSched, PreparedTopologyFollowsPolicyAndWindowChanges) {
  Pcg32 rng(20260807);
  const TaskGraph graph = generate_random_graph(RandomGraphConfig{}, rng);
  const auto estimator = make_ccne();
  const DeadlineAssignment pure = distribute_deadlines(graph, *make_pure(), *estimator);
  const DeadlineAssignment norm = distribute_deadlines(graph, *make_norm(), *estimator);

  Machine machine;
  machine.n_procs = 5;
  PreparedTopology topology;
  topology.build(graph, machine);
  SchedulerScratch scratch;
  for (int round = 0; round < 2; ++round) {
    for (const DeadlineAssignment* assignment : {&pure, &norm, &norm, &pure}) {
      for (const ReleasePolicy release :
           {ReleasePolicy::TimeDriven, ReleasePolicy::Eager}) {
        for (const SelectionPolicy selection :
             {SelectionPolicy::Edf, SelectionPolicy::Fifo,
              SelectionPolicy::StaticLaxity}) {
          for (const CommContention contention :
               {CommContention::ContentionFree, CommContention::SharedBus}) {
            machine.contention = contention;
            SchedulerOptions options;
            options.release_policy = release;
            options.selection = selection;
            Schedule fast(graph, machine);
            list_schedule_prepared(topology, *assignment, machine, options,
                                   scratch, fast);
            const Schedule ref = list_schedule_ref(graph, *assignment, machine, options);
            std::string why;
            ASSERT_TRUE(schedule_trace_equal(graph, ref, fast, &why))
                << "round " << round << " " << to_string(selection) << "/"
                << to_string(contention) << ": " << why;
          }
        }
      }
    }
  }
}

/// RunContext::core is the pipeline-level choice of scheduler: a full
/// run_once (distribute → schedule → validate → stats) must produce
/// bit-identical measurements on either core.
TEST(DiffSched, RunContextCoreChoiceChangesNothing) {
  RandomGraphConfig config;
  Pcg32 rng(20260808);
  const TaskGraph graph = generate_random_graph(config, rng);
  const auto distributor = strategy_pure(EstimatorKind::CCNE).make(6);

  for (const CommContention contention :
       {CommContention::ContentionFree, CommContention::SharedBus,
        CommContention::PointToPointLinks}) {
    RunContext context;
    context.machine.n_procs = 6;
    context.machine.contention = contention;
    context.core = SchedulerCore::Reference;
    const RunResult base = run_once(graph, *distributor, context);
    context.core = SchedulerCore::Fast;
    const RunResult result = run_once(graph, *distributor, context);
    const std::string name = to_string(contention);
    EXPECT_EQ(result.makespan, base.makespan) << name;
    EXPECT_EQ(result.lateness.max_lateness, base.lateness.max_lateness) << name;
    EXPECT_EQ(result.lateness.mean_lateness, base.lateness.mean_lateness) << name;
    EXPECT_EQ(result.lateness.argmax, base.lateness.argmax) << name;
    EXPECT_EQ(result.lateness.missed, base.lateness.missed) << name;
    EXPECT_EQ(result.end_to_end, base.end_to_end) << name;
    EXPECT_EQ(result.utilization, base.utilization) << name;
    EXPECT_EQ(result.min_laxity, base.min_laxity) << name;
  }
}

TEST(DiffSched, TraceDigestDetectsDivergence) {
  TaskGraph graph;
  const NodeId a = graph.add_subtask("a", 5.0);
  const NodeId b = graph.add_subtask("b", 5.0);
  const NodeId comm = graph.add_precedence(a, b, 2.0);
  Machine machine;
  machine.n_procs = 2;

  Schedule s1(graph, machine);
  s1.place(a, ProcId(0), 0.0, 5.0);
  s1.record_transfer(comm, 5.0, 5.0, false);
  s1.place(b, ProcId(0), 5.0, 10.0);

  Schedule s2(graph, machine);
  s2.place(a, ProcId(0), 0.0, 5.0);
  s2.record_transfer(comm, 5.0, 7.0, true);
  s2.place(b, ProcId(1), 7.0, 12.0);

  std::string why;
  EXPECT_FALSE(schedule_trace_equal(graph, s1, s2, &why));
  EXPECT_FALSE(why.empty());
  EXPECT_NE(schedule_trace_digest(graph, s1), schedule_trace_digest(graph, s2));
  EXPECT_EQ(schedule_trace_digest(graph, s1), schedule_trace_digest(graph, s1));
}

}  // namespace
}  // namespace feast
