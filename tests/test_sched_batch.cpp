/// \file test_sched_batch.cpp
/// \brief Property tests for the batch scheduling entry point.
///
/// BatchScheduler's contract is purely observational: scheduling N graphs
/// through the shared arenas — with pipelined preparation, memoized
/// selection orders and marker-only Schedule resets — must produce traces
/// fingerprint-identical to N independent single-graph runs, and a
/// repeated pass over the same batch (the sweep/bench pattern) must run
/// with zero heap allocation.  The first property runs both directly over
/// a seeded batch and through the check harness (which shrinks any
/// divergent graph to a minimal counterexample); the second reuses the
/// nothrow-operator-new counting idiom of test_obs.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/prop.hpp"
#include "core/comm_estimator.hpp"
#include "core/metrics.hpp"
#include "core/slicing.hpp"
#include "sched/batch.hpp"
#include "sched/lateness.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/schedule_validate.hpp"
#include "sched/trace.hpp"
#include "taskgraph/generator.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Allocation counting for the steady-state test (same idiom as
// test_obs.cpp): thread-local counter, pairwise new/delete replacement so
// worker threads and gtest internals cannot perturb the measurement.
// ---------------------------------------------------------------------------
namespace {
thread_local std::uint64_t tl_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++tl_alloc_count;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++tl_alloc_count;
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace feast {
namespace {

/// A seeded batch: graphs plus slicing assignments, kept alive together
/// (BatchScheduler borrows both).
struct SeededBatch {
  std::vector<TaskGraph> graphs;
  std::vector<DeadlineAssignment> assignments;
  std::vector<const TaskGraph*> graph_ptrs;
  std::vector<const DeadlineAssignment*> assignment_ptrs;
};

SeededBatch make_batch(std::size_t count, std::uint64_t seed) {
  SeededBatch batch;
  Pcg32 rng(seed);
  const auto metric = make_pure();
  const auto estimator = make_ccne();
  RandomGraphConfig config;  // paper-sized: 40-60 subtasks
  batch.graphs.reserve(count);
  batch.assignments.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.graphs.push_back(generate_random_graph(config, rng));
    batch.assignments.push_back(
        distribute_deadlines(batch.graphs.back(), *metric, *estimator));
  }
  for (std::size_t i = 0; i < count; ++i) {
    batch.graph_ptrs.push_back(&batch.graphs[i]);
    batch.assignment_ptrs.push_back(&batch.assignments[i]);
  }
  return batch;
}

/// A chain of subtasks joined by messages of the given sizes.
TaskGraph message_chain(const std::vector<double>& items) {
  TaskGraph graph;
  NodeId prev = graph.add_subtask("s0", 1.0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const NodeId next = graph.add_subtask("s" + std::to_string(i + 1), 1.0);
    graph.add_precedence(prev, next, items[i]);
    prev = next;
  }
  return graph;
}

/// Every comm slot's latency is exactly Machine::transfer_time of its
/// message; computation slots carry none.
void expect_latencies_exact(const TaskGraph& graph, const PreparedTopology& topology,
                            const Machine& machine) {
  ASSERT_EQ(topology.latency.size(), graph.node_count());
  for (std::uint32_t v = 0; v < graph.node_count(); ++v) {
    const Node& node = graph.node(NodeId(v));
    const Time expected = node.kind == NodeKind::Communication
                              ? machine.transfer_time(node.message_items)
                              : 0.0;
    EXPECT_EQ(topology.latency[v], expected)
        << "node " << v << " rate " << machine.time_per_item;
  }
}

TEST(SchedBatch, LatencyIsExactTransferTimeAtExtremes) {
  // Message sizes at every chain length up to 13, with zero and extreme
  // magnitudes mixed in: each product must be one IEEE multiply.
  Pcg32 rng(404);
  for (std::size_t n = 1; n <= 13; ++n) {
    std::vector<double> items(n);
    for (std::size_t i = 0; i < n; ++i) items[i] = rng.uniform_real(0.0, 1e12);
    items[0] = 0.0;
    if (n > 1) items[1] = 1e300;
    const TaskGraph graph = message_chain(items);
    Machine machine;
    machine.n_procs = 2;
    machine.time_per_item = 3.7e-3;
    PreparedTopology topology;
    topology.build(graph, machine);
    expect_latencies_exact(graph, topology, machine);
  }
}

TEST(SchedBatch, RebuildForNewRateRewritesEveryLatency) {
  // A topology rebound to the same graph at another bus rate, and then to a
  // smaller graph, must not keep any latency from the earlier build.
  const TaskGraph big = message_chain({4.0, 0.5, 7.0, 1e6, 3.0});
  const TaskGraph small = message_chain({9.0});
  PreparedTopology topology;
  Machine machine;
  machine.n_procs = 3;
  for (const double rate : {1.0, 2.5, 0.0, 1e-9}) {
    machine.time_per_item = rate;
    topology.build(big, machine);
    EXPECT_TRUE(topology.matches(big, machine));
    expect_latencies_exact(big, topology, machine);
  }
  machine.time_per_item = 0.25;
  topology.build(small, machine);
  EXPECT_TRUE(topology.matches(small, machine));
  EXPECT_FALSE(topology.matches(big, machine));
  expect_latencies_exact(small, topology, machine);
}

TEST(SchedBatch, BatchOfSeededGraphsMatchesSequentialRuns) {
  constexpr std::size_t kCount = 32;
  SeededBatch batch = make_batch(kCount, 20260808);
  const SchedulerOptions options;

  // 16 processors is the largest fig2 cell; both contention models run there.
  const std::pair<int, CommContention> machines[] = {
      {8, CommContention::SharedBus},
      {16, CommContention::SharedBus},
      {16, CommContention::ContentionFree}};
  for (const auto& [procs, contention] : machines) {
    SCOPED_TRACE(std::to_string(procs) + " procs, " + to_string(contention));
    Machine machine;
    machine.n_procs = procs;
    machine.contention = contention;

    // N independent single-graph runs: the established entry point.
    std::vector<std::uint64_t> sequential(kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
      const Schedule s =
          list_schedule(batch.graphs[i], batch.assignments[i], machine, options);
      sequential[i] = schedule_trace_digest(batch.graphs[i], s);
    }

    // One batch pass through the shared arenas, then a second pass over the
    // same batch — the repeat skips every graph preparation and replays the
    // memoized selection orders, and must still reproduce every fingerprint.
    BatchScheduler scheduler;
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<std::uint64_t> batched(kCount, 0);
      scheduler.run(batch.graph_ptrs.data(), batch.assignment_ptrs.data(), kCount,
                    machine, options,
                    [&](std::size_t i, const Schedule& s) {
                      batched[i] = schedule_trace_digest(batch.graphs[i], s);
                    });
      for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(batched[i], sequential[i]) << "pass " << pass << " sample " << i;
      }
    }
  }
}

/// The same property through the check harness: any graph whose batch
/// trace diverges from its sequential trace is shrunk to a minimal
/// counterexample.  Both contention models run, and the batch side runs
/// twice so a stale memoized selection order (a cache-validation bug)
/// diverges here too.
TEST(SchedBatch, PropertyBatchEqualsSequentialWithShrinking) {
  RandomGraphConfig config;
  config.min_subtasks = 8;
  config.max_subtasks = 30;
  config.min_depth = 3;
  config.max_depth = 8;
  check::ForallOptions options;
  options.seed_base = 9000;
  options.cases = 40;
  options.label = "sched-batch-vs-sequential";

  const auto metric = make_norm();
  const auto estimator = make_ccne();
  const check::ForallReport report = check::forall_graphs(
      config, options, [&](const TaskGraph& graph) -> std::optional<std::string> {
        const DeadlineAssignment assignment =
            distribute_deadlines(graph, *metric, *estimator);
        const SchedulerOptions sched_options;
        for (const CommContention contention :
             {CommContention::ContentionFree, CommContention::SharedBus}) {
          Machine machine;
          machine.n_procs = 6;
          machine.contention = contention;
          const Schedule seq =
              list_schedule(graph, assignment, machine, sched_options);
          const std::uint64_t expected = schedule_trace_digest(graph, seq);

          BatchScheduler scheduler;
          const TaskGraph* g = &graph;
          const DeadlineAssignment* a = &assignment;
          for (int pass = 0; pass < 2; ++pass) {
            std::uint64_t got = 0;
            scheduler.run(&g, &a, 1, machine, sched_options,
                          [&](std::size_t, const Schedule& s) {
                            got = schedule_trace_digest(graph, s);
                          });
            if (got != expected) {
              std::ostringstream os;
              os << "batch trace diverges from sequential ("
                 << to_string(contention) << ", pass " << pass << "): digest "
                 << got << " != " << expected;
              return os.str();
            }
          }
        }
        return std::nullopt;
      });
  ASSERT_TRUE(report.ok()) << report.describe();
}

/// Steady state allocates nothing: after one warm pass (which grows the
/// arenas and fills the memoized selection caches), a full repeat pass
/// over the batch — preparation checks, placement, schedule resets, sink
/// calls — must perform zero heap allocations on this thread.
TEST(SchedBatch, SteadyStateBatchRunsAllocationFree) {
  constexpr std::size_t kCount = 16;
  SeededBatch batch = make_batch(kCount, 7);
  const SchedulerOptions options;
  std::vector<Time> makespans(kCount, 0.0);
  // The sink is built once up front: constructing a std::function may
  // allocate, running it must not.
  const std::function<void(std::size_t, const Schedule&)> sink =
      [&](std::size_t i, const Schedule& s) { makespans[i] = s.makespan(); };

  for (const CommContention contention :
       {CommContention::ContentionFree, CommContention::SharedBus}) {
    Machine machine;
    machine.n_procs = 8;
    machine.contention = contention;
    BatchScheduler scheduler;
    scheduler.run(batch.graph_ptrs.data(), batch.assignment_ptrs.data(), kCount,
                  machine, options, sink);  // warm: grows arenas, fills caches

    const std::uint64_t before = tl_alloc_count;
    scheduler.run(batch.graph_ptrs.data(), batch.assignment_ptrs.data(), kCount,
                  machine, options, sink);
    const std::uint64_t allocations = tl_alloc_count - before;
    EXPECT_EQ(allocations, 0u)
        << to_string(contention) << ": steady-state batch pass allocated";
    for (const Time m : makespans) EXPECT_GT(m, 0.0);
  }
}

/// Checking a schedule allocates nothing either: after one warm pass (which
/// grows the validator's per-thread scratch), validating valid schedules
/// and measuring their lateness performs zero heap allocations on this
/// thread, under both serial interconnects.
TEST(SchedBatch, ValidationAndLatenessRunAllocationFree) {
  constexpr std::size_t kCount = 16;
  SeededBatch batch = make_batch(kCount, 11);
  const SchedulerOptions options;
  for (const CommContention contention :
       {CommContention::SharedBus, CommContention::PointToPointLinks}) {
    Machine machine;
    machine.n_procs = 8;
    machine.contention = contention;
    std::vector<Schedule> schedules;
    for (std::size_t i = 0; i < kCount; ++i) {
      schedules.push_back(
          list_schedule(batch.graphs[i], batch.assignments[i], machine, options));
    }
    std::size_t problems = 0;
    std::size_t measured = 0;
    Time worst = -kInfiniteTime;
    const auto check_all = [&] {
      for (std::size_t i = 0; i < kCount; ++i) {
        const TaskGraph& graph = batch.graphs[i];
        const DeadlineAssignment& assignment = batch.assignments[i];
        problems += validate_schedule(graph, assignment, machine, schedules[i], options)
                        .problems.size();
        measured += computation_lateness(graph, assignment, schedules[i]).count;
        worst = std::max(worst, end_to_end_lateness(graph, schedules[i]));
      }
    };
    check_all();  // warm: grows the validator's scratch

    problems = 0;
    measured = 0;
    const std::uint64_t before = tl_alloc_count;
    check_all();
    const std::uint64_t allocations = tl_alloc_count - before;
    EXPECT_EQ(allocations, 0u) << to_string(contention) << ": checking a schedule allocated";
    EXPECT_EQ(problems, 0u) << to_string(contention);
    std::size_t subtasks = 0;
    for (const TaskGraph& graph : batch.graphs) subtasks += graph.subtask_count();
    EXPECT_EQ(measured, subtasks);
    EXPECT_GT(worst, -kInfiniteTime);
  }
}

}  // namespace
}  // namespace feast
