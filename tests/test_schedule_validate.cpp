/// \file test_schedule_validate.cpp
/// \brief The schedule validator must catch every class of corruption it
///        claims to check; each test plants one specific violation.
#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <vector>

#include "core/comm_estimator.hpp"
#include "core/metrics.hpp"
#include "core/slicing.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/schedule_validate.hpp"
#include "taskgraph/generator.hpp"
#include "taskgraph/task_graph.hpp"
#include "util/rng.hpp"

namespace feast {
namespace {

/// prod(10) --8 items--> cons(10); window prod[0,15], cons[20,40].
struct Fixture {
  TaskGraph g;
  NodeId prod, cons, comm;
  DeadlineAssignment asg;
  Machine machine;

  Fixture() {
    prod = g.add_subtask("prod", 10.0);
    cons = g.add_subtask("cons", 10.0);
    comm = g.add_precedence(prod, cons, 8.0);
    asg = DeadlineAssignment(g);
    asg.assign(prod, 0.0, 15.0, 0);
    asg.assign(cons, 20.0, 20.0, 0);
    asg.assign(comm, 15.0, 0.0, 0);
    machine.n_procs = 2;
  }
};

void expect_problem(const ScheduleReport& report, const std::string& needle) {
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find(needle), std::string::npos)
      << "report was: " << report.to_string();
}

TEST(ScheduleValidate, AcceptsCorrectSchedule) {
  Fixture f;
  Schedule s(f.g, f.machine);
  s.place(f.prod, ProcId(0), 0.0, 10.0);
  s.record_transfer(f.comm, 10.0, 18.0, true);
  s.place(f.cons, ProcId(1), 20.0, 30.0);
  EXPECT_TRUE(validate_schedule(f.g, f.asg, f.machine, s).ok());
}

TEST(ScheduleValidate, IncompleteScheduleReported) {
  Fixture f;
  Schedule s(f.g, f.machine);
  s.place(f.prod, ProcId(0), 0.0, 10.0);
  expect_problem(validate_schedule(f.g, f.asg, f.machine, s), "does not cover");
}

TEST(ScheduleValidate, PinViolationReported) {
  Fixture f;
  f.g.pin(f.cons, ProcId(0));
  Schedule s(f.g, f.machine);
  s.place(f.prod, ProcId(0), 0.0, 10.0);
  s.record_transfer(f.comm, 10.0, 18.0, true);
  s.place(f.cons, ProcId(1), 20.0, 30.0);
  expect_problem(validate_schedule(f.g, f.asg, f.machine, s), "locality");
}

TEST(ScheduleValidate, WrongDurationReported) {
  Fixture f;
  Schedule s(f.g, f.machine);
  s.place(f.prod, ProcId(0), 0.0, 12.0);  // 12 != exec time 10
  s.record_transfer(f.comm, 12.0, 20.0, true);
  s.place(f.cons, ProcId(1), 20.0, 30.0);
  expect_problem(validate_schedule(f.g, f.asg, f.machine, s), "executes for");
}

TEST(ScheduleValidate, EarlyStartReportedUnderTimeDriven) {
  Fixture f;
  Schedule s(f.g, f.machine);
  s.place(f.prod, ProcId(0), 0.0, 10.0);
  s.record_transfer(f.comm, 10.0, 18.0, true);
  s.place(f.cons, ProcId(1), 18.0, 28.0);  // before its release of 20

  expect_problem(validate_schedule(f.g, f.asg, f.machine, s),
                 "starts before its assigned release");

  // The same schedule is legal under the eager policy.
  SchedulerOptions eager;
  eager.release_policy = ReleasePolicy::Eager;
  EXPECT_TRUE(validate_schedule(f.g, f.asg, f.machine, s, eager).ok());
}

TEST(ScheduleValidate, ProcessorOverlapReported) {
  Fixture f;
  Schedule s(f.g, f.machine);
  s.place(f.prod, ProcId(0), 0.0, 10.0);
  s.record_transfer(f.comm, 10.0, 10.0, false);
  s.place(f.cons, ProcId(0), 5.0, 15.0);  // overlaps prod on P0
  SchedulerOptions eager;
  eager.release_policy = ReleasePolicy::Eager;
  expect_problem(validate_schedule(f.g, f.asg, f.machine, s, eager), "overlaps");
}

TEST(ScheduleValidate, MissingTransferLatencyReported) {
  Fixture f;
  Schedule s(f.g, f.machine);
  s.place(f.prod, ProcId(0), 0.0, 10.0);
  s.record_transfer(f.comm, 10.0, 10.0, true);  // crossing but zero duration
  s.place(f.cons, ProcId(1), 20.0, 30.0);
  expect_problem(validate_schedule(f.g, f.asg, f.machine, s), "transfer lasts");
}

TEST(ScheduleValidate, CrossingFlagMismatchReported) {
  Fixture f;
  Schedule s(f.g, f.machine);
  s.place(f.prod, ProcId(0), 0.0, 10.0);
  s.record_transfer(f.comm, 10.0, 18.0, true);  // marked crossing...
  s.place(f.cons, ProcId(0), 20.0, 30.0);       // ...but co-located
  expect_problem(validate_schedule(f.g, f.asg, f.machine, s), "crossing");
}

TEST(ScheduleValidate, ConsumerBeforeArrivalReported) {
  Fixture f;
  f.asg = DeadlineAssignment(f.g);
  f.asg.assign(f.prod, 0.0, 15.0, 0);
  f.asg.assign(f.cons, 12.0, 28.0, 0);
  f.asg.assign(f.comm, 15.0, 0.0, 0);
  Schedule s(f.g, f.machine);
  s.place(f.prod, ProcId(0), 0.0, 10.0);
  s.record_transfer(f.comm, 10.0, 18.0, true);
  s.place(f.cons, ProcId(1), 12.0, 22.0);  // message arrives at 18
  expect_problem(validate_schedule(f.g, f.asg, f.machine, s),
                 "before the message arrives");
}

TEST(ScheduleValidate, TransferBeforeProducerFinishReported) {
  Fixture f;
  Schedule s(f.g, f.machine);
  s.place(f.prod, ProcId(0), 0.0, 10.0);
  s.record_transfer(f.comm, 5.0, 13.0, true);  // departs mid-execution
  s.place(f.cons, ProcId(1), 20.0, 30.0);
  expect_problem(validate_schedule(f.g, f.asg, f.machine, s),
                 "departs before the producer");
}

TEST(ScheduleValidate, BusOverlapReportedUnderSharedBus) {
  TaskGraph g;
  const NodeId p1 = g.add_subtask("p1", 10.0);
  const NodeId p2 = g.add_subtask("p2", 10.0);
  const NodeId c1 = g.add_subtask("c1", 5.0);
  const NodeId c2 = g.add_subtask("c2", 5.0);
  const NodeId m1 = g.add_precedence(p1, c1, 10.0);
  const NodeId m2 = g.add_precedence(p2, c2, 10.0);

  DeadlineAssignment asg(g);
  for (const NodeId id : {p1, p2}) asg.assign(id, 0.0, 50.0, 0);
  for (const NodeId id : {c1, c2}) asg.assign(id, 0.0, 80.0, 0);
  for (const NodeId id : {m1, m2}) asg.assign(id, 0.0, 50.0, 0);

  Machine machine;
  machine.n_procs = 3;
  machine.contention = CommContention::SharedBus;

  Schedule s(g, machine);
  s.place(p1, ProcId(0), 0.0, 10.0);
  s.place(p2, ProcId(1), 0.0, 10.0);
  s.record_transfer(m1, 10.0, 20.0, true);
  s.record_transfer(m2, 15.0, 25.0, true);  // overlaps m1 on the bus
  s.place(c1, ProcId(2), 20.0, 25.0);
  s.place(c2, ProcId(2), 25.0, 30.0);

  SchedulerOptions eager;
  eager.release_policy = ReleasePolicy::Eager;
  expect_problem(validate_schedule(g, asg, machine, s, eager), "interconnect");

  // The identical timing is legal under the contention-free model...
  machine.contention = CommContention::ContentionFree;
  EXPECT_TRUE(validate_schedule(g, asg, machine, s, eager).ok());
  // ...and under point-to-point links, because the two transfers use the
  // distinct pairs (P0,P2) and (P1,P2).
  machine.contention = CommContention::PointToPointLinks;
  EXPECT_TRUE(validate_schedule(g, asg, machine, s, eager).ok());
}

TEST(ScheduleValidate, BoundaryReleaseViolationReported) {
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 10.0);
  g.set_boundary_release(a, 25.0);
  DeadlineAssignment asg(g);
  asg.assign(a, 20.0, 30.0, 0);
  Machine machine;
  machine.n_procs = 1;
  Schedule s(g, machine);
  s.place(a, ProcId(0), 20.0, 30.0);  // before the physical release of 25
  expect_problem(validate_schedule(g, asg, machine, s),
                 "starts before its boundary release");
}

// --------------------------------------------------------------------------
// One planted schedule per problem class the validator claims to check.  Each
// case must be rejected with its class's message; the correct fixture
// schedule must be accepted, so every rejection below is the planted fault.

/// One planted fault: the report it produces and the text naming its class.
struct PlantedFault {
  const char* problem_class;
  std::function<ScheduleReport()> validate;
  const char* needle;
};

/// Fixture schedule: prod on P0 [0,10], 8-item transfer [10,18], cons on
/// P1 [20,30] — valid on the fixture's 2-processor machine.
Schedule fixture_schedule(const Fixture& f, const Machine& machine) {
  Schedule s(f.g, machine);
  s.place(f.prod, ProcId(0), 0.0, 10.0);
  s.record_transfer(f.comm, 10.0, 18.0, true);
  s.place(f.cons, ProcId(1), 20.0, 30.0);
  return s;
}

/// p1 on P0 sends to c1 on P2 and p2 on P2 sends to c2 on P0; the two
/// transfers [10,20] and [15,25] overlap in time on the one P0–P2 link.
ScheduleReport validate_opposed_link_transfers() {
  TaskGraph g;
  const NodeId p1 = g.add_subtask("p1", 10.0);
  const NodeId p2 = g.add_subtask("p2", 15.0);
  const NodeId c1 = g.add_subtask("c1", 5.0);
  const NodeId c2 = g.add_subtask("c2", 5.0);
  const NodeId m1 = g.add_precedence(p1, c1, 10.0);
  const NodeId m2 = g.add_precedence(p2, c2, 10.0);
  DeadlineAssignment asg(g);
  for (const NodeId id : {p1, p2, c1, c2, m1, m2}) asg.assign(id, 0.0, 80.0, 0);
  Machine machine;
  machine.n_procs = 3;
  machine.contention = CommContention::PointToPointLinks;
  Schedule s(g, machine);
  s.place(p1, ProcId(0), 0.0, 10.0);
  s.place(p2, ProcId(2), 0.0, 15.0);
  s.record_transfer(m1, 10.0, 20.0, true);  // P0 -> P2
  s.record_transfer(m2, 15.0, 25.0, true);  // P2 -> P0, same link
  s.place(c1, ProcId(2), 20.0, 25.0);
  s.place(c2, ProcId(0), 25.0, 30.0);
  return validate_schedule(g, asg, machine, s);
}

TEST(ScheduleValidate, EveryProblemClassIsReported) {
  const Fixture f;
  ASSERT_TRUE(validate_schedule(f.g, f.asg, f.machine, fixture_schedule(f, f.machine)).ok());
  SchedulerOptions eager;
  eager.release_policy = ReleasePolicy::Eager;

  const std::vector<PlantedFault> faults = {
      {"processor out of range",
       [&] {
         // Built for a 4-processor machine, validated against 2 processors.
         Machine wide = f.machine;
         wide.n_procs = 4;
         Schedule s(f.g, wide);
         s.place(f.prod, ProcId(0), 0.0, 10.0);
         s.record_transfer(f.comm, 10.0, 18.0, true);
         s.place(f.cons, ProcId(3), 20.0, 30.0);
         return validate_schedule(f.g, f.asg, f.machine, s);
       },
       "placed on a processor outside the machine"},
      {"pin violation",
       [&] {
         Fixture pinned;
         pinned.g.pin(pinned.cons, ProcId(0));
         return validate_schedule(pinned.g, pinned.asg, pinned.machine,
                                  fixture_schedule(pinned, pinned.machine));
       },
       "violates its strict locality constraint"},
      {"wrong duration",
       [&] {
         Schedule s(f.g, f.machine);
         s.place(f.prod, ProcId(0), 0.0, 12.0);
         s.record_transfer(f.comm, 12.0, 20.0, true);
         s.place(f.cons, ProcId(1), 20.0, 30.0);
         return validate_schedule(f.g, f.asg, f.machine, s);
       },
       ": executes for 12 instead of 10"},
      {"start before release",
       [&] {
         Schedule s(f.g, f.machine);
         s.place(f.prod, ProcId(0), 0.0, 10.0);
         s.record_transfer(f.comm, 10.0, 18.0, true);
         s.place(f.cons, ProcId(1), 18.0, 28.0);
         return validate_schedule(f.g, f.asg, f.machine, s);
       },
       "starts before its assigned release time"},
      {"start before boundary",
       [&] {
         Fixture bounded;
         bounded.g.set_boundary_release(bounded.prod, 2.0);
         Schedule s(bounded.g, bounded.machine);
         s.place(bounded.prod, ProcId(0), 1.0, 11.0);
         s.record_transfer(bounded.comm, 11.0, 19.0, true);
         s.place(bounded.cons, ProcId(1), 20.0, 30.0);
         return validate_schedule(bounded.g, bounded.asg, bounded.machine, s);
       },
       "starts before its boundary release"},
      {"processor overlap",
       [&] {
         Schedule s(f.g, f.machine);
         s.place(f.prod, ProcId(0), 0.0, 10.0);
         s.record_transfer(f.comm, 10.0, 10.0, false);
         s.place(f.cons, ProcId(0), 5.0, 15.0);
         return validate_schedule(f.g, f.asg, f.machine, s, eager);
       },
       "processor P0: node #1 ('cons') overlaps node #0 ('prod')"},
      {"crossing mismatch",
       [&] {
         Schedule s(f.g, f.machine);
         s.place(f.prod, ProcId(0), 0.0, 10.0);
         s.record_transfer(f.comm, 10.0, 18.0, true);
         s.place(f.cons, ProcId(0), 20.0, 30.0);
         return validate_schedule(f.g, f.asg, f.machine, s);
       },
       "transfer record disagrees with placement on crossing"},
      {"early departure",
       [&] {
         Schedule s(f.g, f.machine);
         s.place(f.prod, ProcId(0), 0.0, 10.0);
         s.record_transfer(f.comm, 5.0, 13.0, true);
         s.place(f.cons, ProcId(1), 20.0, 30.0);
         return validate_schedule(f.g, f.asg, f.machine, s);
       },
       "departs before the producer finishes"},
      {"wrong latency",
       [&] {
         Schedule s(f.g, f.machine);
         s.place(f.prod, ProcId(0), 0.0, 10.0);
         s.record_transfer(f.comm, 10.0, 15.0, true);
         s.place(f.cons, ProcId(1), 20.0, 30.0);
         return validate_schedule(f.g, f.asg, f.machine, s);
       },
       "transfer lasts 5 instead of 8"},
      {"early consumer",
       [&] {
         Schedule s(f.g, f.machine);
         s.place(f.prod, ProcId(0), 0.0, 10.0);
         s.record_transfer(f.comm, 10.0, 18.0, true);
         s.place(f.cons, ProcId(1), 16.0, 26.0);
         return validate_schedule(f.g, f.asg, f.machine, s, eager);
       },
       "consumer starts before the message arrives"},
      {"interconnect overlap (shared bus)",
       [&] {
         Machine bus = f.machine;
         bus.n_procs = 4;
         bus.contention = CommContention::SharedBus;
         TaskGraph g;
         const NodeId p1 = g.add_subtask("p1", 10.0);
         const NodeId p2 = g.add_subtask("p2", 10.0);
         const NodeId c1 = g.add_subtask("c1", 5.0);
         const NodeId c2 = g.add_subtask("c2", 5.0);
         const NodeId m1 = g.add_precedence(p1, c1, 10.0);
         const NodeId m2 = g.add_precedence(p2, c2, 10.0);
         DeadlineAssignment asg(g);
         for (const NodeId id : {p1, p2, c1, c2, m1, m2}) asg.assign(id, 0.0, 80.0, 0);
         Schedule s(g, bus);
         s.place(p1, ProcId(0), 0.0, 10.0);
         s.place(p2, ProcId(1), 0.0, 10.0);
         s.record_transfer(m1, 10.0, 20.0, true);
         s.record_transfer(m2, 15.0, 25.0, true);
         s.place(c1, ProcId(2), 20.0, 25.0);
         s.place(c2, ProcId(3), 25.0, 30.0);
         return validate_schedule(g, asg, bus, s);
       },
       "interconnect: transfer node #5 ('p2->c2') overlaps node #4 ('p1->c1')"},
      {"interconnect overlap (opposed point-to-point link)",
       validate_opposed_link_transfers,
       "interconnect: transfer node #5 ('p2->c2') overlaps node #4 ('p1->c1')"},
  };

  for (const PlantedFault& fault : faults) {
    SCOPED_TRACE(fault.problem_class);
    const ScheduleReport report = fault.validate();
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.to_string().find(fault.needle), std::string::npos)
        << "report was: " << report.to_string();
  }
}

// --------------------------------------------------------------------------
// Mutation property tests: take a random *valid* schedule produced by the
// list scheduler, apply one corruption operator, and require the validator
// to reject the mutant with the matching problem class.  Directed tests
// above prove each check fires on a crafted two-node fixture; these prove
// the checks keep firing inside realistically tangled schedules.

/// Mutable copy of a schedule's full trace.
struct TraceCopy {
  std::vector<TaskPlacement> places;
  std::vector<TransferRecord> transfers;

  TraceCopy(const TaskGraph& g, const Schedule& s)
      : places(g.node_count()), transfers(g.node_count()) {
    for (const NodeId id : g.computation_nodes()) places[id.index()] = s.placement(id);
    for (const NodeId id : g.communication_nodes()) transfers[id.index()] = s.transfer(id);
  }

  /// Materializes the (possibly mutated) trace as a fresh Schedule.
  Schedule build(const TaskGraph& g, const Machine& m) const {
    Schedule s(g, m);
    for (const NodeId id : g.computation_nodes()) {
      const TaskPlacement& p = places[id.index()];
      s.place(id, p.proc, p.start, p.finish);
    }
    for (const NodeId id : g.communication_nodes()) {
      const TransferRecord& t = transfers[id.index()];
      s.record_transfer(id, t.start, t.finish, t.crossed_bus);
    }
    return s;
  }
};

/// One random scheduled workload per seed.
struct RandomWorkload {
  TaskGraph g;
  DeadlineAssignment asg;
  Machine machine;
  Schedule s;

  explicit RandomWorkload(std::uint64_t seed) {
    Pcg32 rng(seed);
    RandomGraphConfig config;
    config.min_subtasks = 12;
    config.max_subtasks = 24;
    config.min_depth = 3;
    config.max_depth = 6;
    g = generate_random_graph(config, rng);
    const auto metric = make_pure();
    const auto estimator = make_ccne();
    asg = distribute_deadlines(g, *metric, *estimator);
    machine.n_procs = 3;
    machine.contention = static_cast<CommContention>(seed % 3);
    s = list_schedule(g, asg, machine);
  }
};

TEST(ScheduleValidateProperty, AcceptsEveryListScheduledWorkload) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomWorkload w(seed);
    const ScheduleReport report = validate_schedule(w.g, w.asg, w.machine, w.s);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.to_string();
  }
}

TEST(ScheduleValidateProperty, RejectsOverlappingPlacements) {
  int mutants = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomWorkload w(seed);
    // Slide the second subtask of some processor onto the first one.
    const ProcGroups groups = w.s.group_by_proc();
    for (int p = 0; p < w.machine.n_procs; ++p) {
      const auto tasks = groups.on(static_cast<std::size_t>(p));
      if (tasks.size() < 2) continue;
      TraceCopy trace(w.g, w.s);
      TaskPlacement& victim = trace.places[tasks[1].index()];
      const Time duration = victim.finish - victim.start;
      victim.start = trace.places[tasks[0].index()].start;
      victim.finish = victim.start + duration;
      expect_problem(
          validate_schedule(w.g, w.asg, w.machine, trace.build(w.g, w.machine)),
          " overlaps ");
      ++mutants;
      break;
    }
  }
  EXPECT_GE(mutants, 8);  // the operator must actually apply, not vacuously pass
}

TEST(ScheduleValidateProperty, RejectsConsumerStartingBeforeArrival) {
  int mutants = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomWorkload w(seed);
    for (const NodeId comm : w.g.communication_nodes()) {
      const Time arrival = w.s.transfer(comm).finish;
      const NodeId consumer = w.g.comm_sink(comm);
      TraceCopy trace(w.g, w.s);
      TaskPlacement& victim = trace.places[consumer.index()];
      if (arrival < 0.5) continue;  // keep the mutated start non-negative
      const Time duration = victim.finish - victim.start;
      victim.start = arrival - 0.5;
      victim.finish = victim.start + duration;
      expect_problem(
          validate_schedule(w.g, w.asg, w.machine, trace.build(w.g, w.machine)),
          "consumer starts before the message arrives");
      ++mutants;
      break;
    }
  }
  EXPECT_GE(mutants, 8);
}

TEST(ScheduleValidateProperty, RejectsStartBeforeAssignedRelease) {
  int mutants = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomWorkload w(seed);
    for (const NodeId id : w.g.computation_nodes()) {
      const Time release = w.asg.release(id);
      if (release < 1.0) continue;  // need room to start strictly earlier
      TraceCopy trace(w.g, w.s);
      TaskPlacement& victim = trace.places[id.index()];
      const Time duration = victim.finish - victim.start;
      victim.start = release - 0.5;
      victim.finish = victim.start + duration;
      expect_problem(
          validate_schedule(w.g, w.asg, w.machine, trace.build(w.g, w.machine)),
          "starts before its assigned release time");
      ++mutants;
      break;
    }
  }
  EXPECT_GE(mutants, 8);
}

TEST(ScheduleValidateProperty, RejectsTransferDepartingBeforeProducerFinish) {
  int mutants = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomWorkload w(seed);
    for (const NodeId comm : w.g.communication_nodes()) {
      if (!w.s.transfer(comm).crossed_bus) continue;
      const Time produced = w.s.placement(w.g.comm_source(comm)).finish;
      TraceCopy trace(w.g, w.s);
      TransferRecord& victim = trace.transfers[comm.index()];
      const Time latency = victim.finish - victim.start;
      victim.start = produced - 0.5;
      victim.finish = victim.start + latency;
      expect_problem(
          validate_schedule(w.g, w.asg, w.machine, trace.build(w.g, w.machine)),
          "departs before the producer finishes");
      ++mutants;
      break;
    }
  }
  EXPECT_GE(mutants, 8);
}

TEST(ScheduleValidateProperty, RejectsCorruptedExecutionDuration) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomWorkload w(seed);
    const NodeId victim_id = w.g.computation_nodes().front();
    TraceCopy trace(w.g, w.s);
    trace.places[victim_id.index()].finish += 1.0;
    expect_problem(
        validate_schedule(w.g, w.asg, w.machine, trace.build(w.g, w.machine)),
        ": executes for ");
  }
}

}  // namespace
}  // namespace feast
