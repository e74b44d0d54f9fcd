/// \file test_schedule.cpp
/// \brief Unit tests for the Schedule container and its derived measures.
#include <gtest/gtest.h>

#include "sched/schedule.hpp"
#include "taskgraph/task_graph.hpp"
#include "util/contracts.hpp"

namespace feast {
namespace {

struct Fixture {
  TaskGraph g;
  NodeId a, b, comm;
  Machine machine;

  Fixture() {
    a = g.add_subtask("a", 10.0);
    b = g.add_subtask("b", 20.0);
    comm = g.add_precedence(a, b, 5.0);
    machine.n_procs = 2;
  }
};

TEST(Schedule, PlaceAndQuery) {
  Fixture f;
  Schedule s(f.g, f.machine);
  EXPECT_EQ(s.n_procs(), 2);
  EXPECT_FALSE(s.scheduled(f.a));

  s.place(f.a, ProcId(0), 0.0, 10.0);
  s.record_transfer(f.comm, 10.0, 15.0, true);
  s.place(f.b, ProcId(1), 15.0, 35.0);

  EXPECT_TRUE(s.scheduled(f.a));
  EXPECT_TRUE(s.complete(f.g));
  EXPECT_DOUBLE_EQ(s.placement(f.b).start, 15.0);
  EXPECT_EQ(s.placement(f.b).proc, ProcId(1));
  EXPECT_TRUE(s.transfer(f.comm).crossed_bus);
  EXPECT_DOUBLE_EQ(s.makespan(), 35.0);
}

TEST(Schedule, MisuseRejected) {
  Fixture f;
  Schedule s(f.g, f.machine);
  s.place(f.a, ProcId(0), 0.0, 10.0);
  EXPECT_THROW(s.place(f.a, ProcId(1), 0.0, 10.0), ContractViolation);  // twice
  EXPECT_THROW(s.place(f.b, ProcId(7), 0.0, 20.0), ContractViolation);  // bad proc
  EXPECT_THROW(s.place(f.b, ProcId(1), 10.0, 5.0), ContractViolation);  // negative span
  EXPECT_THROW(s.placement(f.b), ContractViolation);                    // not placed
  EXPECT_THROW(s.transfer(f.comm), ContractViolation);                  // not recorded
  s.record_transfer(f.comm, 10.0, 10.0, false);
  EXPECT_THROW(s.record_transfer(f.comm, 10.0, 10.0, false), ContractViolation);
}

TEST(Schedule, GroupByProcSortsByStart) {
  Fixture f;
  Schedule s(f.g, f.machine);
  s.place(f.b, ProcId(0), 20.0, 40.0);
  s.place(f.a, ProcId(0), 0.0, 10.0);
  const ProcGroups groups = s.group_by_proc();
  ASSERT_EQ(groups.size(), static_cast<std::size_t>(f.machine.n_procs));
  const auto tasks = groups.on(0);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0], f.a);
  EXPECT_EQ(tasks[1], f.b);
  EXPECT_TRUE(groups.on(1).empty());
}

TEST(Schedule, BusyTimeAndUtilization) {
  Fixture f;
  Schedule s(f.g, f.machine);
  s.place(f.a, ProcId(0), 0.0, 10.0);
  s.place(f.b, ProcId(1), 20.0, 40.0);
  EXPECT_DOUBLE_EQ(s.busy_time(ProcId(0)), 10.0);
  EXPECT_DOUBLE_EQ(s.busy_time(ProcId(1)), 20.0);
  // 30 busy units over makespan 40 x 2 procs.
  EXPECT_DOUBLE_EQ(s.average_utilization(), 30.0 / 80.0);
}

TEST(Schedule, EmptyScheduleMeasures) {
  Fixture f;
  Schedule s(f.g, f.machine);
  EXPECT_DOUBLE_EQ(s.makespan(), 0.0);
  EXPECT_DOUBLE_EQ(s.average_utilization(), 0.0);
  EXPECT_FALSE(s.complete(f.g));
}

}  // namespace
}  // namespace feast
