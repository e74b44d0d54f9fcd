/// \file test_lateness.cpp
/// \brief Unit tests for lateness/laxity analysis and the Gantt renderers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sched/gantt.hpp"
#include "sched/lateness.hpp"
#include "taskgraph/task_graph.hpp"
#include "util/rng.hpp"
#include "util/time_types.hpp"

namespace feast {
namespace {

/// a(10) -> b(20); windows a[0,15], b[15,40]; end-to-end deadline 45.
struct Fixture {
  TaskGraph g;
  NodeId a, b, comm;
  DeadlineAssignment asg;
  Machine machine;

  Fixture() {
    a = g.add_subtask("a", 10.0);
    b = g.add_subtask("b", 20.0);
    comm = g.add_precedence(a, b, 4.0);
    g.set_boundary_release(a, 0.0);
    g.set_boundary_deadline(b, 45.0);
    asg = DeadlineAssignment(g);
    asg.assign(a, 0.0, 15.0, 0);
    asg.assign(b, 15.0, 25.0, 0);
    asg.assign(comm, 15.0, 0.0, 0);
    machine.n_procs = 2;
  }
};

TEST(Lateness, PerSubtaskAndStats) {
  Fixture f;
  Schedule s(f.g, f.machine);
  s.place(f.a, ProcId(0), 0.0, 10.0);      // lateness -5 vs deadline 15
  s.record_transfer(f.comm, 10.0, 10.0, false);
  s.place(f.b, ProcId(0), 22.0, 42.0);     // lateness +2 vs deadline 40

  EXPECT_DOUBLE_EQ(lateness_of(f.asg, s, f.a), -5.0);
  EXPECT_DOUBLE_EQ(lateness_of(f.asg, s, f.b), 2.0);

  const LatenessStats stats = computation_lateness(f.g, f.asg, s);
  EXPECT_DOUBLE_EQ(stats.max_lateness, 2.0);
  EXPECT_EQ(stats.argmax, f.b);
  EXPECT_DOUBLE_EQ(stats.mean_lateness, -1.5);
  EXPECT_EQ(stats.missed, 1u);
  EXPECT_EQ(stats.count, 2u);
  EXPECT_FALSE(stats.feasible());

  // End-to-end: b finishes at 42, boundary deadline 45.
  EXPECT_DOUBLE_EQ(end_to_end_lateness(f.g, s), -3.0);
}

TEST(Lateness, FeasibleSchedule) {
  Fixture f;
  Schedule s(f.g, f.machine);
  s.place(f.a, ProcId(0), 0.0, 10.0);
  s.record_transfer(f.comm, 10.0, 10.0, false);
  s.place(f.b, ProcId(0), 15.0, 35.0);
  const LatenessStats stats = computation_lateness(f.g, f.asg, s);
  EXPECT_TRUE(stats.feasible());
  EXPECT_DOUBLE_EQ(stats.max_lateness, -5.0);
}

/// Independent subtasks s0..s(n-1) finishing at \p finish against the
/// absolute deadlines \p deadline (release = deadline, zero window, so the
/// absolute deadline is exactly the given value, negative ones included).
struct Independent {
  TaskGraph g;
  std::vector<NodeId> ids;
  DeadlineAssignment asg;
  Machine machine;

  Independent(const std::vector<Time>& finish, const std::vector<Time>& deadline) {
    for (std::size_t i = 0; i < finish.size(); ++i) {
      ids.push_back(g.add_subtask("s" + std::to_string(i), 1.0));
    }
    asg = DeadlineAssignment(g);
    for (std::size_t i = 0; i < ids.size(); ++i) asg.assign(ids[i], deadline[i], 0.0, 0);
    machine.n_procs = 1;
    schedule = std::make_unique<Schedule>(g, machine);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      schedule->place(ids[i], ProcId(0), std::min(0.0, finish[i]), finish[i]);
    }
  }

  LatenessStats stats() const { return computation_lateness(g, asg, *schedule); }

  std::unique_ptr<Schedule> schedule;
};

TEST(Lateness, SingleElementAndEpsBoundary) {
  {
    const Independent on_time({10.0}, {10.0});
    const LatenessStats stats = on_time.stats();
    EXPECT_EQ(stats.max_lateness, 0.0);
    EXPECT_EQ(stats.argmax, on_time.ids[0]);
    EXPECT_EQ(stats.mean_lateness, 0.0);
    EXPECT_EQ(stats.missed, 0u);
    EXPECT_EQ(stats.count, 1u);
  }
  // Exactly eps late is not a miss (strictly greater); just above is.
  // Deadline 0 keeps finish - deadline exact in floating point.
  const Independent at_eps({kTimeEps}, {0.0});
  EXPECT_EQ(at_eps.stats().max_lateness, kTimeEps);
  EXPECT_EQ(at_eps.stats().missed, 0u);
  const Independent past_eps({2.0 * kTimeEps}, {0.0});
  EXPECT_EQ(past_eps.stats().missed, 1u);
}

TEST(Lateness, FirstArgmaxOnTies) {
  // Equal maxima everywhere: the first subtask in node order must win (an
  // entry replaces the incumbent only when strictly greater).
  for (const std::size_t n : {std::size_t{2}, std::size_t{5}, std::size_t{8},
                              std::size_t{9}}) {
    const Independent tied(std::vector<Time>(n, 7.0), std::vector<Time>(n, 3.0));
    const LatenessStats stats = tied.stats();
    EXPECT_EQ(stats.max_lateness, 4.0);
    EXPECT_EQ(stats.argmax, tied.ids[0]) << "n=" << n;
    EXPECT_EQ(stats.missed, n);
    EXPECT_EQ(stats.mean_lateness, 4.0);
  }
}

TEST(Lateness, ExtremeNegativeDeadlinesFuzz) {
  Pcg32 rng(505);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 41));
    std::vector<Time> finish(n), deadline(n);
    for (std::size_t i = 0; i < n; ++i) {
      finish[i] = rng.uniform_real(0.0, 1e6);
      // Negative and extreme deadlines: lateness spans a huge dynamic
      // range, including values near ±1e300.
      deadline[i] = rng.uniform_int(0, 9) == 0 ? rng.uniform_real(-1e300, 1e300)
                                               : rng.uniform_real(-1e6, 1e6);
    }
    // The statistics, folded independently: first-index max, strict eps
    // miss count, and the mean as a left-to-right sum in node order.
    Time max = finish[0] - deadline[0];
    std::size_t argmax = 0;
    std::size_t missed = 0;
    Time sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Time late = finish[i] - deadline[i];
      ASSERT_FALSE(std::isnan(late));
      if (late > max) {
        max = late;
        argmax = i;
      }
      if (late > kTimeEps) ++missed;
      sum += late;
    }

    const Independent run(finish, deadline);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(lateness_of(run.asg, *run.schedule, run.ids[i]),
                finish[i] - deadline[i]);
    }
    const LatenessStats stats = run.stats();
    ASSERT_EQ(stats.max_lateness, max) << "round=" << round;
    ASSERT_EQ(stats.argmax, run.ids[argmax]) << "round=" << round;
    ASSERT_EQ(stats.missed, missed) << "round=" << round;
    ASSERT_EQ(stats.mean_lateness, sum / static_cast<double>(n)) << "round=" << round;
    ASSERT_EQ(stats.count, n);
  }
}

TEST(Lateness, NoComputationNodesGivesEmptyStats) {
  const TaskGraph g;
  const DeadlineAssignment asg(g);
  Machine machine;
  machine.n_procs = 1;
  const Schedule s(g, machine);
  const LatenessStats stats = computation_lateness(g, asg, s);
  EXPECT_EQ(stats.max_lateness, 0.0);
  EXPECT_EQ(stats.mean_lateness, 0.0);
  EXPECT_EQ(stats.missed, 0u);
  EXPECT_EQ(stats.count, 0u);
  EXPECT_TRUE(stats.feasible());
}

TEST(Gantt, AsciiChartShowsRowsAndBus) {
  Fixture f;
  Schedule s(f.g, f.machine);
  s.place(f.a, ProcId(0), 0.0, 10.0);
  s.record_transfer(f.comm, 10.0, 14.0, true);
  s.place(f.b, ProcId(1), 15.0, 35.0);

  const std::string chart = gantt_to_string(f.g, s);
  EXPECT_NE(chart.find("makespan = 35"), std::string::npos);
  EXPECT_NE(chart.find("P0 |"), std::string::npos);
  EXPECT_NE(chart.find("P1 |"), std::string::npos);
  EXPECT_NE(chart.find("bus|"), std::string::npos);  // crossing transfer row
  EXPECT_NE(chart.find("a=a"), std::string::npos);   // legend
}

TEST(Gantt, NoBusRowWhenAllLocal) {
  Fixture f;
  Schedule s(f.g, f.machine);
  s.place(f.a, ProcId(0), 0.0, 10.0);
  s.record_transfer(f.comm, 10.0, 10.0, false);
  s.place(f.b, ProcId(0), 15.0, 35.0);
  const std::string chart = gantt_to_string(f.g, s);
  EXPECT_EQ(chart.find("bus|"), std::string::npos);
}

TEST(Gantt, CsvHasHeaderAndRows) {
  Fixture f;
  Schedule s(f.g, f.machine);
  s.place(f.a, ProcId(0), 0.0, 10.0);
  s.record_transfer(f.comm, 10.0, 14.0, true);
  s.place(f.b, ProcId(1), 15.0, 35.0);

  std::ostringstream out;
  write_schedule_csv(out, f.g, f.asg, s);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("kind,name,proc,start,finish,release,abs_deadline,lateness"),
            std::string::npos);
  EXPECT_NE(csv.find("computation,a,P0,0,10,0,15,-5"), std::string::npos);
  EXPECT_NE(csv.find("communication,a->b,bus,10,14"), std::string::npos);
  // 1 header + 2 computation + 1 communication.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

}  // namespace
}  // namespace feast
