/// \file schedule_validate.hpp
/// \brief Structural validation of schedules.
///
/// Every experiment run validates its schedule: a bug in the scheduler
/// would otherwise silently corrupt thousands of lateness samples.  Checks:
///
///  - every computation subtask is placed exactly once on a processor of
///    the machine, and pinned subtasks sit on their designated processor;
///  - executions on one processor never overlap (non-preemptive);
///  - precedence + communication: a consumer starts no earlier than each
///    producer's finish plus the message transfer when they are on
///    different processors (and no earlier than the producer's finish when
///    co-located);
///  - transfer records are consistent (crossing iff endpoints differ,
///    duration equals the machine latency, departure not before the
///    producer's finish);
///  - under the shared-bus model, crossing transfers are pairwise disjoint,
///    and under point-to-point links so are those on one processor pair;
///  - under the time-driven release policy, starts respect assigned
///    release times, and input subtasks their boundary release.
///
/// Cost: two passes over the node ids, one counting sort of the placements
/// by processor and one sort of the crossing transfers — O(n log n) for n
/// nodes, independent of the processor count.  The grouping and transfer
/// records live in per-thread scratch, so a valid schedule is checked with
/// no allocation; message strings are built only for problems found.
#pragma once

#include <string>
#include <vector>

#include "core/annotation.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/machine.hpp"
#include "sched/schedule.hpp"
#include "taskgraph/task_graph.hpp"

namespace feast {

/// Outcome of schedule validation.
struct ScheduleReport {
  std::vector<std::string> problems;

  bool ok() const noexcept { return problems.empty(); }
  std::string to_string() const;
};

/// Runs all checks listed above.
ScheduleReport validate_schedule(const TaskGraph& graph,
                                 const DeadlineAssignment& assignment,
                                 const Machine& machine, const Schedule& schedule,
                                 const SchedulerOptions& options = {});

/// Throws ContractViolation when the report is not ok.
void require_valid(const ScheduleReport& report);

}  // namespace feast
