#include "experiment/runner.hpp"

#include <optional>

#include "core/distribution_validate.hpp"
#include "sched/batch.hpp"
#include "sched/schedule_validate.hpp"

namespace feast {

RunResult run_once(const TaskGraph& graph, Distributor& distributor,
                   const RunContext& context) {
  obs::Sink* const sink = context.sink != nullptr ? context.sink : obs::active();
  // An explicitly passed sink must also catch scheduler-internal spans and
  // counters, which resolve obs::active() (the scheduler has no context):
  // install it for the run's extent.  In-tree parallel drivers resolve
  // their sink *from* active() (so this branch stays cold there); callers
  // running concurrent runs with distinct explicit sinks are on their own.
  std::optional<obs::ScopedSink> scoped;
  if (sink != nullptr && sink != obs::active()) scoped.emplace(*sink);

  const DeadlineAssignment assignment = [&] {
    obs::SpanScope span(sink, obs::Span::Distribute);
    return distributor.distribute(graph);
  }();
  if (context.validate) {
    obs::SpanScope span(sink, obs::Span::Validate);
    require_valid(check_assignment_basic(graph, assignment));
  }

  // The fast core runs through the thread-local batch arena: one
  // BatchScheduler per worker thread, so every run_once caller — run_cell
  // samples on the parallel pool, campaign cells, serve workers — reuses
  // prepared-topology, scratch and schedule storage with no per-run
  // allocation and no Schedule copy out.  The reference core keeps the
  // plain value path: it is the oracle and must not ride the machinery it
  // certifies.
  thread_local BatchScheduler batch;
  std::optional<Schedule> ref_schedule;
  const Schedule* schedule = nullptr;
  {
    obs::SpanScope span(sink, obs::Span::Schedule);
    if (context.core == SchedulerCore::Reference) {
      ref_schedule.emplace(list_schedule_ref(graph, assignment, context.machine,
                                             context.scheduler));
      schedule = &*ref_schedule;
    } else {
      schedule =
          &batch.run_one(graph, assignment, context.machine, context.scheduler);
    }
  }
  if (context.validate) {
    obs::SpanScope span(sink, obs::Span::Validate);
    require_valid(validate_schedule(graph, assignment, context.machine,
                                    *schedule, context.scheduler));
  }

  obs::SpanScope span(sink, obs::Span::Stats);
  RunResult result;
  result.lateness = computation_lateness(graph, assignment, *schedule);
  result.end_to_end = end_to_end_lateness(graph, *schedule);
  result.makespan = schedule->makespan();
  result.utilization = schedule->average_utilization();
  result.min_laxity = assignment.min_laxity(graph);
  return result;
}

}  // namespace feast
