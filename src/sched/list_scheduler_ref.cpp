/// \file list_scheduler_ref.cpp
/// \brief The retained reference implementation of the §5.3 deadline-driven
///        list scheduler.
///
/// This is the paper-faithful core the optimized list_schedule is
/// differentially tested against: a per-step linear scan over the ready
/// set, per-run timeline state, the naive front-to-back gap walk and
/// seed-form reservations (BusTimeline::query_linear / reserve_linear — so
/// differential runs also pit the accelerated gap search against its
/// reference semantics on every workload, and the perf baseline never
/// rides the optimized machinery), and straight-line placement logic that
/// maps one-to-one onto
/// the algorithm description.  Keep it simple — its job is to be obviously
/// correct, not fast.  Every decision that can influence the trace goes
/// through list_scheduler_detail.hpp so the two cores cannot drift apart
/// silently.
#include <algorithm>
#include <span>
#include <vector>

#include "sched/bus.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/list_scheduler_detail.hpp"

namespace feast {

namespace {

/// Scheduling context threaded through the helper functions.
struct Context {
  const TaskGraph* graph;
  const DeadlineAssignment* assignment;
  const Machine* machine;
  SchedulerOptions options;
  Schedule* schedule;
  std::vector<BusTimeline> procs;  ///< Per-processor busy timelines.
  std::vector<Time> proc_tail;     ///< Finish of the last appended subtask.
  BusTimeline bus;                 ///< Shared-bus timeline.
  std::vector<BusTimeline> links;  ///< Per-pair link timelines (point-to-point).

  /// Timeline of the link between two distinct processors.
  BusTimeline& link_between(ProcId a, ProcId b) {
    FEAST_ASSERT(a != b);
    const std::size_t lo = std::min(a.index(), b.index());
    const std::size_t hi = std::max(a.index(), b.index());
    const std::size_t n = procs.size();
    return links[lo * n + hi];
  }

  /// Earliest start of a \p duration execution on \p proc, no earlier than
  /// \p ready, under the processor policy.
  Time proc_fit(ProcId proc, Time ready, Time duration) const {
    if (options.processor_policy == ProcessorPolicy::GapSearch) {
      return procs[proc.index()].query_linear(ready, duration);
    }
    return std::max(proc_tail[proc.index()], ready);
  }

  /// Commits the execution interval on \p proc.
  void proc_commit(ProcId proc, Time start, Time duration) {
    procs[proc.index()].reserve_linear(start, duration);
    proc_tail[proc.index()] = std::max(proc_tail[proc.index()], start + duration);
  }
};

/// The time-driven lower bound on a subtask's start.
Time release_floor(const Context& ctx, NodeId id) {
  if (ctx.options.release_policy == ReleasePolicy::TimeDriven) {
    return ctx.assignment->release(id);
  }
  // Eager mode still honours the physical availability of inputs.
  const Time boundary = ctx.graph->node(id).boundary_release;
  return is_set(boundary) ? boundary : 0.0;
}

/// Arrival time of the message through comm node \p comm if the consumer
/// ran on \p proc.  Side-effect free.
Time arrival_on(Context& ctx, NodeId comm, ProcId proc) {
  const NodeId producer = ctx.graph->comm_source(comm);
  const TaskPlacement& pp = ctx.schedule->placement(producer);
  const Time produced = pp.finish;
  if (pp.proc == proc) return produced;
  const Time latency = ctx.machine->transfer_time(ctx.graph->node(comm).message_items);
  switch (ctx.machine->contention) {
    case CommContention::SharedBus:
      return ctx.bus.query_linear(produced, latency) + latency;
    case CommContention::PointToPointLinks:
      return ctx.link_between(pp.proc, proc).query_linear(produced, latency) + latency;
    case CommContention::ContentionFree:
      break;
  }
  return produced + latency;
}

/// Earliest start of \p id on \p proc (evaluation only).
Time earliest_start_on(Context& ctx, NodeId id, ProcId proc) {
  Time ready = release_floor(ctx, id);
  for (const NodeId comm : ctx.graph->preds(id)) {
    ready = std::max(ready, arrival_on(ctx, comm, proc));
  }
  return ctx.proc_fit(proc, ready,
                      ctx.machine->exec_time_on(ctx.graph->node(id).exec_time,
                                                proc.index()));
}

/// Commits \p id to \p proc: reserves bus slots, records transfers, places
/// the subtask.
void commit(Context& ctx, NodeId id, ProcId proc) {
  Time ready = release_floor(ctx, id);

  // Commit incoming transfers in (producer finish, comm id) order — the
  // trace contract's deterministic shared-bus reservation order.
  const std::span<const NodeId> preds = ctx.graph->preds(id);
  std::vector<NodeId> comms(preds.begin(), preds.end());
  std::sort(comms.begin(), comms.end());
  detail::order_comms_by_finish(comms, *ctx.graph, *ctx.schedule);
  for (const NodeId comm : comms) {
    const NodeId producer = ctx.graph->comm_source(comm);
    const TaskPlacement& pp = ctx.schedule->placement(producer);
    if (pp.proc == proc) {
      ctx.schedule->record_transfer(comm, pp.finish, pp.finish, /*crossed_bus=*/false);
      ready = std::max(ready, pp.finish);
      continue;
    }
    const Time latency = ctx.machine->transfer_time(ctx.graph->node(comm).message_items);
    Time depart = pp.finish;
    switch (ctx.machine->contention) {
      case CommContention::SharedBus:
        depart = ctx.bus.reserve_linear(pp.finish, latency);
        break;
      case CommContention::PointToPointLinks:
        depart = ctx.link_between(pp.proc, proc).reserve_linear(pp.finish, latency);
        break;
      case CommContention::ContentionFree:
        break;
    }
    const Time arrive = depart + latency;
    ctx.schedule->record_transfer(comm, depart, arrive, /*crossed_bus=*/true);
    ready = std::max(ready, arrive);
  }

  const Time exec =
      ctx.machine->exec_time_on(ctx.graph->node(id).exec_time, proc.index());
  const Time start = ctx.proc_fit(proc, ready, exec);
  ctx.schedule->place(id, proc, start, start + exec);
  ctx.proc_commit(proc, start, exec);
}

/// True when \p a should be selected before \p b under the policy
/// (contract point 1: exact lexicographic (key, release, id) order).
bool select_before(const Context& ctx, NodeId a, NodeId b) {
  const DeadlineAssignment& asg = *ctx.assignment;
  return detail::select_less(
      detail::selection_key(ctx.options.selection, *ctx.graph, asg, a), asg.release(a),
      a, detail::selection_key(ctx.options.selection, *ctx.graph, asg, b),
      asg.release(b), b);
}

}  // namespace

Schedule list_schedule_ref(const TaskGraph& graph, const DeadlineAssignment& assignment,
                           const Machine& machine, const SchedulerOptions& options) {
  machine.check();
  FEAST_REQUIRE_MSG(assignment.complete(), "assignment must cover every node");
  for (const NodeId id : graph.computation_nodes()) {
    const ProcId pin = graph.node(id).pinned;
    FEAST_REQUIRE_MSG(!pin.valid() || static_cast<int>(pin.index()) < machine.n_procs,
                      "pinned processor outside the machine");
  }

  Schedule schedule(graph, machine);
  const auto n_procs = static_cast<std::size_t>(machine.n_procs);
  Context ctx{&graph,
              &assignment,
              &machine,
              options,
              &schedule,
              std::vector<BusTimeline>(n_procs),
              std::vector<Time>(n_procs, 0.0),
              BusTimeline{},
              std::vector<BusTimeline>(
                  machine.contention == CommContention::PointToPointLinks
                      ? n_procs * n_procs
                      : 0)};

  // A computation subtask is schedulable once all producer subtasks
  // feeding it are placed.
  std::vector<std::size_t> waiting(graph.node_count(), 0);
  std::vector<NodeId> ready;
  for (const NodeId id : graph.computation_nodes()) {
    waiting[id.index()] = graph.preds(id).size();
    if (waiting[id.index()] == 0) ready.push_back(id);
  }

  std::size_t placed = 0;
  while (!ready.empty()) {
    // Select the next subtask (EDF by default) among all schedulable ones.
    std::size_t best = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
      if (select_before(ctx, ready[i], ready[best])) best = i;
    }
    const NodeId chosen = ready[best];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best));

    // Place it on the processor yielding the earliest start time.
    const ProcId pin = graph.node(chosen).pinned;
    ProcId target;
    if (pin.valid()) {
      target = pin;
    } else {
      Time best_est = kInfiniteTime;
      for (int p = 0; p < machine.n_procs; ++p) {
        const ProcId proc(static_cast<std::uint32_t>(p));
        const Time est = earliest_start_on(ctx, chosen, proc);
        if (est < best_est - kTimeEps) {
          best_est = est;
          target = proc;
        }
      }
    }
    commit(ctx, chosen, target);
    ++placed;

    // Newly schedulable consumers: each comm successor has one consumer.
    for (const NodeId comm : graph.succs(chosen)) {
      const NodeId consumer = graph.comm_sink(comm);
      FEAST_ASSERT(waiting[consumer.index()] > 0);
      if (--waiting[consumer.index()] == 0) ready.push_back(consumer);
    }
  }

  FEAST_ENSURE_MSG(placed == graph.subtask_count(),
                   "scheduler failed to place every subtask");
  FEAST_ENSURE(schedule.complete(graph));
  return schedule;
}

}  // namespace feast
