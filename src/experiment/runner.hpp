/// \file runner.hpp
/// \brief One end-to-end simulation run: distribute → schedule → measure.
///
/// The unit of every experiment: a task graph is annotated by a
/// distribution strategy, scheduled on a machine by the deadline-driven
/// list scheduler, optionally validated, and its lateness statistics
/// extracted.
#pragma once

#include "check/fault.hpp"
#include "core/distributor.hpp"
#include "obs/obs.hpp"
#include "sched/lateness.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/machine.hpp"
#include "taskgraph/task_graph.hpp"

namespace feast {

/// Measurements of one run.
struct RunResult {
  LatenessStats lateness;       ///< Against the distributed deadlines.
  Time end_to_end = 0.0;        ///< Against the boundary deadlines.
  Time makespan = 0.0;
  double utilization = 0.0;
  Time min_laxity = 0.0;        ///< Pre-scheduling, over computation nodes.
};

/// Everything a run needs beyond the graph and the strategy, carried as
/// one value through every layer of the pipeline (run_once → cells →
/// sweeps → figures → campaigns) so a new knob never means a new
/// parameter on four signatures.
struct RunContext {
  /// The machine of a bare run_once call.  The cell/sweep layer derives
  /// the machine from its own (n_procs, batch) axes instead — see
  /// execute_cell — so there this field is ignored.
  Machine machine;
  SchedulerOptions scheduler;
  /// Which scheduler core evaluates the run.  Trace-identical by contract;
  /// Reference exists so experiments can be replayed on the paper-faithful
  /// oracle (e.g. to cross-check a published figure end to end).
  SchedulerCore core = SchedulerCore::Fast;
  bool validate = true;  ///< Validate assignment + schedule (cheap; on by default).
  /// Observability sink for this run's spans/counters (borrowed).  When
  /// nullptr, the process-wide obs::active() sink applies — so installing
  /// a ScopedSink around a whole sweep needs no per-context plumbing.
  obs::Sink* sink = nullptr;
  /// Deterministic fault plan (borrowed), armed by the drivers that own a
  /// scope — run_campaign installs it process-wide for the campaign's
  /// duration.  nullptr (production default) leaves every injection site
  /// a no-op.  See check/fault.hpp.
  check::FaultPlan* faults = nullptr;
};

/// Executes one run.  Throws ContractViolation when validation fails.
RunResult run_once(const TaskGraph& graph, Distributor& distributor,
                   const RunContext& context);

}  // namespace feast
