#include "sched/schedule_validate.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "util/strings.hpp"

namespace feast {

std::string ScheduleReport::to_string() const { return join(problems, "\n"); }

namespace {

std::string node_label(const TaskGraph& graph, NodeId id) {
  return "node #" + std::to_string(id.value) + " ('" + graph.node(id).name + "')";
}

/// A crossing transfer on a serial interconnect resource, with the sort
/// key precomputed so the sort compares plain fields.
struct Crossing {
  std::size_t resource = 0;
  Time start = 0.0;
  NodeId id;
};

/// Per-thread scratch: once grown, validating a valid schedule allocates
/// nothing.
struct Scratch {
  ProcGroups groups;
  std::vector<Crossing> crossings;
};
thread_local Scratch tl_scratch;

}  // namespace

ScheduleReport validate_schedule(const TaskGraph& graph,
                                 const DeadlineAssignment& assignment,
                                 const Machine& machine, const Schedule& schedule,
                                 const SchedulerOptions& options) {
  ScheduleReport report;
  auto problem = [&](const std::string& msg) { report.problems.push_back(msg); };

  if (!schedule.complete(graph)) {
    problem("schedule does not cover every node");
    return report;
  }
  const auto n = static_cast<std::uint32_t>(graph.node_count());

  // Placement sanity, pinning, release policy, execution duration.
  for (std::uint32_t v = 0; v < n; ++v) {
    const NodeId id(v);
    const Node& node = graph.node(id);
    if (node.kind != NodeKind::Computation) continue;
    const TaskPlacement& p = schedule.placement(id);
    if (static_cast<int>(p.proc.index()) >= machine.n_procs) {
      problem(node_label(graph, id) + ": placed on a processor outside the machine");
    }
    if (node.pinned.valid() && p.proc != node.pinned) {
      problem(node_label(graph, id) + ": violates its strict locality constraint");
    }
    const Time expected_exec = machine.exec_time_on(node.exec_time, p.proc.index());
    if (!time_eq(p.finish - p.start, expected_exec)) {
      problem(node_label(graph, id) + ": executes for " +
              format_compact(p.finish - p.start) + " instead of " +
              format_compact(expected_exec));
    }
    if (options.release_policy == ReleasePolicy::TimeDriven &&
        time_lt(p.start, assignment.release(id))) {
      problem(node_label(graph, id) + ": starts before its assigned release time");
    }
    if (is_set(node.boundary_release) && time_lt(p.start, node.boundary_release)) {
      problem(node_label(graph, id) + ": starts before its boundary release");
    }
  }

  // Processor exclusivity: one grouping pass, then neighbours in start order.
  Scratch& scratch = tl_scratch;
  schedule.group_by_proc(scratch.groups);
  const std::size_t procs =
      std::min(scratch.groups.size(), static_cast<std::size_t>(machine.n_procs));
  for (std::size_t pi = 0; pi < procs; ++pi) {
    const std::span<const NodeId> tasks = scratch.groups.on(pi);
    for (std::size_t i = 1; i < tasks.size(); ++i) {
      const TaskPlacement& prev = schedule.placement(tasks[i - 1]);
      const TaskPlacement& cur = schedule.placement(tasks[i]);
      if (time_lt(cur.start, prev.finish)) {
        problem("processor P" + std::to_string(pi) + ": " + node_label(graph, tasks[i]) +
                " overlaps " + node_label(graph, tasks[i - 1]));
      }
    }
  }

  // Precedence, transfers and communication latency; collects the crossing
  // transfers for the interconnect check.  Interconnect resources: one
  // serial resource under the shared bus, one per unordered processor pair
  // under point-to-point links.
  const bool serial_interconnect = machine.contention != CommContention::ContentionFree;
  std::vector<Crossing>& crossings = scratch.crossings;
  crossings.clear();
  for (std::uint32_t v = 0; v < n; ++v) {
    const NodeId comm(v);
    const Node& node = graph.node(comm);
    if (node.kind != NodeKind::Communication) continue;
    const TaskPlacement& pp = schedule.placement(graph.comm_source(comm));
    const TaskPlacement& cp = schedule.placement(graph.comm_sink(comm));
    const TransferRecord& t = schedule.transfer(comm);

    const bool crossing = pp.proc != cp.proc;
    if (t.crossed_bus != crossing) {
      problem(node_label(graph, comm) + ": transfer record disagrees with placement on crossing");
    }
    if (time_lt(t.start, pp.finish)) {
      problem(node_label(graph, comm) + ": departs before the producer finishes");
    }
    const Time expected_latency = crossing ? machine.transfer_time(node.message_items) : 0.0;
    if (!time_eq(t.finish - t.start, expected_latency)) {
      problem(node_label(graph, comm) + ": transfer lasts " +
              format_compact(t.finish - t.start) + " instead of " +
              format_compact(expected_latency));
    }
    if (time_lt(cp.start, t.finish)) {
      problem(node_label(graph, comm) + ": consumer starts before the message arrives");
    }
    if (serial_interconnect && t.crossed_bus && t.finish - t.start > kTimeEps) {
      std::size_t resource = 0;
      if (machine.contention == CommContention::PointToPointLinks) {
        const std::size_t a = pp.proc.index();
        const std::size_t b = cp.proc.index();
        resource = std::min(a, b) * static_cast<std::size_t>(machine.n_procs) +
                   std::max(a, b);
      }
      crossings.push_back({resource, t.start, comm});
    }
  }

  // Interconnect exclusivity: neighbours on one resource in start order.
  std::sort(crossings.begin(), crossings.end(), [](const Crossing& a, const Crossing& b) {
    if (a.resource != b.resource) return a.resource < b.resource;
    return a.start < b.start;
  });
  for (std::size_t i = 1; i < crossings.size(); ++i) {
    if (crossings[i].resource != crossings[i - 1].resource) continue;
    const TransferRecord& prev = schedule.transfer(crossings[i - 1].id);
    if (time_lt(crossings[i].start, prev.finish)) {
      problem("interconnect: transfer " + node_label(graph, crossings[i].id) +
              " overlaps " + node_label(graph, crossings[i - 1].id));
    }
  }

  return report;
}

void require_valid(const ScheduleReport& report) {
  FEAST_REQUIRE_MSG(report.ok(), report.to_string());
}

}  // namespace feast
