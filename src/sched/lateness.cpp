#include "sched/lateness.hpp"

#include <algorithm>

namespace feast {

Time lateness_of(const DeadlineAssignment& assignment, const Schedule& schedule,
                 NodeId id) {
  return schedule.placement(id).finish - assignment.abs_deadline(id);
}

LatenessStats computation_lateness(const TaskGraph& graph,
                                   const DeadlineAssignment& assignment,
                                   const Schedule& schedule) {
  LatenessStats stats;
  // One pass over the node ids in order (no id vector is built): the max
  // keeps the *first* subtask attaining it (replaced only when strictly
  // greater), and the mean is a left-to-right sum, so the statistics do
  // not depend on anything but that order.
  Time max = 0.0;
  NodeId argmax;
  std::size_t count = 0;
  std::size_t missed = 0;
  Time sum = 0.0;
  for (std::uint32_t v = 0; v < graph.node_count(); ++v) {
    const NodeId id(v);
    if (!graph.is_computation(id)) continue;
    const Time late = lateness_of(assignment, schedule, id);
    if (count == 0 || late > max) {
      max = late;
      argmax = id;
    }
    if (late > kTimeEps) ++missed;
    sum += late;
    ++count;
  }
  if (count == 0) {
    stats.max_lateness = 0.0;
    return stats;
  }
  stats.max_lateness = max;
  stats.argmax = argmax;
  stats.missed = missed;
  stats.count = count;
  stats.mean_lateness = sum / static_cast<double>(count);
  return stats;
}

Time end_to_end_lateness(const TaskGraph& graph, const Schedule& schedule) {
  // The output subtasks (computation nodes without successors), walked in
  // id order as graph.outputs() lists them, without building that list.
  Time worst = -kInfiniteTime;
  bool any = false;
  for (std::uint32_t v = 0; v < graph.node_count(); ++v) {
    const NodeId id(v);
    const Node& node = graph.node(id);
    if (node.kind != NodeKind::Computation || !graph.succs(id).empty()) continue;
    FEAST_REQUIRE(is_set(node.boundary_deadline));
    worst = std::max(worst, schedule.placement(id).finish - node.boundary_deadline);
    any = true;
  }
  return any ? worst : 0.0;
}

}  // namespace feast
