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
  const auto& comps = graph.computation_nodes();
  const std::size_t n = comps.size();
  if (n == 0) {
    stats.max_lateness = 0.0;
    return stats;
  }
  // One pass in node order: the max keeps the *first* index attaining it
  // (replaced only when strictly greater), and the mean is a left-to-right
  // sum, so the statistics do not depend on anything but that order.
  Time max = lateness_of(assignment, schedule, comps[0]);
  std::size_t argmax = 0;
  std::size_t missed = 0;
  Time sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Time late = lateness_of(assignment, schedule, comps[i]);
    if (late > max) {
      max = late;
      argmax = i;
    }
    if (late > kTimeEps) ++missed;
    sum += late;
  }
  stats.max_lateness = max;
  stats.argmax = comps[argmax];
  stats.missed = missed;
  stats.count = n;
  stats.mean_lateness = sum / static_cast<double>(n);
  return stats;
}

Time end_to_end_lateness(const TaskGraph& graph, const Schedule& schedule) {
  Time worst = -kInfiniteTime;
  for (const NodeId id : graph.outputs()) {
    const Time deadline = graph.node(id).boundary_deadline;
    FEAST_REQUIRE(is_set(deadline));
    worst = std::max(worst, schedule.placement(id).finish - deadline);
  }
  return graph.outputs().empty() ? 0.0 : worst;
}

}  // namespace feast
