#include "sched/report.hpp"

#include <algorithm>
#include <vector>

#include "core/distribution_validate.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace feast {

DistributionReport analyze_distribution(const TaskGraph& graph,
                                        const DeadlineAssignment& assignment) {
  DistributionReport report;
  report.subtasks = graph.subtask_count();
  report.sliced_paths = assignment.paths().size();
  report.arc_window_overlaps = count_arc_window_overlaps(graph, assignment);

  std::vector<double> laxities;
  laxities.reserve(graph.subtask_count());
  for (const NodeId id : graph.computation_nodes()) {
    laxities.push_back(assignment.laxity(graph, id));
  }
  if (!laxities.empty()) {
    report.min_laxity = *std::min_element(laxities.begin(), laxities.end());
    report.max_laxity = *std::max_element(laxities.begin(), laxities.end());
    report.mean_laxity = mean_of(laxities);
    report.median_laxity = quantile(laxities, 0.5);
  }

  // Share of each sliced path's window granted to computation windows.
  double share_sum = 0.0;
  std::size_t shares = 0;
  for (const SlicedPath& path : assignment.paths()) {
    const Time window = path.window_end - path.window_start;
    if (window <= kTimeEps) continue;
    Time computation = 0.0;
    for (const NodeId id : path.nodes) {
      if (graph.is_computation(id)) computation += assignment.rel_deadline(id);
    }
    share_sum += computation / window;
    ++shares;
  }
  report.computation_share = shares > 0 ? share_sum / static_cast<double>(shares) : 0.0;
  return report;
}

void print_distribution_report(std::ostream& out, const DistributionReport& report) {
  out << "distribution quality\n";
  out << "  subtasks:            " << report.subtasks << "\n";
  out << "  sliced paths:        " << report.sliced_paths << "\n";
  out << "  laxity min/med/mean/max: " << format_fixed(report.min_laxity, 2) << " / "
      << format_fixed(report.median_laxity, 2) << " / "
      << format_fixed(report.mean_laxity, 2) << " / "
      << format_fixed(report.max_laxity, 2) << "\n";
  out << "  window overlaps:     " << report.arc_window_overlaps << " arcs\n";
  out << "  computation share:   " << format_fixed(report.computation_share * 100.0, 1)
      << "% of path windows\n";
}

ScheduleQualityReport analyze_schedule(const TaskGraph& graph,
                                       const DeadlineAssignment& assignment,
                                       const Schedule& schedule) {
  ScheduleQualityReport report;
  report.makespan = schedule.makespan();
  report.avg_utilization = schedule.average_utilization();

  // Busy time per processor, summed in id order as Schedule::busy_time does.
  const ProcGroups groups = schedule.group_by_proc();
  std::vector<Time> busy(groups.size(), 0.0);
  for (std::uint32_t v = 0; v < graph.node_count(); ++v) {
    const NodeId id(v);
    if (!graph.is_computation(id)) continue;
    const TaskPlacement& placement = schedule.placement(id);
    busy[placement.proc.index()] += placement.finish - placement.start;
  }

  double min_util = 1.0;
  double max_util = 0.0;
  for (int p = 0; p < schedule.n_procs(); ++p) {
    const auto pi = static_cast<std::size_t>(p);
    const double util = report.makespan > 0.0 ? busy[pi] / report.makespan : 0.0;
    min_util = std::min(min_util, util);
    max_util = std::max(max_util, util);

    // Largest idle gap between consecutive tasks on this processor.
    Time prev_finish = 0.0;
    for (const NodeId id : groups.on(pi)) {
      const TaskPlacement& placement = schedule.placement(id);
      report.largest_idle_gap =
          std::max(report.largest_idle_gap, placement.start - prev_finish);
      prev_finish = placement.finish;
    }
  }
  report.min_proc_utilization = schedule.n_procs() > 0 ? min_util : 0.0;
  report.max_proc_utilization = max_util;

  for (const NodeId comm : graph.communication_nodes()) {
    const TransferRecord& t = schedule.transfer(comm);
    if (t.crossed_bus) {
      ++report.crossing_messages;
      report.total_transfer_time += t.finish - t.start;
    } else {
      ++report.local_messages;
    }
  }

  RunningStats queueing;
  for (const NodeId id : graph.computation_nodes()) {
    queueing.add(schedule.placement(id).start - assignment.release(id));
  }
  report.mean_queueing = queueing.mean();
  report.max_queueing = queueing.max();
  return report;
}

void print_schedule_report(std::ostream& out, const ScheduleQualityReport& report) {
  out << "schedule quality\n";
  out << "  makespan:            " << format_fixed(report.makespan, 2) << "\n";
  out << "  utilization avg/min/max: "
      << format_fixed(report.avg_utilization * 100.0, 1) << "% / "
      << format_fixed(report.min_proc_utilization * 100.0, 1) << "% / "
      << format_fixed(report.max_proc_utilization * 100.0, 1) << "%\n";
  out << "  largest idle gap:    " << format_fixed(report.largest_idle_gap, 2) << "\n";
  out << "  messages local/crossing: " << report.local_messages << " / "
      << report.crossing_messages << "\n";
  out << "  transfer time:       " << format_fixed(report.total_transfer_time, 2)
      << "\n";
  out << "  queueing mean/max:   " << format_fixed(report.mean_queueing, 2) << " / "
      << format_fixed(report.max_queueing, 2) << "\n";
}

}  // namespace feast
