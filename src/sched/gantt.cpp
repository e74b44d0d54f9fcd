#include "sched/gantt.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <vector>

#include "util/csv.hpp"
#include "util/strings.hpp"

namespace feast {

namespace {

/// Scales a time to a column within [0, width].
int column_of(Time t, Time span, int width) {
  if (span <= 0.0) return 0;
  const int col = static_cast<int>(static_cast<double>(width) * t / span);
  return std::clamp(col, 0, width);
}

/// Paints [start, finish) with a glyph on a row.
void paint(std::string& row, Time start, Time finish, Time span, int width, char glyph) {
  const int a = column_of(start, span, width);
  const int b = std::max(a + 1, column_of(finish, span, width));
  for (int c = a; c < b && c < static_cast<int>(row.size()); ++c) {
    row[static_cast<std::size_t>(c)] = glyph;
  }
}

/// Glyph for the i-th task on a row: letters cycle a..z, A..Z, 0..9.
char glyph_for(std::size_t i) {
  static const char kGlyphs[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  return kGlyphs[i % (sizeof(kGlyphs) - 1)];
}

}  // namespace

void write_gantt(std::ostream& out, const TaskGraph& graph, const Schedule& schedule,
                 const GanttOptions& options) {
  const Time span = schedule.makespan();
  out << "makespan = " << format_compact(span, 3) << " time units\n";
  const ProcGroups groups = schedule.group_by_proc();
  for (int p = 0; p < schedule.n_procs(); ++p) {
    const std::span<const NodeId> tasks = groups.on(static_cast<std::size_t>(p));
    std::string row(static_cast<std::size_t>(options.width), '.');
    std::vector<std::string> legend;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const TaskPlacement& place = schedule.placement(tasks[i]);
      const char glyph = glyph_for(i);
      paint(row, place.start, place.finish, span, options.width, glyph);
      if (options.show_names) {
        legend.push_back(std::string(1, glyph) + "=" + graph.node(tasks[i]).name);
      }
    }
    out << "P" << p << " |" << row << "|\n";
    if (options.show_names && !legend.empty()) {
      out << "     " << join(legend, " ") << "\n";
    }
  }
  if (options.show_bus) {
    std::string row(static_cast<std::size_t>(options.width), '.');
    bool any = false;
    for (const NodeId comm : graph.communication_nodes()) {
      const TransferRecord& t = schedule.transfer(comm);
      if (!t.crossed_bus || t.finish - t.start <= kTimeEps) continue;
      any = true;
      paint(row, t.start, t.finish, span, options.width, '#');
    }
    if (any) out << "bus|" << row << "|\n";
  }
}

std::string gantt_to_string(const TaskGraph& graph, const Schedule& schedule,
                            const GanttOptions& options) {
  std::ostringstream oss;
  write_gantt(oss, graph, schedule, options);
  return oss.str();
}

void write_schedule_csv(std::ostream& out, const TaskGraph& graph,
                        const DeadlineAssignment& assignment, const Schedule& schedule) {
  CsvWriter csv(out);
  csv.write_row({"kind", "name", "proc", "start", "finish", "release", "abs_deadline",
                 "lateness"});
  for (const NodeId id : graph.computation_nodes()) {
    const TaskPlacement& p = schedule.placement(id);
    csv.write_row({"computation", graph.node(id).name,
                   "P" + std::to_string(p.proc.value), format_compact(p.start, 6),
                   format_compact(p.finish, 6),
                   format_compact(assignment.release(id), 6),
                   format_compact(assignment.abs_deadline(id), 6),
                   format_compact(p.finish - assignment.abs_deadline(id), 6)});
  }
  for (const NodeId id : graph.communication_nodes()) {
    const TransferRecord& t = schedule.transfer(id);
    csv.write_row({"communication", graph.node(id).name,
                   t.crossed_bus ? "bus" : "local", format_compact(t.start, 6),
                   format_compact(t.finish, 6),
                   format_compact(assignment.release(id), 6),
                   format_compact(assignment.abs_deadline(id), 6), ""});
  }
}

}  // namespace feast
