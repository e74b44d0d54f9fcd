#include "sched/schedule.hpp"

#include <algorithm>

namespace feast {

bool Schedule::complete(const TaskGraph& graph) const {
  // O(1) fast path: the counters track *distinct* placed/recorded nodes
  // (writers only count a slot's first write), so requiring the placed
  // count to equal the subtask count and the two together to cover every
  // node rules out the unchecked writers' realistic failure modes — a
  // double write or a missed node.  (A writer addressing a node of the
  // wrong kind could still satisfy the counts; that corrupts the trace
  // itself and is caught by the validator and the differential oracle.)
  // This runs as a postcondition on every scheduled graph on the batch
  // hot path, where the full walk was measurable.
  if (placements_.size() == graph.node_count() &&
      placed_count_ + transfer_count_ == graph.node_count() &&
      placed_count_ == graph.subtask_count()) {
    return true;
  }
  // Walk node ids directly: computation_nodes()/communication_nodes()
  // materialize fresh vectors, and this check runs once per scheduled
  // graph on the experiment hot path.
  for (std::uint32_t v = 0; v < graph.node_count(); ++v) {
    const NodeId id(v);
    if (graph.is_computation(id)) {
      if (id.index() >= placements_.size() || !placements_[id.index()].placed()) {
        return false;
      }
    } else if (id.index() >= transfers_.size() || !transfers_[id.index()].recorded()) {
      return false;
    }
  }
  return true;
}

void Schedule::group_by_proc(ProcGroups& out) const {
  // Counting sort by processor: group p's count lands in offsets[p + 2], so
  // after the prefix sum offsets[p + 1] is group p's first slot, and the
  // fill below advances it to group p's end — leaving offsets[0..P] as the
  // CSR offsets with one spare entry to drop.
  std::vector<std::uint32_t>& offsets = out.offsets_;
  offsets.assign(static_cast<std::size_t>(n_procs_) + 2, 0);
  for (const TaskPlacement& p : placements_) {
    if (!p.placed()) continue;
    // Only an unchecked write can place beyond the machine; keep it visible.
    if (p.proc.index() + 2 >= offsets.size()) offsets.resize(p.proc.index() + 3, 0);
    ++offsets[p.proc.index() + 2];
  }
  for (std::size_t g = 2; g < offsets.size(); ++g) offsets[g] += offsets[g - 1];
  out.ids_.resize(offsets.back());
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (!placements_[i].placed()) continue;
    out.ids_[offsets[placements_[i].proc.index() + 1]++] =
        NodeId(static_cast<std::uint32_t>(i));
  }
  offsets.pop_back();
  // Groups are filled in id order, so std::sort leaves ties in the same
  // order on every call.
  for (std::size_t g = 0; g + 1 < offsets.size(); ++g) {
    std::sort(out.ids_.begin() + offsets[g], out.ids_.begin() + offsets[g + 1],
              [&](NodeId a, NodeId b) {
                return placements_[a.index()].start < placements_[b.index()].start;
              });
  }
}

Time Schedule::busy_time(ProcId proc) const {
  Time busy = 0.0;
  for (const TaskPlacement& p : placements_) {
    if (p.placed() && p.proc == proc) busy += p.finish - p.start;
  }
  return busy;
}

double Schedule::average_utilization() const {
  const Time span = makespan();
  if (span <= 0.0 || n_procs_ == 0) return 0.0;
  Time busy = 0.0;
  for (const TaskPlacement& p : placements_) {
    if (p.placed()) busy += p.finish - p.start;
  }
  return busy / (span * static_cast<double>(n_procs_));
}

}  // namespace feast
