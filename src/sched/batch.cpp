#include "sched/batch.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace feast {

void PreparedTopology::build(const TaskGraph& graph, const Machine& machine) {
  const std::size_t n = graph.node_count();
  graph_ = &graph;
  graph_nodes_ = n;
  time_per_item_ = machine.time_per_item;
  n_procs_ = machine.n_procs;
  n_nodes = n;
  n_subtasks = static_cast<std::uint32_t>(graph.subtask_count());

  exec.assign(n, 0.0);
  eager_floor.assign(n, 0.0);
  pinned.assign(n, ProcId::kInvalid);
  waiting_init.assign(n, 0);
  comm_sink.assign(n, 0);
  pred_offset.assign(n + 1, 0);
  pred_comms.clear();
  succ_offset.assign(n + 1, 0);
  succ_comms.clear();
  comp_ids.clear();
  latency.assign(n, 0.0);

  for (std::uint32_t v = 0; v < n; ++v) {
    const NodeId id(v);
    const Node& node = graph.node(id);
    if (node.kind == NodeKind::Communication) {
      // Same expression as Machine::transfer_time.
      latency[v] = node.message_items * machine.time_per_item;
      comm_sink[v] = graph.comm_sink(id).value;
      pred_offset[v + 1] = static_cast<std::uint32_t>(pred_comms.size());
      succ_offset[v + 1] = static_cast<std::uint32_t>(succ_comms.size());
      continue;
    }
    comp_ids.push_back(v);
    exec[v] = node.exec_time;
    eager_floor[v] =
        is_set(node.boundary_release) ? node.boundary_release : 0.0;
    const ProcId pin = node.pinned;
    FEAST_REQUIRE_MSG(
        !pin.valid() || static_cast<int>(pin.index()) < machine.n_procs,
        "pinned processor outside the machine");
    pinned[v] = pin.value;
    waiting_init[v] = static_cast<std::uint32_t>(graph.preds(id).size());
    // Hoisted predecessor comm list, ascending by node id (the base
    // ordering of the trace contract's (finish, id) commit order).  Arc
    // insertion appends increasing comm ids, so this is a copy in the
    // common case; the insertion pass restores order otherwise.
    const std::size_t flat = pred_comms.size();
    for (const NodeId comm : graph.preds(id)) {
      pred_comms.push_back(comm);
      std::size_t j = pred_comms.size() - 1;
      while (j > flat && comm < pred_comms[j - 1]) {
        pred_comms[j] = pred_comms[j - 1];
        --j;
      }
      pred_comms[j] = comm;
    }
    pred_offset[v + 1] = static_cast<std::uint32_t>(pred_comms.size());
    for (const NodeId comm : graph.succs(id)) succ_comms.push_back(comm);
    succ_offset[v + 1] = static_cast<std::uint32_t>(succ_comms.size());
  }

  // The memoized selection order names this topology's node ids; a rebind
  // to a new graph must drop it even when the key images would collide.
  sel_cache.policy = -1;
}

bool PreparedTopology::matches(const TaskGraph& graph,
                               const Machine& machine) const noexcept {
  return graph_ == &graph && graph_nodes_ == graph.node_count() &&
         n_subtasks == graph.subtask_count() &&
         time_per_item_ == machine.time_per_item &&
         n_procs_ == machine.n_procs;
}

void BatchScheduler::run(
    const TaskGraph* const* graphs, const DeadlineAssignment* const* assignments,
    std::size_t count, const Machine& machine, const SchedulerOptions& options,
    const std::function<void(std::size_t, const Schedule&)>& sink) {
  if (count == 0) return;
  obs::SpanScope span(obs::active(), obs::Span::SchedBatch);
  if (topologies_.size() < count) topologies_.resize(count);
  if (!topologies_[0].matches(*graphs[0], machine)) {
    topologies_[0].build(*graphs[0], machine);
  }
  for (std::size_t i = 0; i < count; ++i) {
    // Pipelined preparation: the next slot's topology is built before this
    // slot's placement, so its SoA arrays are resident when placement gets
    // there — and on a repeated pass over the same batch (the sweep /
    // bench / policy-ablation pattern) every build is skipped outright.
    if (i + 1 < count && !topologies_[i + 1].matches(*graphs[i + 1], machine)) {
      topologies_[i + 1].build(*graphs[i + 1], machine);
    }
    schedule_.reset(*graphs[i], machine);
    list_schedule_prepared(topologies_[i], *assignments[i], machine, options,
                           scratch_, schedule_);
    sink(i, schedule_);
  }
}

const Schedule& BatchScheduler::run_one(const TaskGraph& graph,
                                        const DeadlineAssignment& assignment,
                                        const Machine& machine,
                                        const SchedulerOptions& options) {
  // Always rebuilt: an ad-hoc caller gives no identity guarantee (a new
  // graph can reuse a freed graph's address, which matches() cannot see).
  // The build is one flat walk; the arenas it fills are still reused.
  single_.build(graph, machine);
  schedule_.reset(graph, machine);
  list_schedule_prepared(single_, assignment, machine, options, scratch_,
                         schedule_);
  return schedule_;
}

}  // namespace feast
