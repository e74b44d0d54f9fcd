/// \file schedule.hpp
/// \brief The result of task assignment and scheduling.
///
/// A Schedule maps every computation subtask to a processor and an
/// execution interval, and every communication subtask to a transfer
/// interval (zero-width when its endpoints are co-located).  It is produced
/// by the list scheduler and consumed by the lateness analysis, the
/// validator and the Gantt renderer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sched/machine.hpp"
#include "taskgraph/task_graph.hpp"
#include "util/time_types.hpp"

namespace feast {

/// Placement of one computation subtask.
struct TaskPlacement {
  ProcId proc;
  Time start = kUnsetTime;
  Time finish = kUnsetTime;

  bool placed() const noexcept { return proc.valid() && is_set(start); }
};

/// Transfer record of one communication subtask.
struct TransferRecord {
  Time start = kUnsetTime;   ///< Departure (producer finish, or bus slot start).
  Time finish = kUnsetTime;  ///< Arrival at the consumer's processor.
  bool crossed_bus = false;  ///< False when endpoints were co-located.

  bool recorded() const noexcept { return is_set(start); }
};

/// The placed computation subtasks of a schedule grouped by processor:
/// group p lists the subtasks on P<p> in start order (ties as std::sort
/// leaves them from id-ordered input, the same on every call).  Filled by
/// Schedule::group_by_proc, which reuses the storage, so a caller keeping
/// one ProcGroups across schedules groups with no allocation once it has
/// grown.
class ProcGroups {
 public:
  /// Number of groups: the schedule's processor count (more only when an
  /// unchecked write placed a subtask beyond it).
  std::size_t size() const noexcept { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  /// Subtasks on processor \p p, sorted by start.
  std::span<const NodeId> on(std::size_t p) const noexcept {
    return {ids_.data() + offsets_[p], ids_.data() + offsets_[p + 1]};
  }

 private:
  friend class Schedule;
  std::vector<std::uint32_t> offsets_;  ///< Group p is ids_[offsets_[p], offsets_[p + 1]).
  std::vector<NodeId> ids_;
};

/// A complete schedule over one task graph and machine.
class Schedule {
 public:
  Schedule() = default;

  /// Creates an empty schedule sized for \p graph on \p machine.
  Schedule(const TaskGraph& graph, const Machine& machine)
      : placements_(graph.node_count()),
        transfers_(graph.node_count()),
        n_procs_(machine.n_procs) {}

  /// Number of processors of the machine this schedule targets.
  int n_procs() const noexcept { return n_procs_; }

  /// Records the placement of a computation subtask.  Inline: called once
  /// per subtask on the scheduler hot path, and the precondition checks
  /// alone are worth keeping out of a call.
  void place(NodeId id, ProcId proc, Time start, Time finish) {
    FEAST_REQUIRE(id.index() < placements_.size());
    FEAST_REQUIRE(proc.valid() && static_cast<int>(proc.index()) < n_procs_);
    FEAST_REQUIRE(is_set(start) && is_set(finish));
    FEAST_REQUIRE_MSG(time_le(start, finish), "finish precedes start");
    FEAST_REQUIRE_MSG(!placements_[id.index()].placed(), "subtask already placed");
    ++placed_count_;
    placements_[id.index()] = TaskPlacement{proc, start, finish};
    if (finish > makespan_) makespan_ = finish;
  }

  /// Records the transfer of a communication subtask (also hot; see place).
  void record_transfer(NodeId id, Time start, Time finish, bool crossed_bus) {
    FEAST_REQUIRE(id.index() < transfers_.size());
    FEAST_REQUIRE(is_set(start) && is_set(finish));
    FEAST_REQUIRE_MSG(time_le(start, finish), "transfer finish precedes start");
    FEAST_REQUIRE_MSG(!transfers_[id.index()].recorded(), "transfer already recorded");
    ++transfer_count_;
    transfers_[id.index()] = TransferRecord{start, finish, crossed_bus};
  }

  /// place() without the per-call contract checks — the optimized core's
  /// commit path, where ids and intervals come from the scheduler's own
  /// arrays and ~200 checked writes per run were measurable.  Safety is
  /// retained one level up: list_schedule postconditions complete(), the
  /// validator re-derives every interval, and the differential oracle
  /// pins the whole trace against the checked reference core.
  void place_unchecked(NodeId id, ProcId proc, Time start, Time finish) noexcept {
    // Count only first placements (branchless), so the O(1) complete()
    // below cannot be fooled by a double write to one slot.
    placed_count_ += placements_[id.index()].placed() ? 0 : 1;
    placements_[id.index()] = TaskPlacement{proc, start, finish};
    if (finish > makespan_) makespan_ = finish;
  }

  /// record_transfer() without the per-call contract checks (see
  /// place_unchecked).
  void record_transfer_unchecked(NodeId id, Time start, Time finish,
                                 bool crossed_bus) noexcept {
    transfer_count_ += transfers_[id.index()].recorded() ? 0 : 1;
    transfers_[id.index()] = TransferRecord{start, finish, crossed_bus};
  }

  /// Re-empties the schedule for \p graph on \p machine, reusing the
  /// existing allocations (batch arenas reschedule through one Schedule
  /// with zero steady-state allocation).  Observationally the post-state
  /// is that of Schedule(graph, machine): when the node count is unchanged
  /// only the placed()/recorded() markers are cleared, and every accessor
  /// gates on those markers, so the stale interval fields of a previous
  /// run are unreachable until overwritten.
  void reset(const TaskGraph& graph, const Machine& machine) {
    if (placements_.size() == graph.node_count()) {
      for (TaskPlacement& p : placements_) p.proc = ProcId();
      for (TransferRecord& t : transfers_) t.start = kUnsetTime;
    } else {
      placements_.assign(graph.node_count(), TaskPlacement{});
      transfers_.assign(graph.node_count(), TransferRecord{});
    }
    n_procs_ = machine.n_procs;
    makespan_ = 0.0;
    placed_count_ = 0;
    transfer_count_ = 0;
  }

  /// Placement of a computation subtask (must be placed).  Inline: the
  /// validator and the lateness analysis read every placement of every
  /// schedule.
  const TaskPlacement& placement(NodeId id) const {
    FEAST_REQUIRE(id.index() < placements_.size());
    const TaskPlacement& p = placements_[id.index()];
    FEAST_REQUIRE_MSG(p.placed(), "subtask not placed");
    return p;
  }

  /// Transfer record of a communication subtask (must be recorded).
  const TransferRecord& transfer(NodeId id) const {
    FEAST_REQUIRE(id.index() < transfers_.size());
    const TransferRecord& t = transfers_[id.index()];
    FEAST_REQUIRE_MSG(t.recorded(), "transfer not recorded");
    return t;
  }

  /// True when \p id has been placed/recorded.
  bool scheduled(NodeId id) const {
    FEAST_REQUIRE(id.index() < placements_.size());
    return placements_[id.index()].placed() || transfers_[id.index()].recorded();
  }

  /// True when every node of \p graph is covered.
  bool complete(const TaskGraph& graph) const;

  /// Completion time of the latest computation subtask; 0 when empty.
  /// O(1): place() maintains the running maximum (placements are never
  /// retracted, so the incremental and recomputed maxima coincide).
  Time makespan() const noexcept { return makespan_; }

  /// Groups the placed computation subtasks by processor into \p out in
  /// one counting pass plus one sort per group: O(n log n) for the whole
  /// machine, reusing \p out's storage.
  void group_by_proc(ProcGroups& out) const;

  /// group_by_proc into fresh storage.
  ProcGroups group_by_proc() const {
    ProcGroups out;
    group_by_proc(out);
    return out;
  }

  /// Total busy time of \p proc.
  Time busy_time(ProcId proc) const;

  /// Fraction of [0, makespan] each processor computes, averaged.
  double average_utilization() const;

 private:
  std::vector<TaskPlacement> placements_;
  std::vector<TransferRecord> transfers_;
  int n_procs_ = 0;
  Time makespan_ = 0.0;  ///< Running max of placed finishes.
  // Distinct placed/recorded nodes, for the O(1) complete() fast path
  // (complete() runs as a postcondition on every scheduled graph, and the
  // full walk was measurable on the batch hot path).
  std::size_t placed_count_ = 0;
  std::size_t transfer_count_ = 0;
};

}  // namespace feast
