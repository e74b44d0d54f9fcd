/// \file batch.hpp
/// \brief Prepared graph topologies and the batch scheduling entry point.
///
/// The experiment pipeline reschedules the *same* graphs over and over: a
/// figure-2 cell runs a 128-graph batch per (strategy, size) pair, the
/// policy sweeps replay one batch under 12 policy combinations, and the
/// iterative refiner reschedules one graph per iteration.  The TaskGraph
/// representation those reschedules walk is an AoS of ~128-byte Nodes
/// (name strings, per-node pred/succ vectors) — cache-hostile for a
/// scheduler whose whole run touches every node several times.
///
/// PreparedTopology flattens the assignment-independent part of a
/// (graph, machine) pair into SoA arrays once — CSR predecessor and
/// successor comm lists, packed execution times, transfer latencies,
/// pinning, release floors — so a scheduling run reads contiguous arrays
/// only, and repeated runs over the same graph skip graph preparation
/// entirely.  The per-assignment part (release floors under the policy,
/// selection keys) is rebuilt per run from the packed windows; the sorted
/// selection order it implies is memoized per topology and revalidated
/// against the fresh keys, so replaying an assignment skips the sort.
///
/// BatchScheduler is the batch entry point: it owns one set of arenas
/// (prepared topologies per slot, one SchedulerScratch, one reusable
/// Schedule) and pipelines graph preparation against placement — the next
/// slot's topology is prepared while the current schedule is still being
/// consumed, and a repeated pass over the same batch runs placement only.
/// Steady state performs zero heap allocation per run (asserted by
/// tests/test_sched_batch.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/annotation.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/machine.hpp"
#include "sched/schedule.hpp"
#include "taskgraph/task_graph.hpp"

namespace feast {

/// Assignment-independent SoA mirror of one (graph, machine) pair.  All
/// arrays are indexed by node id unless noted; members are public for the
/// scheduler core, like SchedulerScratch.  build() is grow-only: rebinding
/// a topology to a new pair reuses every buffer.
class PreparedTopology {
 public:
  /// Flattens \p graph for \p machine.  Validates pins against the
  /// machine's processor count (the per-run check list_schedule used to
  /// do).  The graph and machine are borrowed: the topology is valid only
  /// while both outlive it unmodified.
  void build(const TaskGraph& graph, const Machine& machine);

  /// True when this topology was built for exactly (\p graph, \p machine)
  /// — same graph object, same shape, same transfer rate and processor
  /// count.  An advisory identity check for arena reuse: callers that
  /// rebuild graphs in place must rebuild the topology too.
  bool matches(const TaskGraph& graph, const Machine& machine) const noexcept;

  /// The graph this topology mirrors (nullptr before the first build()).
  const TaskGraph* source_graph() const noexcept { return graph_; }

  std::size_t n_nodes = 0;        ///< graph.node_count() at build time.
  std::uint32_t n_subtasks = 0;   ///< Computation-subtask count.

  // --- per-node arrays (sized n_nodes) ---------------------------------
  std::vector<Time> exec;          ///< Nominal execution time (0 for comm).
  std::vector<Time> latency;       ///< Transfer latency (comm slots).
  std::vector<Time> eager_floor;   ///< Eager release floor (comp slots).
  std::vector<std::uint32_t> pinned;        ///< ProcId value or kInvalid.
  std::vector<std::uint32_t> waiting_init;  ///< Predecessor counts (comp).
  std::vector<std::uint32_t> comm_sink;     ///< Consumer id (comm slots).

  // --- CSR comm lists (offsets sized n_nodes + 1) ----------------------
  std::vector<std::uint32_t> pred_offset;  ///< Into pred_comms.
  std::vector<NodeId> pred_comms;  ///< Incoming comms, ascending by id.
  std::vector<std::uint32_t> succ_offset;  ///< Into succ_comms.
  std::vector<NodeId> succ_comms;  ///< Outgoing comms, insertion order.

  /// Computation-node ids in id order (the packed ↔ graph index map for
  /// lateness/stats reductions).
  std::vector<std::uint32_t> comp_ids;

  // --- selection-order cache (assignment-dependent) --------------------
  /// The scheduler's per-run precomputation — release floors, selection
  /// keys, the sorted priority order — depends only on the deadline
  /// windows and the run's policies, not on the machine, and the
  /// experiment pipeline replays one assignment across repetitions,
  /// processor counts and contention models.  prepare() memoizes all of it
  /// here, keyed by the raw window images: a run whose (release,
  /// rel_deadline) bit images equal the cached run's entry for entry under
  /// the same policy tag reuses floors and permutation outright (keys and
  /// floors are pure functions of the windows, the topology's static
  /// arrays and the policies, and the sort is deterministic, so everything
  /// cached is bit-identical to recomputing).  Mutable under the same
  /// thread contract as build(): one scheduling thread per topology
  /// instance.
  struct SelectionCache {
    std::vector<std::uint64_t> win_rel;  ///< Window release image per comp index.
    std::vector<std::uint64_t> win_dl;   ///< Window deadline image per comp index.
    std::vector<Time> floor;             ///< Release floor per node id (comp slots).
    std::vector<NodeId> order;           ///< Rank -> subtask id.
    std::vector<std::uint32_t> rank;     ///< Node id -> rank (comp slots).
    /// Initial ready bitset over ranks (subtasks with no predecessors).
    /// A pure function of (waiting_init, order), so it rides the same
    /// validation as the permutation itself.
    std::vector<std::uint64_t> seed_words;
    std::uint32_t seed_count = 0;        ///< Set bits in seed_words.
    /// (SelectionPolicy << 1) | time-driven-release; -1 empty.  Both
    /// policies participate: keys depend on selection, floors on release.
    int policy = -1;
  };
  mutable SelectionCache sel_cache;

 private:
  const TaskGraph* graph_ = nullptr;
  std::size_t graph_nodes_ = 0;
  double time_per_item_ = -1.0;
  int n_procs_ = 0;
};

/// Schedules with the optimized core over a prepared topology into a
/// caller-owned Schedule (already reset for the topology's graph and
/// machine).  The core of list_schedule and BatchScheduler::run; exposed
/// so arena-owning callers can compose the pieces.  Trace-identical to
/// list_schedule_ref under the contract of list_scheduler_detail.hpp.
void list_schedule_prepared(const PreparedTopology& topology,
                            const DeadlineAssignment& assignment,
                            const Machine& machine,
                            const SchedulerOptions& options,
                            SchedulerScratch& scratch, Schedule& out);

/// Batch scheduling entry point: shared arenas, zero per-run allocation in
/// steady state, preparation pipelined against placement.  Not
/// thread-safe; one instance per worker thread (run_once keeps one in TLS,
/// which is how run_cell, campaigns and serve workers pick it up).
class BatchScheduler {
 public:
  BatchScheduler() = default;

  /// Schedules graphs[i] under assignments[i] on (\p machine, \p options)
  /// for i in [0, count), invoking \p sink(i, schedule) after each run.
  /// The Schedule reference is owned by the arena and valid only during
  /// the callback.  Topologies are reused across calls slot for slot:
  /// passing the same batch again (the sweep/bench pattern) skips every
  /// graph preparation.
  void run(const TaskGraph* const* graphs,
           const DeadlineAssignment* const* assignments, std::size_t count,
           const Machine& machine, const SchedulerOptions& options,
           const std::function<void(std::size_t, const Schedule&)>& sink);

  /// Single-graph form sharing the same arenas: prepares (or reuses) one
  /// topology and returns the arena schedule, valid until the next call.
  /// This is run_once's fast path.
  const Schedule& run_one(const TaskGraph& graph,
                          const DeadlineAssignment& assignment,
                          const Machine& machine,
                          const SchedulerOptions& options);

 private:
  std::vector<PreparedTopology> topologies_;  ///< One per batch slot.
  PreparedTopology single_;                   ///< run_one's slot.
  SchedulerScratch scratch_;
  Schedule schedule_;
};

}  // namespace feast
