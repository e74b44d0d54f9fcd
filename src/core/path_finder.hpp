/// \file path_finder.hpp
/// \brief Critical-path search over the residual (not-yet-assigned) graph.
///
/// Each iteration of the slicing algorithm must find, among all maximal
/// paths of the residual graph, the one that minimizes the metric R
/// (Figure 1, step 3).  FEAST performs this search *exactly* with a dynamic
/// program over (node, effective-hop-count) states:
///
///   best[v][k] = max Σ virtual-cost over residual paths from a source to v
///                that contain exactly k non-negligible nodes.
///
/// For a fixed sink t and hop count k, the PURE-family ratio (W − Σv)/k
/// falls as Σv grows, and so does NORM's W/Σv − 1 whenever the window W is
/// non-negative — so minimizing R over paths reduces to maximizing Σv per
/// (t, k), and the DP is exact, not a heuristic.  (Under NORM an *inverted*
/// window, W < 0, reverses that order: there the search still returns the
/// max-Σv path per (t, k), which tests/test_prop_exactness.cpp documents.)
/// This realizes the paper's "breadth-first traversal" with a per-level
/// table.
///
/// A *residual source* is an unassigned node all of whose predecessors are
/// assigned (its release lower bound lb is known); a *residual sink* is an
/// unassigned node all of whose successors are assigned (its deadline upper
/// bound ub is known).  The available window of a path is ub(sink) −
/// lb(source).  Sources whose lb agree (time_eq) share one DP sweep, an
/// *lb group*; groups are formed in first-appearance order, and the answer
/// is the first group's best candidate that reaches the minimum R.
///
/// Two implementations return the same path, window and ratio, bit for
/// bit: CriticalPathFinder (sparse and incremental: it reads the state's
/// edit log, keeps its lb groups across calls, and a group whose members,
/// lb and cone did not change keeps its answer; the one the distributor
/// runs) and CriticalPathFinderRef (the
/// retained dense sweep it is differentially tested against, see
/// core/diffdist.hpp).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/comm_estimator.hpp"
#include "core/metrics.hpp"
#include "taskgraph/task_graph.hpp"

namespace feast {

/// Mutable bookkeeping of the slicing loop, shared with the path finders.
///
/// Every edit goes through a method.  An edit that changes a bit appends
/// (node, kind) to an append-only log, which CriticalPathFinder reads from
/// where it stopped instead of re-deriving what changed.  Each state
/// carries a serial of its own; a state can move but not be copied, so no
/// two states share a serial and a log.
class ResidualState {
 public:
  /// What an edit changed, as bits of Edit::kind.
  enum : std::uint8_t { kFlag = 1, kLb = 2, kUb = 4 };

  /// One log entry.
  struct Edit {
    std::uint32_t node;  ///< Node index.
    std::uint8_t kind;   ///< kFlag, kLb or kUb.
  };

  explicit ResidualState(std::size_t node_count);
  ResidualState(const ResidualState&) = delete;
  ResidualState& operator=(const ResidualState&) = delete;
  ResidualState(ResidualState&&) = default;
  ResidualState& operator=(ResidualState&&) = default;

  std::size_t node_count() const noexcept { return assigned_.size(); }
  /// True when the node already carries a window.
  bool assigned(NodeId id) const { return assigned_[id.index()] != 0; }
  /// Release lower bound (kUnsetTime = unknown).
  Time lb(NodeId id) const { return lb_[id.index()]; }
  /// Deadline upper bound (kUnsetTime = unknown).
  Time ub(NodeId id) const { return ub_[id.index()]; }

  std::uint64_t serial() const noexcept { return serial_; }
  const std::vector<Edit>& log() const noexcept { return log_; }

  void assign(NodeId id) { set_flag(id, 1); }
  void unassign(NodeId id) { set_flag(id, 0); }
  /// lb = max(lb, t), or t when lb is unset (Figure 1, steps 5–11).
  void raise_lb(NodeId id, Time t) {
    const Time lb = this->lb(id);
    set_lb(id, is_set(lb) ? std::max(lb, t) : t);
  }
  /// ub = min(ub, t), or t when ub is unset.
  void lower_ub(NodeId id, Time t) {
    const Time ub = this->ub(id);
    set_ub(id, is_set(ub) ? std::min(ub, t) : t);
  }
  void set_lb(NodeId id, Time t) { set_time(lb_, id, t, kLb); }
  void set_ub(NodeId id, Time t) { set_time(ub_, id, t, kUb); }

 private:
  void set_flag(NodeId id, std::uint8_t flag) {
    FEAST_REQUIRE(id.index() < node_count());
    if (assigned_[id.index()] == flag) return;
    assigned_[id.index()] = flag;
    log_.push_back({id.value, kFlag});
  }
  void set_time(std::vector<Time>& bound, NodeId id, Time t, std::uint8_t kind) {
    FEAST_REQUIRE(id.index() < node_count());
    Time& slot = bound[id.index()];
    if (std::bit_cast<std::uint64_t>(slot) == std::bit_cast<std::uint64_t>(t)) return;
    slot = t;
    log_.push_back({id.value, kind});
  }

  std::vector<std::uint8_t> assigned_;
  std::vector<Time> lb_;
  std::vector<Time> ub_;
  std::vector<Edit> log_;
  std::uint64_t serial_;
};

/// A critical path found by the search.
struct CriticalPathResult {
  std::vector<NodeId> nodes;  ///< Path members in precedence order.
  Time window_start = 0.0;    ///< lb of the first node.
  Time window_end = 0.0;      ///< ub of the last node.
  PathEvaluation eval;        ///< Window, Σv, effective hops.
  double ratio = 0.0;         ///< The minimized metric value R.
};

/// Machine-independent work counters of a finder, accumulated over every
/// find() since construction (published as dist.* obs counters).
struct FinderStats {
  std::uint64_t lb_groups = 0;  ///< lb groups formed (identical in both finders).
  std::uint64_t dp_cells = 0;   ///< DP cells initialized by the sweeps run.
  std::uint64_t regroups = 0;   ///< find() calls that formed their groups from scratch.
};

/// What both finders share: per-node effective and virtual costs, the
/// full-graph topological order (ValidationReport::order) and the work
/// counters.
class PathFinderBase {
 public:
  /// Effective (real or estimated) cost of a node, as used in the search.
  Time effective_cost(NodeId id) const {
    FEAST_REQUIRE(id.index() < effective_.size());
    return effective_[id.index()];
  }

  /// Virtual cost of a node under the metric.
  Time virtual_cost(NodeId id) const {
    FEAST_REQUIRE(id.index() < virtual_.size());
    return virtual_[id.index()];
  }

  const FinderStats& stats() const noexcept { return stats_; }

 protected:
  PathFinderBase(const TaskGraph& graph, std::vector<NodeId> order,
                 const SliceMetric& metric, const CommCostEstimator& estimator);

  const TaskGraph* graph_;
  const SliceMetric* metric_;
  std::vector<Time> effective_;  ///< Per-node effective cost.
  std::vector<Time> virtual_;    ///< Per-node virtual cost v_i.
  std::vector<NodeId> topo_;     ///< Full-graph topological order.
  FinderStats stats_;
};

/// Exact minimum-R maximal-path search.  Construct once per distribution
/// (after SliceMetric::prepare) and call find() each iteration.
///
/// The search is sparse and incremental:
///  - it reads only the state's log entries it has not seen.  The residual
///    frontier (unassigned-predecessor and -successor counts, the source
///    set by topological position) changes only for the nodes they flip;
///    a state it has not seen replays every node as one edit;
///  - the lb groups persist, in founder order (the founder is a group's
///    member of lowest topological position).  Only the sources that left
///    or joined, the XOR of the source set before and after the flips,
///    edit membership.  Where an edit could change the groups in a way
///    these edits do not reproduce exactly (docs/ALGORITHM.md lists the
///    cases), the groups are formed from scratch as the reference forms
///    them (FinderStats::regroups);
///  - each lb group sweeps only the cone reachable from its sources, in
///    topological order, and each DP row keeps a live hop range [lo, hi]
///    whose cells are filled with −∞ lazily as the range grows;
///  - rows are packed into one flat table, each only as wide as the most
///    effective nodes on any graph path ending at its node;
///  - sinks are scored as the sweep reaches them, and each swept group's
///    best path is read off its parent rows at once;
///  - each group keeps its last sweep (cone, best candidate) and reuses it
///    while its lb and members are unchanged, no node of its cone was
///    assigned or had its ub edited, and no node at all was unassigned.
///    Then its sweep would repeat itself exactly.
/// The DP tables and the groups live in a thread-local scratch reused
/// across finders; a find() by another finder drops the groups.
class CriticalPathFinder : public PathFinderBase {
 public:
  CriticalPathFinder(const TaskGraph& graph, std::vector<NodeId> order,
                     const SliceMetric& metric, const CommCostEstimator& estimator);
  // A copy would share the groups' owner tag but not the frontier.
  CriticalPathFinder(const CriticalPathFinder&) = delete;
  CriticalPathFinder& operator=(const CriticalPathFinder&) = delete;

  /// Finds the minimum-R maximal path of the residual graph, or nullopt
  /// when no unassigned node remains.  Deterministic: ties are broken
  /// toward the first candidate in topological order.  Exact for any
  /// sequence of states, not only the distributor's.
  std::optional<CriticalPathResult> find(const ResidualState& state);

 private:
  /// Takes in log entry (\p node, \p kind) of \p state.
  void apply(const ResidualState& state, std::uint32_t node, std::uint8_t kind);
  /// Flips the assigned flag of the node at topological position \p p.
  void flip(std::uint32_t p, bool assigned);
  /// Recomputes the source bit of the node at position \p p.
  void update_source(std::uint32_t p);
  /// Forms the lb groups of the current sources from scratch, handing each
  /// group's sweep on to the new group with the same lb bits and members.
  void regroup(const ResidualState& state);
  /// Moves the sources that left or joined since the groups were formed
  /// into or out of their groups; false when only regroup() can.
  bool update_groups(const ResidualState& state);

  // Per-graph topology, indexed by topological position.
  std::vector<std::uint32_t> pos_;       ///< Node index → topological position.
  std::vector<std::uint32_t> succ_off_;  ///< CSR offsets into succ_.
  std::vector<std::uint32_t> succ_;      ///< Successor positions, graph.succs order.
  std::vector<std::uint8_t> step_;       ///< 1 when the node is effective.
  std::vector<Time> virt_;               ///< Virtual cost by position.
  std::vector<std::uint32_t> row_off_;   ///< DP row offsets (row p: hop bound + 1 cells).
  std::uint32_t row_cells_ = 0;          ///< Cells of all rows.

  // Residual frontier, kept across find() calls.
  std::vector<std::uint8_t> assigned_;     ///< 1 when assigned, by position.
  std::vector<std::uint32_t> open_preds_;  ///< Unassigned predecessors.
  std::vector<std::uint32_t> open_succs_;  ///< Unassigned successors.
  std::vector<std::uint64_t> sources_;     ///< Residual-source bitset.
  std::vector<std::uint64_t> grouped_;     ///< sources_ as the lb groups hold them.
  std::size_t residual_count_ = 0;
  std::size_t effective_count_ = 0;  ///< Residual nodes with step 1.

  // What the log said since the previous find().
  std::uint64_t state_serial_ = 0;         ///< The state followed...
  std::size_t cursor_ = 0;                 ///< ...and how much of its log was read.
  std::vector<std::uint64_t> touched_;     ///< Positions assigned or given a new ub.
  bool regroup_ = true;                    ///< The groups must be formed from scratch.
  std::uint64_t serial_;                   ///< Tags this finder's groups...
  std::uint64_t finds_ = 0;                ///< ...with the find() count.
};

/// The retained reference search: per find(), every lb group resets and
/// sweeps the whole dense [node][hop] table of the residual graph, and the
/// winner's group is swept once more to rebuild the path.  Returns results
/// bit-identical to CriticalPathFinder — `feastc diffdist` replays
/// randomized distributions through both to enforce this.  Use it as the
/// oracle in tests and benchmarks, not in hot paths.
class CriticalPathFinderRef : public PathFinderBase {
 public:
  CriticalPathFinderRef(const TaskGraph& graph, std::vector<NodeId> order,
                        const SliceMetric& metric, const CommCostEstimator& estimator);

  /// Same contract as CriticalPathFinder::find.
  std::optional<CriticalPathResult> find(const ResidualState& state);

 private:
  // Scratch buffers reused across find() calls (indexed [node][hops]).
  std::vector<std::vector<Time>> best_;
  std::vector<std::vector<NodeId>> parent_;
};

}  // namespace feast
