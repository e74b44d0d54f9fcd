/// \file metrics.hpp
/// \brief Laxity-ratio metrics for critical-path evaluation (§6 and §7).
///
/// A metric R maps a candidate path Φ — its available window D_Φ, the costs
/// of its nodes, and its hop count n_Φ — to a scalar; the path *minimizing*
/// R is the critical path sliced next.  The same metric then dictates how
/// the window is divided into per-subtask relative deadlines:
///
///  - **NORM** (BST): R = (D_Φ − Σc) / Σc, d_i = c_i (1 + R) — slack
///    proportional to execution time.
///  - **PURE** (BST): R = (D_Φ − Σc) / n_Φ, d_i = c_i + R — equal slack
///    share per subtask.
///  - **THRES** (AST): PURE over *virtual* execution times
///    c′ = c < c_thres ? c : c (1 + Δ) — subtasks above the execution-time
///    threshold receive an extra, fixed surplus Δ.
///  - **ADAPT** (AST): THRES with the surplus replaced by ξ / N_proc, the
///    ratio of average task-graph parallelism to system size — extra slack
///    adapts to how much parallelism the machine can actually exploit.
///
/// Communication subtasks participate with their *estimated* cost (see
/// comm_estimator.hpp); nodes whose cost is negligible are excluded from
/// the hop count and receive zero-width windows, per §4.2.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "taskgraph/task_graph.hpp"
#include "util/time_types.hpp"

namespace feast {

/// How a metric divides a path's slack among its subtasks.
enum class SlackShare {
  PerEffectiveHop,     ///< d_i = v_i + R  (PURE family).
  ProportionalToCost,  ///< d_i = v_i (1 + R)  (NORM).
};

/// Aggregate quantities of one candidate path.
struct PathEvaluation {
  Time window = 0.0;       ///< D_Φ: ub(last) − lb(first).
  Time sum_virtual = 0.0;  ///< Σ v_i over effective nodes.
  int effective_hops = 0;  ///< n_Φ: nodes with non-negligible cost.
};

/// Cost below which a node is treated as negligible (gets a zero-width
/// window and does not count as a hop).
inline constexpr Time kNegligibleCost = 1e-9;

/// The laxity ratio R of a path; +infinity when the divisor is zero (a path
/// of only negligible nodes), so such paths are sliced last.
double slice_ratio(const PathEvaluation& eval, SlackShare share) noexcept;

/// The relative deadline granted to a node with virtual cost \p v on a path
/// with ratio \p ratio.  Clamped at zero: an over-subscribed window never
/// produces negative relative deadlines.
Time slice_rel_deadline(Time v, double ratio, SlackShare share) noexcept;

/// Strategy interface for the distribution metrics.
class SliceMetric {
 public:
  virtual ~SliceMetric() = default;

  /// Identifier including parameters, e.g. "THRES(d=1,th=1.25MET)".
  virtual std::string name() const = 0;

  /// Called once per distribution with the full graph and its topological
  /// order (ValidationReport::order); computes graph-dependent parameters
  /// (thresholds, parallelism).
  virtual void prepare(const TaskGraph& graph, std::span<const NodeId> order);

  /// prepare() for a caller without the order at hand: sorts the graph
  /// first.  Precondition: acyclic.
  void prepare(const TaskGraph& graph);

  /// Virtual cost v_i of a node given its effective (real or estimated)
  /// cost.  Must be >= effective_cost and 0 when effective_cost is 0.
  virtual Time virtual_cost(const TaskGraph& graph, NodeId id,
                            Time effective_cost) const = 0;

  /// Slack-sharing rule of this metric.
  virtual SlackShare share() const noexcept = 0;
};

/// BST's normalized laxity ratio.
class NormMetric final : public SliceMetric {
 public:
  std::string name() const override { return "NORM"; }
  Time virtual_cost(const TaskGraph& graph, NodeId id, Time effective_cost) const override;
  SlackShare share() const noexcept override { return SlackShare::ProportionalToCost; }
};

/// BST's pure laxity ratio.
class PureMetric final : public SliceMetric {
 public:
  std::string name() const override { return "PURE"; }
  Time virtual_cost(const TaskGraph& graph, NodeId id, Time effective_cost) const override;
  SlackShare share() const noexcept override { return SlackShare::PerEffectiveHop; }
};

/// AST's threshold laxity ratio with a fixed surplus factor Δ.
class ThresMetric final : public SliceMetric {
 public:
  /// \p surplus is Δ; \p threshold_factor scales the graph MET into c_thres
  /// (the paper recommends values near 1, and uses 1.25 for Figure 5).
  ThresMetric(double surplus, double threshold_factor = 1.25);

  std::string name() const override;
  using SliceMetric::prepare;
  void prepare(const TaskGraph& graph, std::span<const NodeId> order) override;
  Time virtual_cost(const TaskGraph& graph, NodeId id, Time effective_cost) const override;
  SlackShare share() const noexcept override { return SlackShare::PerEffectiveHop; }

  /// The concrete threshold computed by prepare() (for tests).
  Time threshold() const noexcept { return threshold_; }

 private:
  double surplus_;
  double threshold_factor_;
  Time threshold_ = 0.0;
};

/// AST's adaptive laxity ratio: surplus ξ / N_proc.
class AdaptMetric final : public SliceMetric {
 public:
  AdaptMetric(int n_procs, double threshold_factor = 1.25);

  std::string name() const override;
  using SliceMetric::prepare;
  void prepare(const TaskGraph& graph, std::span<const NodeId> order) override;
  Time virtual_cost(const TaskGraph& graph, NodeId id, Time effective_cost) const override;
  SlackShare share() const noexcept override { return SlackShare::PerEffectiveHop; }

  /// The surplus ξ / N_proc computed by prepare() (for tests).
  double surplus() const noexcept { return surplus_; }

  /// The concrete threshold computed by prepare() (for tests).
  Time threshold() const noexcept { return threshold_; }

 private:
  int n_procs_;
  double threshold_factor_;
  double surplus_ = 0.0;
  Time threshold_ = 0.0;
};

/// Factory helpers mirroring the paper's metric names.
std::unique_ptr<SliceMetric> make_norm();
std::unique_ptr<SliceMetric> make_pure();
std::unique_ptr<SliceMetric> make_thres(double surplus, double threshold_factor = 1.25);
std::unique_ptr<SliceMetric> make_adapt(int n_procs, double threshold_factor = 1.25);

}  // namespace feast
