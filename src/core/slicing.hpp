/// \file slicing.hpp
/// \brief The deadline-distribution algorithm of Figure 1 in the paper.
///
/// The algorithm repeatedly:
///   1. finds the critical path Φ of the residual graph minimizing the
///      metric R (exact search, see path_finder.hpp);
///   2. distributes Φ's available window [lb(first), ub(last)] over Φ's
///      subtasks as contiguous, non-overlapping slices whose relative
///      deadlines follow the metric's slack-sharing rule — communication
///      subtasks with negligible (estimated) cost receive zero-width
///      windows at their predecessor's absolute deadline;
///   3. attaches the rest of the graph to the new "spine": every unassigned
///      successor of an assigned node tightens its release lower bound to
///      the node's absolute deadline, every unassigned predecessor tightens
///      its deadline upper bound to the node's release (Figure 1 steps
///      5–11, following the prose of §4.2);
///   4. removes Φ from the residual set and repeats until no subtask
///      remains.
///
/// Deadline distribution runs *before* task assignment: only the graph,
/// the metric and a communication-cost estimator are consulted — never a
/// processor mapping.
#pragma once

#include <memory>
#include <string>

#include "core/annotation.hpp"
#include "core/comm_estimator.hpp"
#include "core/distributor.hpp"
#include "core/metrics.hpp"
#include "core/path_finder.hpp"
#include "taskgraph/task_graph.hpp"

namespace feast {

/// Options of the distributor.
struct SlicingOptions {
  /// When true, the sequential window assignment along a sliced path also
  /// respects release lower bounds that *interior* path nodes acquired from
  /// earlier iterations, and clamps trailing windows to interior deadline
  /// upper bounds.  The paper's basic algorithm does not (windows of
  /// precedence-related subtasks in different paths may overlap); this is
  /// the FEAST extension evaluated by the arc-monotonicity ablation.
  bool respect_interior_bounds = false;
};

/// Distributes the end-to-end deadlines of \p graph over its subtasks.  Both
/// strategies are borrowed; the metric is non-const because it is prepared
/// against \p graph (thresholds, parallelism).  Validates \p graph first,
/// once (validate_for_distribution; throws ContractViolation on a problem),
/// and searches in the validator's topological order.  Postcondition: the
/// result is complete() and every output subtask's absolute deadline is at
/// most its boundary deadline.
DeadlineAssignment distribute_deadlines(const TaskGraph& graph, SliceMetric& metric,
                                        const CommCostEstimator& estimator,
                                        SlicingOptions options = {});

/// The same algorithm driven by the retained reference critical-path search
/// (CriticalPathFinderRef).  Produces an assignment byte-identical to
/// distribute_deadlines — `feastc diffdist` (core/diffdist.hpp) enforces
/// this.  Use it as the oracle in tests and benchmarks, not in hot paths.
DeadlineAssignment distribute_deadlines_ref(const TaskGraph& graph, SliceMetric& metric,
                                            const CommCostEstimator& estimator,
                                            SlicingOptions options = {});

/// Owning Distributor adapter over the slicing algorithm, for heterogeneous
/// strategy sets in benches and the experiment runner.
class SlicingDistributor final : public Distributor {
 public:
  SlicingDistributor(std::unique_ptr<SliceMetric> metric,
                     std::unique_ptr<CommCostEstimator> estimator,
                     SlicingOptions options = {});

  std::string name() const override;
  DeadlineAssignment distribute(const TaskGraph& graph) override;

 private:
  std::unique_ptr<SliceMetric> metric_;
  std::unique_ptr<CommCostEstimator> estimator_;
  SlicingOptions options_;
};

/// Factory for the common (metric, estimator) combination.
std::unique_ptr<Distributor> make_slicing_distributor(
    std::unique_ptr<SliceMetric> metric, std::unique_ptr<CommCostEstimator> estimator,
    SlicingOptions options = {});

}  // namespace feast
