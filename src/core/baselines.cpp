#include "core/baselines.hpp"

#include <algorithm>
#include <vector>

#include "taskgraph/validate.hpp"

namespace feast {

namespace {

/// Per-node ASAP/ALAP bounds under estimated costs.
struct TimeBounds {
  std::vector<Time> est;  ///< Earliest start.
  std::vector<Time> eft;  ///< Earliest finish (est + effective cost).
  std::vector<Time> lft;  ///< Latest finish meeting every boundary deadline.
  std::vector<Time> ud;   ///< Ultimate deadline: min reachable boundary deadline.
};

/// Validates \p graph for distribution (the baselines' one validation)
/// and computes its bounds in the validator's topological order.
TimeBounds compute_bounds(const TaskGraph& graph, const CommCostEstimator& estimator) {
  const ValidationReport report = validate_for_distribution(graph);
  require_valid(report);
  const std::vector<NodeId>& order = report.order;

  std::vector<Time> eff(graph.node_count(), 0.0);
  for (const NodeId id : graph.all_nodes()) {
    eff[id.index()] = graph.is_computation(id) ? graph.node(id).exec_time
                                               : estimator.estimate(graph, id);
  }

  TimeBounds b;
  b.est.assign(graph.node_count(), 0.0);
  b.eft.assign(graph.node_count(), 0.0);
  b.lft.assign(graph.node_count(), kInfiniteTime);
  b.ud.assign(graph.node_count(), kInfiniteTime);

  for (const NodeId id : order) {
    Time est = 0.0;
    if (graph.preds(id).empty()) {
      est = graph.node(id).boundary_release;
      FEAST_ASSERT(is_set(est));
    } else {
      for (const NodeId pred : graph.preds(id)) {
        est = std::max(est, b.eft[pred.index()]);
      }
    }
    b.est[id.index()] = est;
    b.eft[id.index()] = est + eff[id.index()];
  }

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId id = *it;
    Time lft = kInfiniteTime;
    Time ud = kInfiniteTime;
    if (graph.succs(id).empty()) {
      lft = graph.node(id).boundary_deadline;
      ud = lft;
      FEAST_ASSERT(is_set(lft));
    } else {
      for (const NodeId succ : graph.succs(id)) {
        lft = std::min(lft, b.lft[succ.index()] - eff[succ.index()]);
        ud = std::min(ud, b.ud[succ.index()]);
      }
    }
    b.lft[id.index()] = lft;
    b.ud[id.index()] = ud;
  }
  return b;
}

}  // namespace

UltimateDeadlineDistributor::UltimateDeadlineDistributor(const CommCostEstimator& estimator)
    : estimator_(&estimator) {}

std::string UltimateDeadlineDistributor::name() const {
  return "UD+" + estimator_->name();
}

DeadlineAssignment UltimateDeadlineDistributor::distribute(const TaskGraph& graph) {
  const TimeBounds b = compute_bounds(graph, *estimator_);
  DeadlineAssignment result(graph);
  for (const NodeId id : graph.all_nodes()) {
    const Time r = b.est[id.index()];
    const Time d = std::max(0.0, b.ud[id.index()] - r);
    result.assign(id, r, d, 0);
  }
  return result;
}

EffectiveDeadlineDistributor::EffectiveDeadlineDistributor(const CommCostEstimator& estimator)
    : estimator_(&estimator) {}

std::string EffectiveDeadlineDistributor::name() const {
  return "ED+" + estimator_->name();
}

DeadlineAssignment EffectiveDeadlineDistributor::distribute(const TaskGraph& graph) {
  const TimeBounds b = compute_bounds(graph, *estimator_);
  DeadlineAssignment result(graph);
  for (const NodeId id : graph.all_nodes()) {
    const Time r = b.est[id.index()];
    const Time d = std::max(0.0, b.lft[id.index()] - r);
    result.assign(id, r, d, 0);
  }
  return result;
}

ProportionalDistributor::ProportionalDistributor(const CommCostEstimator& estimator)
    : estimator_(&estimator) {}

std::string ProportionalDistributor::name() const {
  return "PROP+" + estimator_->name();
}

DeadlineAssignment ProportionalDistributor::distribute(const TaskGraph& graph) {
  const TimeBounds b = compute_bounds(graph, *estimator_);

  Time origin = kInfiniteTime;
  for (const NodeId id : graph.inputs()) {
    origin = std::min(origin, graph.node(id).boundary_release);
  }
  Time makespan_end = -kInfiniteTime;
  Time deadline = kInfiniteTime;
  for (const NodeId id : graph.outputs()) {
    makespan_end = std::max(makespan_end, b.eft[id.index()]);
    deadline = std::min(deadline, graph.node(id).boundary_deadline);
  }
  const Time span = makespan_end - origin;
  const double scale = span > kTimeEps ? (deadline - origin) / span : 1.0;

  DeadlineAssignment result(graph);
  for (const NodeId id : graph.all_nodes()) {
    const Time r = origin + (b.est[id.index()] - origin) * scale;
    const Time finish = origin + (b.eft[id.index()] - origin) * scale;
    result.assign(id, r, std::max(0.0, finish - r), 0);
  }
  return result;
}

std::unique_ptr<Distributor> make_ultimate_deadline(const CommCostEstimator& estimator) {
  return std::make_unique<UltimateDeadlineDistributor>(estimator);
}

std::unique_ptr<Distributor> make_effective_deadline(const CommCostEstimator& estimator) {
  return std::make_unique<EffectiveDeadlineDistributor>(estimator);
}

std::unique_ptr<Distributor> make_proportional(const CommCostEstimator& estimator) {
  return std::make_unique<ProportionalDistributor>(estimator);
}

}  // namespace feast
