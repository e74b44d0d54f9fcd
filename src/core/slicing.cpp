#include "core/slicing.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "taskgraph/validate.hpp"

namespace feast {

namespace {

/// The slicing loop of Figure 1, over either critical-path finder.
template <class Finder>
DeadlineAssignment slice(const TaskGraph& graph, SliceMetric& metric,
                         const CommCostEstimator& estimator, SlicingOptions options) {
  ValidationReport report = validate_for_distribution(graph);
  require_valid(report);
  metric.prepare(graph, report.order);
  Finder finder(graph, std::move(report.order), metric, estimator);

  ResidualState state(graph.node_count());
  // Boundary conditions: input subtasks carry their release time, output
  // subtasks their end-to-end deadline (Figure 1, step 1).
  for (const NodeId id : graph.inputs()) {
    state.set_lb(id, graph.node(id).boundary_release);
  }
  for (const NodeId id : graph.outputs()) {
    state.set_ub(id, graph.node(id).boundary_deadline);
  }

  DeadlineAssignment result(graph);
  int iteration = 0;
  std::vector<Time> releases;
  std::vector<Time> rel_deadlines;

  while (auto critical = finder.find(state)) {
    CriticalPathResult& path = *critical;
    FEAST_ASSERT(!path.nodes.empty());
    const double ratio = path.ratio;
    const SlackShare share = metric.share();

    // Distribute the window over the path (Figure 1, step 4): contiguous
    // slices; negligible nodes get zero-width windows at their
    // predecessor's absolute deadline.  Overloaded windows (slack < 0)
    // compress slices proportionally to virtual cost so the slices never
    // spill past the window end; inverted windows (end before start, which
    // cross-path overlaps can produce under heavy overload) degenerate to
    // zero-width slices at the window end.
    const Time window = path.window_end - path.window_start;
    const bool inverted = window < 0.0;
    const bool overloaded = !inverted && path.eval.sum_virtual > window;
    const double compression =
        overloaded && path.eval.sum_virtual > kNegligibleCost
            ? window / path.eval.sum_virtual
            : 1.0;

    Time cursor = inverted ? path.window_end : path.window_start;
    releases.resize(path.nodes.size());
    rel_deadlines.resize(path.nodes.size());
    for (std::size_t i = 0; i < path.nodes.size(); ++i) {
      const NodeId id = path.nodes[i];
      if (options.respect_interior_bounds && is_set(state.lb(id))) {
        cursor = std::max(cursor, state.lb(id));
      }
      const Time v = finder.virtual_cost(id);
      Time d = 0.0;
      if (v > kNegligibleCost && !inverted) {
        d = overloaded ? v * compression : slice_rel_deadline(v, ratio, share);
      }
      releases[i] = cursor;
      rel_deadlines[i] = d;
      cursor += d;
    }
    if (options.respect_interior_bounds) {
      // Backward clamp: no node's absolute deadline may exceed the earliest
      // deadline upper bound of itself or any later path node.
      Time cap = path.window_end;
      for (std::size_t i = path.nodes.size(); i-- > 0;) {
        const NodeId id = path.nodes[i];
        if (is_set(state.ub(id))) cap = std::min(cap, state.ub(id));
        if (releases[i] + rel_deadlines[i] > cap) {
          const Time release = std::min(releases[i], cap);
          releases[i] = release;
          rel_deadlines[i] = std::max(0.0, cap - release);
        }
        cap = releases[i];  // next-earlier node must finish by our release
      }
    }

    for (std::size_t i = 0; i < path.nodes.size(); ++i) {
      result.assign(path.nodes[i], releases[i], rel_deadlines[i], iteration);
    }

    // Attach the rest of the graph to the spine (Figure 1, steps 5–11):
    // unassigned successors inherit a release lower bound, unassigned
    // predecessors a deadline upper bound.  Bounds accumulate across
    // iterations (max for lb, min for ub).
    for (const NodeId id : path.nodes) state.assign(id);
    for (const NodeId id : path.nodes) {
      const Time abs_deadline = result.abs_deadline(id);
      const Time release = result.release(id);
      for (const NodeId succ : graph.succs(id)) {
        if (!state.assigned(succ)) state.raise_lb(succ, abs_deadline);
      }
      for (const NodeId pred : graph.preds(id)) {
        if (!state.assigned(pred)) state.lower_ub(pred, release);
      }
    }

    SlicedPath record;
    record.nodes = std::move(path.nodes);
    record.window_start = path.window_start;
    record.window_end = path.window_end;
    record.ratio = ratio;
    record.iteration = iteration;
    result.record_path(std::move(record));
    ++iteration;
  }

  FEAST_ENSURE(result.complete());
  // Published once per distribution, so an installed sink costs four
  // buffer updates here and nothing inside the search.
  if (obs::Sink* const sink = obs::active()) {
    obs::count_on(sink, obs::Counter::DistIterations,
                  static_cast<std::uint64_t>(iteration));
    obs::count_on(sink, obs::Counter::DistLbGroups, finder.stats().lb_groups);
    obs::count_on(sink, obs::Counter::DistDpCells, finder.stats().dp_cells);
    obs::count_on(sink, obs::Counter::DistRegroups, finder.stats().regroups);
  }
  return result;
}

}  // namespace

DeadlineAssignment distribute_deadlines(const TaskGraph& graph, SliceMetric& metric,
                                        const CommCostEstimator& estimator,
                                        SlicingOptions options) {
  return slice<CriticalPathFinder>(graph, metric, estimator, options);
}

DeadlineAssignment distribute_deadlines_ref(const TaskGraph& graph, SliceMetric& metric,
                                            const CommCostEstimator& estimator,
                                            SlicingOptions options) {
  return slice<CriticalPathFinderRef>(graph, metric, estimator, options);
}

SlicingDistributor::SlicingDistributor(std::unique_ptr<SliceMetric> metric,
                                       std::unique_ptr<CommCostEstimator> estimator,
                                       SlicingOptions options)
    : metric_(std::move(metric)), estimator_(std::move(estimator)), options_(options) {
  FEAST_REQUIRE(metric_ != nullptr);
  FEAST_REQUIRE(estimator_ != nullptr);
}

std::string SlicingDistributor::name() const {
  return metric_->name() + "+" + estimator_->name();
}

DeadlineAssignment SlicingDistributor::distribute(const TaskGraph& graph) {
  return distribute_deadlines(graph, *metric_, *estimator_, options_);
}

std::unique_ptr<Distributor> make_slicing_distributor(
    std::unique_ptr<SliceMetric> metric, std::unique_ptr<CommCostEstimator> estimator,
    SlicingOptions options) {
  return std::make_unique<SlicingDistributor>(std::move(metric), std::move(estimator),
                                              options);
}

}  // namespace feast
