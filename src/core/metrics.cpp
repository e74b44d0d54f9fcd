#include "core/metrics.hpp"

#include <algorithm>

#include "taskgraph/algorithms.hpp"
#include "util/strings.hpp"

namespace feast {

double slice_ratio(const PathEvaluation& eval, SlackShare share) noexcept {
  const Time slack = eval.window - eval.sum_virtual;
  switch (share) {
    case SlackShare::PerEffectiveHop:
      if (eval.effective_hops == 0) return kInfiniteTime;
      return slack / static_cast<double>(eval.effective_hops);
    case SlackShare::ProportionalToCost:
      if (eval.sum_virtual <= kNegligibleCost) return kInfiniteTime;
      return slack / eval.sum_virtual;
  }
  return kInfiniteTime;
}

Time slice_rel_deadline(Time v, double ratio, SlackShare share) noexcept {
  Time d = 0.0;
  switch (share) {
    case SlackShare::PerEffectiveHop:
      d = v + ratio;
      break;
    case SlackShare::ProportionalToCost:
      d = v * (1.0 + ratio);
      break;
  }
  return std::max(d, 0.0);
}

void SliceMetric::prepare(const TaskGraph& graph, std::span<const NodeId> order) {
  (void)graph;
  (void)order;
}

void SliceMetric::prepare(const TaskGraph& graph) {
  const auto order = topological_order(graph);
  FEAST_REQUIRE_MSG(order.has_value(), "a metric is prepared on an acyclic graph");
  prepare(graph, *order);
}

Time NormMetric::virtual_cost(const TaskGraph& graph, NodeId id,
                              Time effective_cost) const {
  (void)graph;
  (void)id;
  return effective_cost;
}

Time PureMetric::virtual_cost(const TaskGraph& graph, NodeId id,
                              Time effective_cost) const {
  (void)graph;
  (void)id;
  return effective_cost;
}

ThresMetric::ThresMetric(double surplus, double threshold_factor)
    : surplus_(surplus), threshold_factor_(threshold_factor) {
  FEAST_REQUIRE_MSG(surplus >= 0.0, "surplus factor must be non-negative");
  FEAST_REQUIRE_MSG(threshold_factor > 0.0, "threshold factor must be positive");
}

std::string ThresMetric::name() const {
  return "THRES(d=" + format_compact(surplus_, 3) +
         ",th=" + format_compact(threshold_factor_, 3) + "MET)";
}

void ThresMetric::prepare(const TaskGraph& graph, std::span<const NodeId> order) {
  (void)order;
  threshold_ = threshold_factor_ * graph.mean_exec_time();
}

Time ThresMetric::virtual_cost(const TaskGraph& graph, NodeId id,
                               Time effective_cost) const {
  // The threshold filter applies to computation subtasks only; message
  // estimates pass through untouched.
  if (!graph.is_computation(id)) return effective_cost;
  if (effective_cost < threshold_) return effective_cost;
  return effective_cost * (1.0 + surplus_);
}

AdaptMetric::AdaptMetric(int n_procs, double threshold_factor)
    : n_procs_(n_procs), threshold_factor_(threshold_factor) {
  FEAST_REQUIRE_MSG(n_procs >= 1, "system size must be at least 1");
  FEAST_REQUIRE_MSG(threshold_factor > 0.0, "threshold factor must be positive");
}

std::string AdaptMetric::name() const {
  return "ADAPT(N=" + std::to_string(n_procs_) +
         ",th=" + format_compact(threshold_factor_, 3) + "MET)";
}

void AdaptMetric::prepare(const TaskGraph& graph, std::span<const NodeId> order) {
  threshold_ = threshold_factor_ * graph.mean_exec_time();
  surplus_ = average_parallelism(graph, order) / static_cast<double>(n_procs_);
}

Time AdaptMetric::virtual_cost(const TaskGraph& graph, NodeId id,
                               Time effective_cost) const {
  if (!graph.is_computation(id)) return effective_cost;
  if (effective_cost < threshold_) return effective_cost;
  return effective_cost * (1.0 + surplus_);
}

std::unique_ptr<SliceMetric> make_norm() { return std::make_unique<NormMetric>(); }

std::unique_ptr<SliceMetric> make_pure() { return std::make_unique<PureMetric>(); }

std::unique_ptr<SliceMetric> make_thres(double surplus, double threshold_factor) {
  return std::make_unique<ThresMetric>(surplus, threshold_factor);
}

std::unique_ptr<SliceMetric> make_adapt(int n_procs, double threshold_factor) {
  return std::make_unique<AdaptMetric>(n_procs, threshold_factor);
}

}  // namespace feast
