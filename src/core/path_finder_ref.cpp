/// \file path_finder_ref.cpp
/// \brief The retained reference implementation of the critical-path
///        search (Figure 1, step 3).
///
/// This is the dense sweep the sparse CriticalPathFinder is differentially
/// tested against: per find(), every lb group resets and relaxes the whole
/// [node][hop] table of the residual graph, sinks are scanned after the
/// sweep, and the winning group is swept a second time to rebuild its
/// path.  Keep it simple — its job is to be obviously correct, not fast.
/// Its only additions over the original code are the FinderStats counts.
#include <algorithm>
#include <utility>

#include "core/path_finder.hpp"

namespace feast {

CriticalPathFinderRef::CriticalPathFinderRef(const TaskGraph& graph,
                                             std::vector<NodeId> order,
                                             const SliceMetric& metric,
                                             const CommCostEstimator& estimator)
    : PathFinderBase(graph, std::move(order), metric, estimator) {
  best_.resize(graph.node_count());
  parent_.resize(graph.node_count());
}

std::optional<CriticalPathResult> CriticalPathFinderRef::find(
    const ResidualState& state) {
  const TaskGraph& graph = *graph_;
  FEAST_REQUIRE(state.node_count() == graph.node_count());
  ++stats_.regroups;

  // Collect residual sources, grouped by their release lower bound so that
  // sources sharing lb can share one DP sweep.
  std::vector<NodeId> sources;
  std::size_t residual_count = 0;
  std::size_t effective_count = 0;
  for (const NodeId id : topo_) {
    if (state.assigned(id)) continue;
    ++residual_count;
    if (effective_[id.index()] > kNegligibleCost) ++effective_count;
    const auto& preds = graph.preds(id);
    const bool is_source =
        std::all_of(preds.begin(), preds.end(),
                    [&](NodeId p) { return state.assigned(p); });
    if (is_source) {
      FEAST_ASSERT_MSG(is_set(state.lb(id)),
                       "residual source lacks a release lower bound");
      sources.push_back(id);
    }
  }
  if (residual_count == 0) return std::nullopt;
  FEAST_ASSERT_MSG(!sources.empty(), "non-empty residual graph has no source");

  std::vector<Time> lbs;
  for (const NodeId s : sources) {
    const Time lb = state.lb(s);
    if (std::find_if(lbs.begin(), lbs.end(),
                     [&](Time t) { return time_eq(t, lb); }) == lbs.end()) {
      lbs.push_back(lb);
    }
  }

  const std::size_t max_hops = effective_count;  // k ranges over [0, max_hops]
  const std::size_t width = max_hops + 1;
  stats_.lb_groups += lbs.size();

  std::optional<CriticalPathResult> best_result;
  Time best_sink_lb = 0.0;  // lb of the group that produced best_result

  for (const Time group_lb : lbs) {
    // Reset the DP rows of the residual nodes for this group's sweep.
    stats_.dp_cells += residual_count * width;
    for (const NodeId id : topo_) {
      if (state.assigned(id)) continue;
      auto& row = best_[id.index()];
      if (row.size() != width) {
        row.assign(width, -kInfiniteTime);
        parent_[id.index()].assign(width, NodeId());
      } else {
        std::fill(row.begin(), row.end(), -kInfiniteTime);
        std::fill(parent_[id.index()].begin(), parent_[id.index()].end(), NodeId());
      }
    }
    for (const NodeId s : sources) {
      if (!time_eq(state.lb(s), group_lb)) continue;
      const std::size_t k = effective_[s.index()] > kNegligibleCost ? 1 : 0;
      auto& row = best_[s.index()];
      if (virtual_[s.index()] > row[k]) {
        row[k] = virtual_[s.index()];
        parent_[s.index()][k] = NodeId();
      }
    }

    // Forward propagation in topological order over residual arcs.
    for (const NodeId id : topo_) {
      if (state.assigned(id)) continue;
      const auto& row = best_[id.index()];
      bool any = false;
      for (const Time t : row) {
        if (t > -kInfiniteTime) {
          any = true;
          break;
        }
      }
      if (!any) continue;
      for (const NodeId succ : graph.succs(id)) {
        if (state.assigned(succ)) continue;
        const std::size_t step = effective_[succ.index()] > kNegligibleCost ? 1 : 0;
        auto& succ_row = best_[succ.index()];
        auto& succ_par = parent_[succ.index()];
        for (std::size_t k = 0; k < width; ++k) {
          if (row[k] <= -kInfiniteTime) continue;
          const std::size_t nk = k + step;
          if (nk >= width) continue;
          const Time cand = row[k] + virtual_[succ.index()];
          if (cand > succ_row[nk]) {
            succ_row[nk] = cand;
            succ_par[nk] = id;
          }
        }
      }
    }

    // Evaluate residual sinks.
    for (const NodeId id : topo_) {
      if (state.assigned(id)) continue;
      const auto& succs = graph.succs(id);
      const bool is_sink =
          std::all_of(succs.begin(), succs.end(),
                      [&](NodeId s) { return state.assigned(s); });
      if (!is_sink) continue;
      FEAST_ASSERT_MSG(is_set(state.ub(id)),
                       "residual sink lacks a deadline upper bound");
      const Time window = state.ub(id) - group_lb;
      const auto& row = best_[id.index()];
      for (std::size_t k = 0; k < width; ++k) {
        if (row[k] <= -kInfiniteTime) continue;
        PathEvaluation eval;
        eval.window = window;
        eval.sum_virtual = row[k];
        eval.effective_hops = static_cast<int>(k);
        const double ratio = slice_ratio(eval, metric_->share());
        if (!best_result || ratio < best_result->ratio) {
          CriticalPathResult result;
          result.window_start = group_lb;
          result.window_end = state.ub(id);
          result.eval = eval;
          result.ratio = ratio;
          // Node sequence reconstructed below only for the winner; store
          // the sink/hops via the nodes vector temporarily.
          result.nodes = {id};
          result.nodes.reserve(2);
          // Encode k in eval.effective_hops (already there).
          best_result = std::move(result);
          best_sink_lb = group_lb;
        }
      }
    }

  }

  if (!best_result) return std::nullopt;

  // Re-run the winning group's DP to reconstruct the path.  (The scratch
  // tables currently hold the *last* group's sweep, which may not be the
  // winner's.)  Cheap relative to the sweep over all groups.
  if (!time_eq(best_sink_lb, lbs.back())) {
    stats_.dp_cells += residual_count * width;
    for (const NodeId id : topo_) {
      if (state.assigned(id)) continue;
      auto& row = best_[id.index()];
      std::fill(row.begin(), row.end(), -kInfiniteTime);
      std::fill(parent_[id.index()].begin(), parent_[id.index()].end(), NodeId());
    }
    for (const NodeId s : sources) {
      if (!time_eq(state.lb(s), best_sink_lb)) continue;
      const std::size_t k = effective_[s.index()] > kNegligibleCost ? 1 : 0;
      if (virtual_[s.index()] > best_[s.index()][k]) {
        best_[s.index()][k] = virtual_[s.index()];
        parent_[s.index()][k] = NodeId();
      }
    }
    for (const NodeId id : topo_) {
      if (state.assigned(id)) continue;
      const auto& row = best_[id.index()];
      for (const NodeId succ : graph.succs(id)) {
        if (state.assigned(succ)) continue;
        const std::size_t step = effective_[succ.index()] > kNegligibleCost ? 1 : 0;
        for (std::size_t k = 0; k < width; ++k) {
          if (row[k] <= -kInfiniteTime) continue;
          const std::size_t nk = k + step;
          if (nk >= width) continue;
          const Time cand = row[k] + virtual_[succ.index()];
          if (cand > best_[succ.index()][nk]) {
            best_[succ.index()][nk] = cand;
            parent_[succ.index()][nk] = id;
          }
        }
      }
    }
  }

  // Walk parent pointers back from (sink, k).
  const NodeId sink = best_result->nodes.front();
  std::vector<NodeId> path;
  NodeId cur = sink;
  auto k = static_cast<std::size_t>(best_result->eval.effective_hops);
  while (cur.valid()) {
    path.push_back(cur);
    const NodeId par = parent_[cur.index()][k];
    k -= effective_[cur.index()] > kNegligibleCost ? 1 : 0;
    cur = par;
  }
  std::reverse(path.begin(), path.end());
  best_result->nodes = std::move(path);
  return best_result;
}

}  // namespace feast
