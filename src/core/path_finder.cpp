#include "core/path_finder.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace feast {

namespace {

constexpr std::uint32_t kNone = 0xffffffffU;  ///< No parent: the cell is a seed.

/// The DP tables of one find(), indexed by topological position; row p
/// holds cells [row_off[p], row_off[p + 1]).  Only the capacity survives
/// between calls, so one instance per thread serves every finder on it (a
/// distribution runs its finds back to back).
struct DpScratch {
  std::vector<Time> best;             ///< [row_off[p] + k].
  std::vector<std::uint32_t> parent;  ///< Predecessor position per cell.
  std::vector<std::uint32_t> lo;      ///< Live hop range [lo, hi] per row...
  std::vector<std::uint32_t> hi;
  std::vector<std::uint64_t> stamp;   ///< ...valid while stamp == epoch.
  std::vector<std::uint64_t> reach;   ///< Cone bitset: rows awaiting the sweep.
  std::vector<std::uint32_t> sources;  ///< Residual sources, topological order.
  std::vector<Time> lbs;               ///< lb groups, first-appearance order.
  std::uint64_t epoch = 0;             ///< One per group sweep.

  /// Sizes the tables for \p n rows of \p cells cells in all; never
  /// shrinks.
  void bind(std::size_t n, std::size_t cells) {
    if (best.size() < cells) {
      best.resize(cells);
      parent.resize(cells);
    }
    if (stamp.size() < n) {
      stamp.resize(n, 0);
      lo.resize(n);
      hi.resize(n);
    }
    // A sweep consumes every bit it sets; clearing here only matters if a
    // contract violation unwound one midway.
    reach.assign((n + 63) / 64, 0);
  }
};

DpScratch& dp_scratch() {
  thread_local DpScratch scratch;
  return scratch;
}

}  // namespace

PathFinderBase::PathFinderBase(const TaskGraph& graph, std::vector<NodeId> order,
                               const SliceMetric& metric,
                               const CommCostEstimator& estimator)
    : graph_(&graph), metric_(&metric), topo_(std::move(order)) {
  const std::size_t n = graph.node_count();
  FEAST_REQUIRE_MSG(topo_.size() == n, "the finder needs the graph's topological order");
  effective_.resize(n);
  virtual_.resize(n);
  for (const NodeId id : graph.all_nodes()) {
    const Time eff = graph.is_computation(id) ? graph.node(id).exec_time
                                              : estimator.estimate(graph, id);
    effective_[id.index()] = eff;
    virtual_[id.index()] = metric.virtual_cost(graph, id, eff);
    FEAST_ASSERT_MSG(virtual_[id.index()] >= eff - kTimeEps,
                     "virtual cost must not undercut the effective cost");
  }
}

CriticalPathFinder::CriticalPathFinder(const TaskGraph& graph, std::vector<NodeId> order,
                                       const SliceMetric& metric,
                                       const CommCostEstimator& estimator)
    : PathFinderBase(graph, std::move(order), metric, estimator) {
  const std::size_t n = topo_.size();
  pos_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    pos_[topo_[p].index()] = static_cast<std::uint32_t>(p);
  }

  succ_off_.reserve(n + 1);
  row_off_.reserve(n + 1);
  step_.resize(n);
  virt_.resize(n);
  open_preds_.resize(n);
  open_succs_.resize(n);
  std::vector<std::uint32_t> depth(n, 0);
  for (const NodeId id : topo_) {
    const std::uint32_t p = pos_[id.index()];
    step_[p] = effective_[id.index()] > kNegligibleCost ? 1 : 0;
    virt_[p] = virtual_[id.index()];
    succ_off_.push_back(static_cast<std::uint32_t>(succ_.size()));
    for (const NodeId s : graph.succs(id)) succ_.push_back(pos_[s.index()]);
    for (const NodeId q : graph.preds(id)) {
      depth[p] = std::max(depth[p], depth[pos_[q.index()]]);
    }
    // Every residual path ending here is a suffix of a graph path, so its
    // hop count is at most the most effective nodes on any path to here:
    // that bounds the row.
    depth[p] += step_[p];
    row_off_.push_back(row_cells_);
    row_cells_ += depth[p] + 1;
    open_preds_[p] = static_cast<std::uint32_t>(graph.preds(id).size());
    open_succs_[p] = static_cast<std::uint32_t>(graph.succs(id).size());
    effective_count_ += step_[p];
  }
  succ_off_.push_back(static_cast<std::uint32_t>(succ_.size()));
  row_off_.push_back(row_cells_);

  assigned_.assign(n, 0);
  residual_count_ = n;
  sources_.assign((n + 63) / 64, 0);
  for (std::uint32_t p = 0; p < n; ++p) update_source(p);
}

void CriticalPathFinder::update_source(std::uint32_t p) {
  const std::uint64_t bit = std::uint64_t{1} << (p % 64);
  if (assigned_[p] == 0 && open_preds_[p] == 0) {
    sources_[p / 64] |= bit;
  } else {
    sources_[p / 64] &= ~bit;
  }
}

void CriticalPathFinder::flip(std::uint32_t p, bool assigned) {
  assigned_[p] = assigned ? 1 : 0;
  if (assigned) {
    --residual_count_;
    effective_count_ -= step_[p];
  } else {
    ++residual_count_;
    effective_count_ += step_[p];
  }
  for (const NodeId q : graph_->preds(topo_[p])) {
    std::uint32_t& open = open_succs_[pos_[q.index()]];
    open = assigned ? open - 1 : open + 1;
  }
  for (std::uint32_t e = succ_off_[p]; e < succ_off_[p + 1]; ++e) {
    std::uint32_t& open = open_preds_[succ_[e]];
    open = assigned ? open - 1 : open + 1;
    update_source(succ_[e]);
  }
  update_source(p);
}

void CriticalPathFinder::sync(const ResidualState& state) {
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    const bool assigned = state.assigned[i];
    const std::uint32_t p = pos_[i];
    if (assigned != (assigned_[p] != 0)) flip(p, assigned);
  }
}

std::optional<CriticalPathResult> CriticalPathFinder::find(const ResidualState& state) {
  const std::size_t n = topo_.size();
  FEAST_REQUIRE(state.assigned.size() == n);
  sync(state);
  if (residual_count_ == 0) return std::nullopt;

  // Residual sources in topological order, grouped by their release lower
  // bound so that sources sharing lb share one DP sweep.
  DpScratch& dp = dp_scratch();
  dp.sources.clear();
  for (std::size_t w = 0; w < sources_.size(); ++w) {
    for (std::uint64_t bits = sources_[w]; bits != 0; bits &= bits - 1) {
      const auto p = static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
      FEAST_ASSERT_MSG(is_set(state.lb[topo_[p].index()]),
                       "residual source lacks a release lower bound");
      dp.sources.push_back(p);
    }
  }
  FEAST_ASSERT_MSG(!dp.sources.empty(), "non-empty residual graph has no source");

  dp.lbs.clear();
  for (const std::uint32_t s : dp.sources) {
    const Time lb = state.lb[topo_[s].index()];
    if (std::find_if(dp.lbs.begin(), dp.lbs.end(),
                     [&](Time t) { return time_eq(t, lb); }) == dp.lbs.end()) {
      dp.lbs.push_back(lb);
    }
  }

  const std::size_t width = effective_count_ + 1;  // k ranges over [0, width)
  stats_.lb_groups += dp.lbs.size();
  dp.bind(n, row_cells_);
  Time* const best = dp.best.data();
  std::uint32_t* const parent = dp.parent.data();
  std::uint64_t* const reach = dp.reach.data();
  std::uint64_t cells = 0;

  // Makes cell (p, k) part of row p's live range, filling the cells the
  // range grows over with −∞ (a row first touched in this sweep starts
  // empty).
  auto touch = [&](std::uint32_t p, std::uint32_t k) {
    std::uint32_t& lo = dp.lo[p];
    std::uint32_t& hi = dp.hi[p];
    std::size_t from = k;
    std::size_t to = k;
    if (dp.stamp[p] != dp.epoch) {
      dp.stamp[p] = dp.epoch;
      lo = hi = k;
    } else if (k < lo) {
      to = lo - 1;
      lo = k;
    } else if (k > hi) {
      from = hi + 1;
      hi = k;
    } else {
      return;
    }
    const std::size_t row = row_off_[p];
    std::fill(best + row + from, best + row + to + 1, -kInfiniteTime);
    std::fill(parent + row + from, parent + row + to + 1, kNone);
    cells += to - from + 1;
  };

  std::optional<CriticalPathResult> best_result;
  for (const Time group_lb : dp.lbs) {
    ++dp.epoch;
    std::uint32_t first = kNone;
    for (const std::uint32_t s : dp.sources) {
      if (!time_eq(state.lb[topo_[s].index()], group_lb)) continue;
      const std::uint32_t k = step_[s];
      touch(s, k);
      if (virt_[s] > best[row_off_[s] + k]) {
        best[row_off_[s] + k] = virt_[s];
        parent[row_off_[s] + k] = kNone;
      }
      reach[s / 64] |= std::uint64_t{1} << (s % 64);
      if (first == kNone) first = s;
    }

    // Sweep the group's cone in topological order: relax every live cell
    // into the unassigned successors, and score sinks as they come up.
    std::uint32_t lead_sink = kNone;
    std::uint32_t lead_k = 0;
    for (std::size_t w = first / 64; w < dp.reach.size(); ++w) {
      while (reach[w] != 0) {
        const auto p = static_cast<std::uint32_t>(w * 64 + std::countr_zero(reach[w]));
        reach[w] &= reach[w] - 1;
        const Time* const row = best + row_off_[p];
        const std::uint32_t lo = dp.lo[p];
        const std::uint32_t hi = dp.hi[p];

        if (open_succs_[p] == 0) {
          const NodeId id = topo_[p];
          FEAST_ASSERT_MSG(is_set(state.ub[id.index()]),
                           "residual sink lacks a deadline upper bound");
          const Time window = state.ub[id.index()] - group_lb;
          for (std::uint32_t k = lo; k <= hi; ++k) {
            if (row[k] <= -kInfiniteTime) continue;
            PathEvaluation eval;
            eval.window = window;
            eval.sum_virtual = row[k];
            eval.effective_hops = static_cast<int>(k);
            const double ratio = slice_ratio(eval, metric_->share());
            if (!best_result || ratio < best_result->ratio) {
              if (!best_result) best_result.emplace();
              best_result->window_start = group_lb;
              best_result->window_end = state.ub[id.index()];
              best_result->eval = eval;
              best_result->ratio = ratio;
              lead_sink = p;
              lead_k = k;
            }
          }
          continue;
        }

        for (std::uint32_t e = succ_off_[p]; e < succ_off_[p + 1]; ++e) {
          const std::uint32_t s = succ_[e];
          if (assigned_[s] != 0) continue;
          const std::uint32_t step = step_[s];
          Time* const succ_row = best + row_off_[s];
          std::uint32_t* const succ_par = parent + row_off_[s];
          bool relaxed = false;
          for (std::uint32_t k = lo; k <= hi; ++k) {
            if (row[k] <= -kInfiniteTime) continue;
            const std::uint32_t nk = k + step;
            if (nk >= width) continue;
            const Time cand = row[k] + virt_[s];
            touch(s, nk);
            if (cand > succ_row[nk]) {
              succ_row[nk] = cand;
              succ_par[nk] = p;
            }
            relaxed = true;
          }
          if (relaxed) reach[s / 64] |= std::uint64_t{1} << (s % 64);
        }
      }
    }

    // This group took the lead: read its path off the parent rows now,
    // before the next group's sweep reuses them.
    if (lead_sink != kNone) {
      std::vector<NodeId>& nodes = best_result->nodes;
      nodes.clear();
      std::uint32_t k = lead_k;
      for (std::uint32_t p = lead_sink; p != kNone;) {
        nodes.push_back(topo_[p]);
        const std::uint32_t par = parent[row_off_[p] + k];
        k -= step_[p];
        p = par;
      }
      std::reverse(nodes.begin(), nodes.end());
    }
  }
  stats_.dp_cells += cells;
  return best_result;
}

}  // namespace feast
