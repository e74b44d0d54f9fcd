#include "core/path_finder.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

namespace feast {

namespace {

constexpr std::uint32_t kNone = 0xffffffffU;  ///< No parent: the cell is a seed.

bool same_bits(Time a, Time b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One lb group's sweep, kept so that the next find() of the same finder
/// can take the group's answer without sweeping it again.
struct GroupMemo {
  Time lb = 0.0;                       ///< The group's lb (its first source's).
  std::vector<std::uint32_t> members;  ///< Seeded sources, topological order.
  std::vector<std::uint64_t> cone;     ///< Positions the sweep visited.
  std::vector<std::uint32_t> sinks;    ///< Node indices of the sinks scored,
  std::vector<Time> sink_ub;           ///< with the ub each was scored under.
  bool scored = false;                 ///< best holds a candidate.
  CriticalPathResult best;             ///< First minimum: sinks in order, k ascending.
};

/// The DP tables of a sweep, indexed by topological position; row p holds
/// cells [row_off[p], row_off[p + 1]).  Only the capacity survives between
/// sweeps, so one instance per thread serves every finder on it (a
/// distribution runs its finds back to back).  The group memos of the
/// last finder that ran find() on the thread live here too.
struct DpScratch {
  std::vector<Time> best;             ///< [row_off[p] + k].
  std::vector<std::uint32_t> parent;  ///< Predecessor position per cell.
  std::vector<std::uint32_t> lo;      ///< Live hop range [lo, hi] per row...
  std::vector<std::uint32_t> hi;
  std::vector<std::uint64_t> stamp;   ///< ...valid while stamp == epoch.
  std::vector<std::uint64_t> reach;   ///< Cone bitset: rows awaiting the sweep.
  std::uint64_t epoch = 0;            ///< One per group sweep.

  std::vector<std::uint32_t> sources;     ///< Residual sources, topological order.
  std::vector<std::uint32_t> first_group;  ///< Per source: first group it matches.
  std::vector<Time> lbs;                  ///< lb groups, first-appearance order.
  std::vector<std::uint32_t> member_off;  ///< CSR offsets into members, per group.
  std::vector<std::uint32_t> members;     ///< Group members, topological order.

  std::vector<GroupMemo> memos;  ///< [0, memo_count): one per group of the last find().
  std::size_t memo_count = 0;
  std::uint64_t memo_owner = 0;  ///< Serial of the finder the memos belong to.

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

std::uint64_t next_finder_serial() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
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
    : PathFinderBase(graph, std::move(order), metric, estimator),
      serial_(next_finder_serial()) {
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

  seen_.assign(n, 0);
  assigned_.assign(n, 0);
  residual_count_ = n;
  sources_.assign((n + 63) / 64, 0);
  assigned_since_.assign((n + 63) / 64, 0);
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
    assigned_since_[p / 64] |= std::uint64_t{1} << (p % 64);
  } else {
    ++residual_count_;
    effective_count_ += step_[p];
    unassigned_since_ = true;
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
  const std::uint8_t* const now = state.assigned.data();
  std::uint8_t* const seen = seen_.data();
  const std::size_t n = seen_.size();
  auto sync_node = [&](std::size_t i) {
    seen[i] = now[i];
    const bool assigned = now[i] != 0;
    const std::uint32_t p = pos_[i];
    if (assigned != (assigned_[p] != 0)) flip(p, assigned);
  };
  // Eight flags per comparison; only a word that differs is looked into.
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, now + i, 8);
    std::memcpy(&b, seen + i, 8);
    if (a == b) continue;
    for (std::size_t j = i; j < i + 8; ++j) {
      if (now[j] != seen[j]) sync_node(j);
    }
  }
  for (; i < n; ++i) {
    if (now[i] != seen[i]) sync_node(i);
  }
}

std::optional<CriticalPathResult> CriticalPathFinder::find(const ResidualState& state) {
  const std::size_t n = topo_.size();
  FEAST_REQUIRE(state.assigned.size() == n);
  sync(state);

  // The memos of this finder's previous find() are candidates for reuse
  // unless a node was unassigned since: that can grow any group's cone.
  // Until this call completes, the scratch holds no memos at all.
  DpScratch& dp = dp_scratch();
  std::size_t live =
      dp.memo_owner == serial_ && !unassigned_since_ ? dp.memo_count : 0;
  dp.memo_owner = serial_;
  dp.memo_count = 0;
  unassigned_since_ = false;
  if (residual_count_ == 0) {
    std::fill(assigned_since_.begin(), assigned_since_.end(), 0);
    return std::nullopt;
  }

  // Residual sources in topological order, grouped by their release lower
  // bound so that sources sharing lb share one DP sweep.
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
  dp.first_group.clear();
  for (const std::uint32_t s : dp.sources) {
    const Time lb = state.lb[topo_[s].index()];
    const auto it = std::find_if(dp.lbs.begin(), dp.lbs.end(),
                                 [&](Time t) { return time_eq(t, lb); });
    dp.first_group.push_back(static_cast<std::uint32_t>(it - dp.lbs.begin()));
    if (it == dp.lbs.end()) dp.lbs.push_back(lb);
  }
  const std::size_t groups = dp.lbs.size();
  stats_.lb_groups += groups;

  // Group members.  time_eq is not transitive, so a source can belong to
  // more than one group — but only to groups whose lbs lie within
  // 2·kTimeEps of each other.  When no two do (3·kTimeEps leaves room for
  // the rounding of the differences) and every lb is finite, a source's
  // first group is its only one; otherwise filter every source per group.
  bool apart = true;
  for (std::size_t g = 0; g < groups && apart; ++g) {
    apart = std::isfinite(dp.lbs[g]);
    for (std::size_t h = g + 1; h < groups && apart; ++h) {
      apart = !(std::fabs(dp.lbs[g] - dp.lbs[h]) <= 3 * kTimeEps);
    }
  }
  dp.member_off.assign(groups + 1, 0);
  if (apart) {
    // Counting sort by first group, filled back to front so that each
    // group keeps its members in topological order.
    for (const std::uint32_t g : dp.first_group) ++dp.member_off[g];
    std::partial_sum(dp.member_off.begin(), dp.member_off.end(), dp.member_off.begin());
    dp.members.resize(dp.sources.size());
    for (std::size_t i = dp.sources.size(); i-- > 0;) {
      dp.members[--dp.member_off[dp.first_group[i]]] = dp.sources[i];
    }
  } else {
    dp.members.clear();
    for (std::size_t g = 0; g < groups; ++g) {
      for (const std::uint32_t s : dp.sources) {
        if (time_eq(state.lb[topo_[s].index()], dp.lbs[g])) dp.members.push_back(s);
      }
      dp.member_off[g + 1] = static_cast<std::uint32_t>(dp.members.size());
    }
  }

  const std::size_t width = effective_count_ + 1;  // k ranges over [0, width)
  const SlackShare share = metric_->share();
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

  // Sweeps one group into \p memo: its cone in topological order, relaxing
  // every live cell into the unassigned successors and scoring sinks as
  // they come up, then reads the group's best path off the parent rows.
  auto sweep = [&](GroupMemo& memo, const std::uint32_t* first, const std::uint32_t* last) {
    memo.members.assign(first, last);
    memo.cone.assign(dp.reach.size(), 0);
    memo.sinks.clear();
    memo.sink_ub.clear();
    memo.scored = false;
    if (first == last) return;
    ++dp.epoch;
    for (const std::uint32_t* it = first; it != last; ++it) {
      const std::uint32_t s = *it;
      const std::uint32_t k = step_[s];
      touch(s, k);
      if (virt_[s] > best[row_off_[s] + k]) {
        best[row_off_[s] + k] = virt_[s];
        parent[row_off_[s] + k] = kNone;
      }
      reach[s / 64] |= std::uint64_t{1} << (s % 64);
    }

    CriticalPathResult& lead = memo.best;
    std::uint32_t lead_sink = kNone;
    std::uint32_t lead_k = 0;
    for (std::size_t w = *first / 64; w < dp.reach.size(); ++w) {
      while (reach[w] != 0) {
        const auto p = static_cast<std::uint32_t>(w * 64 + std::countr_zero(reach[w]));
        reach[w] &= reach[w] - 1;
        memo.cone[w] |= std::uint64_t{1} << (p % 64);
        const Time* const row = best + row_off_[p];
        const std::uint32_t lo = dp.lo[p];
        const std::uint32_t hi = dp.hi[p];

        if (open_succs_[p] == 0) {
          const std::uint32_t sink = topo_[p].value;
          const Time ub = state.ub[sink];
          FEAST_ASSERT_MSG(is_set(ub), "residual sink lacks a deadline upper bound");
          memo.sinks.push_back(sink);
          memo.sink_ub.push_back(ub);
          const Time window = ub - memo.lb;
          for (std::uint32_t k = lo; k <= hi; ++k) {
            if (row[k] <= -kInfiniteTime) continue;
            PathEvaluation eval;
            eval.window = window;
            eval.sum_virtual = row[k];
            eval.effective_hops = static_cast<int>(k);
            const double ratio = slice_ratio(eval, share);
            if (lead_sink == kNone || ratio < lead.ratio) {
              lead.window_start = memo.lb;
              lead.window_end = ub;
              lead.eval = eval;
              lead.ratio = ratio;
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
    if (lead_sink == kNone) return;
    memo.scored = true;
    lead.nodes.clear();
    std::uint32_t k = lead_k;
    for (std::uint32_t p = lead_sink; p != kNone;) {
      lead.nodes.push_back(topo_[p]);
      const std::uint32_t par = parent[row_off_[p] + k];
      k -= step_[p];
      p = par;
    }
    std::reverse(lead.nodes.begin(), lead.nodes.end());
  };

  // A memo repeats its sweep exactly when the group seeds the same sources
  // under the same lb (checked by the caller), none of its cone was
  // assigned since (no node was unassigned at all, so the cone cannot have
  // grown and its sinks are still its sinks) and every sink it scored keeps
  // its ub.
  auto still_exact = [&](const GroupMemo& memo, const std::uint32_t* first,
                         const std::uint32_t* last) {
    if (!std::equal(first, last, memo.members.begin(), memo.members.end())) return false;
    for (std::size_t w = 0; w < memo.cone.size(); ++w) {
      if ((memo.cone[w] & assigned_since_[w]) != 0) return false;
    }
    for (std::size_t i = 0; i < memo.sinks.size(); ++i) {
      if (!same_bits(state.ub[memo.sinks[i]], memo.sink_ub[i])) return false;
    }
    return true;
  };

  // Group g's memo goes to slot g.  Slots [g, live) hold the previous
  // find()'s memos not yet claimed; the one with g's lb bits is swapped
  // in, or else a free slot is, and the unclaimed memo there moves past
  // the candidates so that a later group can still claim it.
  std::size_t winner = groups;  // none yet
  for (std::size_t g = 0; g < groups; ++g) {
    const std::uint32_t* const first = dp.members.data() + dp.member_off[g];
    const std::uint32_t* const last = dp.members.data() + dp.member_off[g + 1];
    std::size_t slot = g;
    while (slot < live && !same_bits(dp.memos[slot].lb, dp.lbs[g])) ++slot;
    const bool claimed = slot < live;
    if (!claimed) {
      if (live == dp.memos.size()) dp.memos.emplace_back();
      slot = live++;
    }
    if (slot != g) std::swap(dp.memos[g], dp.memos[slot]);
    GroupMemo& memo = dp.memos[g];
    if (!claimed || !still_exact(memo, first, last)) {
      memo.lb = dp.lbs[g];
      sweep(memo, first, last);
    }
    // Each group's best is its first minimum, so the first group whose
    // best is strictly below every earlier group's holds the first
    // minimum over all candidates in sweep order: the reference's answer.
    if (memo.scored && (winner == groups || memo.best.ratio < dp.memos[winner].best.ratio)) {
      winner = g;
    }
  }
  dp.memo_count = groups;
  std::fill(assigned_since_.begin(), assigned_since_.end(), 0);
  stats_.dp_cells += cells;
  if (winner == groups) return std::nullopt;
  return dp.memos[winner].best;
}

}  // namespace feast
