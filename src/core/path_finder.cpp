#include "core/path_finder.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <utility>

namespace feast {

namespace {

constexpr std::uint32_t kNone = 0xffffffffU;  ///< No parent: the cell is a seed.

bool same_bits(Time a, Time b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One lb group, kept across find() calls together with its last sweep.
struct Group {
  Time lb = 0.0;                       ///< Its founder's lb.
  std::vector<std::uint32_t> members;  ///< Sources, topological order.
  bool swept = false;                  ///< The fields below answer lb and members.
  std::vector<std::uint64_t> cone;     ///< Positions the sweep visited.
  bool scored = false;                 ///< best holds a candidate.
  CriticalPathResult best;             ///< First minimum: sinks in order, k ascending.
};

/// The DP tables of a sweep, indexed by topological position; row p holds
/// cells [row_off[p], row_off[p + 1]).  Only the capacity survives between
/// sweeps, so one instance per thread serves every finder on it (a
/// distribution runs its finds back to back).  The lb groups of the last
/// finder that ran find() on the thread live here too.
struct DpScratch {
  std::vector<Time> best;             ///< [row_off[p] + k].
  std::vector<std::uint32_t> parent;  ///< Predecessor position per cell.
  std::vector<std::uint32_t> lo;      ///< Live hop range [lo, hi] per row...
  std::vector<std::uint32_t> hi;
  std::vector<std::uint64_t> stamp;   ///< ...valid while stamp == epoch.
  std::vector<std::uint64_t> reach;   ///< Cone bitset: rows awaiting the sweep.
  std::uint64_t epoch = 0;            ///< One per group sweep.

  // Scratch of the from-scratch grouping.
  std::vector<std::uint32_t> sources;      ///< Residual sources, topological order.
  std::vector<Time> lbs;                   ///< lb groups, first-appearance order.
  std::vector<std::uint32_t> member_off;   ///< CSR offsets into members, per group.
  std::vector<std::uint32_t> members;      ///< Group members, topological order.

  /// [0, group_count): founder order; the rest spare.  Held by pointer, so
  /// that reordering them moves no sweep.
  std::vector<std::unique_ptr<Group>> groups;
  std::size_t group_count = 0;
  bool apart = false;            ///< Group lbs finite and pairwise > 3·kTimeEps apart.
  std::uint64_t owner = 0;       ///< Serial of the finder the groups belong to...
  std::uint64_t owner_finds = 0; ///< ...and its find() count when it left them.

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

/// Serials of states and finders, never 0.
std::uint64_t next_serial() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ResidualState::ResidualState(std::size_t node_count)
    : assigned_(node_count, 0),
      lb_(node_count, kUnsetTime),
      ub_(node_count, kUnsetTime),
      serial_(next_serial()) {}

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
      serial_(next_serial()) {
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
  grouped_.assign((n + 63) / 64, 0);
  touched_.assign((n + 63) / 64, 0);
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
    touched_[p / 64] |= std::uint64_t{1} << (p % 64);
  } else {
    ++residual_count_;
    effective_count_ += step_[p];
    // An unassign can grow any group's cone: it touches every node.
    regroup_ = true;
    std::fill(touched_.begin(), touched_.end(), ~std::uint64_t{0});
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

void CriticalPathFinder::apply(const ResidualState& state, std::uint32_t node,
                               std::uint8_t kind) {
  const std::uint32_t p = pos_[node];
  const std::uint64_t bit = std::uint64_t{1} << (p % 64);
  if ((kind & ResidualState::kFlag) != 0) {
    const bool assigned = state.assigned(NodeId(node));
    if (assigned != (assigned_[p] != 0)) flip(p, assigned);
  }
  if ((kind & ResidualState::kUb) != 0) touched_[p / 64] |= bit;
  // A grouped source's lb decides its group and maybe its group's lb.
  if ((kind & ResidualState::kLb) != 0 && (grouped_[p / 64] & bit) != 0) regroup_ = true;
}

void CriticalPathFinder::regroup(const ResidualState& state) {
  DpScratch& dp = dp_scratch();
  ++stats_.regroups;

  // Residual sources in topological order, grouped by their release lower
  // bound so that sources sharing lb share one DP sweep.
  dp.sources.clear();
  for (std::size_t w = 0; w < sources_.size(); ++w) {
    for (std::uint64_t bits = sources_[w]; bits != 0; bits &= bits - 1) {
      const auto p = static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
      FEAST_ASSERT_MSG(is_set(state.lb(topo_[p])),
                       "residual source lacks a release lower bound");
      dp.sources.push_back(p);
    }
  }
  grouped_ = sources_;

  dp.lbs.clear();
  for (const std::uint32_t s : dp.sources) {
    const Time lb = state.lb(topo_[s]);
    if (std::none_of(dp.lbs.begin(), dp.lbs.end(), [&](Time t) { return time_eq(t, lb); })) {
      dp.lbs.push_back(lb);
    }
  }
  const std::size_t groups = dp.lbs.size();

  // time_eq is not transitive, so a source can belong to more than one
  // group — but only to groups whose lbs lie within 2·kTimeEps of each
  // other.  When no two do (3·kTimeEps leaves room for the rounding of the
  // differences) and every lb is finite, the groups are apart: each source
  // belongs to one, which update_groups() relies on.
  bool apart = true;
  for (std::size_t g = 0; g < groups && apart; ++g) {
    apart = std::isfinite(dp.lbs[g]);
    for (std::size_t h = g + 1; h < groups && apart; ++h) {
      apart = !(std::fabs(dp.lbs[g] - dp.lbs[h]) <= 3 * kTimeEps);
    }
  }
  dp.apart = apart;
  dp.members.clear();
  dp.member_off.assign(groups + 1, 0);
  for (std::size_t g = 0; g < groups; ++g) {
    for (const std::uint32_t s : dp.sources) {
      if (time_eq(state.lb(topo_[s]), dp.lbs[g])) dp.members.push_back(s);
    }
    dp.member_off[g + 1] = static_cast<std::uint32_t>(dp.members.size());
  }

  // Group g goes to slot g.  Slots [g, live) hold the previous groups not
  // yet claimed; the one with g's lb bits is swapped in, or else a spare
  // slot is, and the unclaimed group there moves past the candidates so
  // that a later group can still claim it.  A claimed group keeps its
  // sweep only if its members are the same too.
  std::size_t live = dp.group_count;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::uint32_t* const first = dp.members.data() + dp.member_off[g];
    const std::uint32_t* const last = dp.members.data() + dp.member_off[g + 1];
    std::size_t slot = g;
    while (slot < live && !same_bits(dp.groups[slot]->lb, dp.lbs[g])) ++slot;
    const bool claimed = slot < live;
    if (!claimed) {
      if (live == dp.groups.size()) dp.groups.push_back(std::make_unique<Group>());
      slot = live++;
    }
    if (slot != g) std::swap(dp.groups[g], dp.groups[slot]);
    Group& group = *dp.groups[g];
    group.swept = claimed && group.swept &&
                  std::equal(first, last, group.members.begin(), group.members.end());
    group.lb = dp.lbs[g];
    group.members.assign(first, last);
  }
  dp.group_count = groups;
}

bool CriticalPathFinder::update_groups(const ResidualState& state) {
  DpScratch& dp = dp_scratch();
  if (sources_ == grouped_) return true;
  // Overlapping groups are left to the from-scratch filter.
  if (!dp.apart) return false;

  // While the groups are apart, a source belongs to exactly one group, the
  // group of the founder (lowest position) with that lb, and the groups
  // stay in founder order.  Each edit below keeps that true or gives up.
  bool emptied = false;  // A group lost its last member...
  bool reorder = false;  // ...or got a new founder.
  auto leave = [&](std::uint32_t p) {
    // Its lb is the one it joined with: an lb edit would have regrouped.
    const Time lb = state.lb(topo_[p]);
    std::size_t g = 0;
    while (g < dp.group_count && !time_eq(dp.groups[g]->lb, lb)) ++g;
    FEAST_ASSERT_MSG(g < dp.group_count, "a leaving source has no group");
    Group& group = *dp.groups[g];
    const auto it = std::lower_bound(group.members.begin(), group.members.end(), p);
    FEAST_ASSERT(it != group.members.end() && *it == p);
    const bool founder = it == group.members.begin();
    group.members.erase(it);
    group.swept = false;
    emptied = emptied || group.members.empty();
    if (!founder || group.members.empty()) return true;
    // The next member founds the group now; under other lb bits it would
    // take other members.
    reorder = true;
    return same_bits(state.lb(topo_[group.members.front()]), group.lb);
  };
  auto join = [&](std::uint32_t p) {
    const Time lb = state.lb(topo_[p]);
    FEAST_ASSERT_MSG(is_set(lb), "residual source lacks a release lower bound");
    if (!std::isfinite(lb)) return false;
    std::size_t near = 0;
    std::size_t g = 0;
    for (std::size_t h = 0; h < dp.group_count; ++h) {
      if (std::fabs(dp.groups[h]->lb - lb) <= 3 * kTimeEps) {
        ++near;
        g = h;
      }
    }
    if (near == 0) {
      // A group of its own, apart from every other.
      if (dp.group_count == dp.groups.size()) dp.groups.push_back(std::make_unique<Group>());
      Group& group = *dp.groups[dp.group_count++];
      group.lb = lb;
      group.members.assign(1, p);
      group.swept = false;
      reorder = true;
      return true;
    }
    if (near > 1 || !time_eq(dp.groups[g]->lb, lb)) return false;
    Group& group = *dp.groups[g];
    const auto it = std::lower_bound(group.members.begin(), group.members.end(), p);
    // Ahead of the founder, it founds the group: fine under the same lb.
    if (it == group.members.begin()) {
      if (!same_bits(lb, group.lb)) return false;
      reorder = true;
    }
    group.members.insert(it, p);
    group.swept = false;
    return true;
  };

  // The sources that left, then those that joined: the two halves of
  // sources_ XOR grouped_.  Emptied groups become spares in between.
  const std::size_t words = sources_.size();
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = grouped_[w] & ~sources_[w]; bits != 0; bits &= bits - 1) {
      if (!leave(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)))) return false;
    }
  }
  if (emptied) {
    const auto spares = std::partition(
        dp.groups.begin(), dp.groups.begin() + static_cast<std::ptrdiff_t>(dp.group_count),
        [](const auto& group) { return !group->members.empty(); });
    dp.group_count = static_cast<std::size_t>(spares - dp.groups.begin());
    reorder = true;
  }
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = sources_[w] & ~grouped_[w]; bits != 0; bits &= bits - 1) {
      if (!join(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)))) return false;
    }
  }
  if (reorder) {
    std::sort(dp.groups.begin(), dp.groups.begin() + static_cast<std::ptrdiff_t>(dp.group_count),
              [](const auto& a, const auto& b) { return a->members.front() < b->members.front(); });
  }
  grouped_ = sources_;
  return true;
}

std::optional<CriticalPathResult> CriticalPathFinder::find(const ResidualState& state) {
  const std::size_t n = topo_.size();
  FEAST_REQUIRE(state.node_count() == n);

  // Read the log from where the previous find() stopped.  A state not seen
  // before replays every node as one edit of every kind.
  const std::vector<ResidualState::Edit>& log = state.log();
  if (state.serial() != state_serial_) {
    state_serial_ = state.serial();
    regroup_ = true;
    for (std::uint32_t i = 0; i < n; ++i) {
      apply(state, i, ResidualState::kFlag | ResidualState::kLb | ResidualState::kUb);
    }
  } else {
    for (std::size_t e = cursor_; e < log.size(); ++e) apply(state, log[e].node, log[e].kind);
  }
  cursor_ = log.size();

  // The groups in the scratch are this finder's only if no other find()
  // ran on the thread since its own last one.  Until this call completes,
  // the scratch belongs to no finder.
  DpScratch& dp = dp_scratch();
  if (dp.owner != serial_ || dp.owner_finds != finds_) {
    dp.group_count = 0;
    regroup_ = true;
  }
  dp.owner = 0;
  if (regroup_ || !update_groups(state)) regroup(state);
  regroup_ = false;
  const std::size_t groups = dp.group_count;
  FEAST_ASSERT_MSG(residual_count_ == 0 || groups > 0,
                   "non-empty residual graph has no source");
  stats_.lb_groups += groups;

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

  // Sweeps one group: its cone in topological order, relaxing every live
  // cell into the unassigned successors and scoring sinks as they come up,
  // then reads the group's best path off the parent rows.
  auto sweep = [&](Group& group) {
    group.swept = true;
    group.cone.assign(dp.reach.size(), 0);
    group.scored = false;
    if (group.members.empty()) return;
    ++dp.epoch;
    for (const std::uint32_t s : group.members) {
      const std::uint32_t k = step_[s];
      touch(s, k);
      if (virt_[s] > best[row_off_[s] + k]) {
        best[row_off_[s] + k] = virt_[s];
        parent[row_off_[s] + k] = kNone;
      }
      reach[s / 64] |= std::uint64_t{1} << (s % 64);
    }

    CriticalPathResult& lead = group.best;
    std::uint32_t lead_sink = kNone;
    std::uint32_t lead_k = 0;
    for (std::size_t w = group.members.front() / 64; w < dp.reach.size(); ++w) {
      while (reach[w] != 0) {
        const auto p = static_cast<std::uint32_t>(w * 64 + std::countr_zero(reach[w]));
        reach[w] &= reach[w] - 1;
        group.cone[w] |= std::uint64_t{1} << (p % 64);
        const Time* const row = best + row_off_[p];
        const std::uint32_t lo = dp.lo[p];
        const std::uint32_t hi = dp.hi[p];

        if (open_succs_[p] == 0) {
          const Time ub = state.ub(topo_[p]);
          FEAST_ASSERT_MSG(is_set(ub), "residual sink lacks a deadline upper bound");
          const Time window = ub - group.lb;
          for (std::uint32_t k = lo; k <= hi; ++k) {
            if (row[k] <= -kInfiniteTime) continue;
            PathEvaluation eval;
            eval.window = window;
            eval.sum_virtual = row[k];
            eval.effective_hops = static_cast<int>(k);
            const double ratio = slice_ratio(eval, share);
            if (lead_sink == kNone || ratio < lead.ratio) {
              lead.window_start = group.lb;
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
    group.scored = true;
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

  // A sweep reads the members, the group's lb, the assigned flags of its
  // cone and their successors and the ub of the cone's sinks.  With the
  // members and lb unchanged (else the group is not swept) and no unassign
  // since (that drops every sweep), a cone none of whose nodes was assigned
  // or had its ub edited would be swept exactly as before.
  auto still_exact = [&](const Group& group) {
    if (!group.swept) return false;
    for (std::size_t w = 0; w < group.cone.size(); ++w) {
      if ((group.cone[w] & touched_[w]) != 0) return false;
    }
    return true;
  };

  std::size_t winner = groups;  // none yet
  for (std::size_t g = 0; g < groups; ++g) {
    Group& group = *dp.groups[g];
    if (!still_exact(group)) sweep(group);
    // Each group's best is its first minimum, so the first group whose
    // best is strictly below every earlier group's holds the first
    // minimum over all candidates in sweep order: the reference's answer.
    if (group.scored && (winner == groups || group.best.ratio < dp.groups[winner]->best.ratio)) {
      winner = g;
    }
  }
  std::fill(touched_.begin(), touched_.end(), 0);
  stats_.dp_cells += cells;
  dp.owner = serial_;
  dp.owner_finds = ++finds_;
  if (winner == groups) return std::nullopt;
  return dp.groups[winner]->best;
}

}  // namespace feast
