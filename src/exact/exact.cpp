#include "exact/exact.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "check/fault.hpp"
#include "obs/obs.hpp"
#include "taskgraph/algorithms.hpp"

namespace feast::exact {
namespace {

/// Dense view of one computation subtask: indices are topological positions
/// among computation nodes, so a forward pass over the array is a forward
/// pass over the precedence order.
struct DenseTask {
  NodeId id;
  Time exec = 0.0;       ///< Nominal execution time.
  Time exec_min = 0.0;   ///< exec on the fastest processor this task may use.
  Time floor = 0.0;      ///< Boundary release, or 0 when unset.
  Time ed = kInfiniteTime;  ///< Effective deadline.
  int pin = -1;          ///< Pinned processor, or -1 when relaxed.
  std::uint32_t pred_mask = 0;
  std::uint32_t succ_mask = 0;
  std::vector<std::pair<int, Time>> preds;  ///< (dense pred index, latency).
};

struct Problem {
  const Machine* machine = nullptr;
  int n = 0;        ///< Computation-subtask count.
  int n_procs = 0;
  std::uint32_t full_mask = 0;
  bool symmetric = false;  ///< Homogeneous machine, no pins: break proc symmetry.
  std::vector<DenseTask> tasks;            ///< In topological order.
  std::vector<int> dense_of;               ///< NodeId::index() -> dense index or -1.
};

/// Mutable search state: which tasks are placed where, per-processor tails,
/// and the running partial objective max(finish - ED) over placed tasks.
struct SearchState {
  std::uint32_t scheduled = 0;
  std::uint32_t used_procs = 0;
  std::array<Time, kMaxExactProcs> tail{};
  std::array<Time, kMaxExactSubtasks> finish{};
  std::array<std::uint8_t, kMaxExactSubtasks> proc{};
  Time partial = -kInfiniteTime;
};

/// The one placement rule shared by the branch-and-bound, the enumerator,
/// the greedy seed and seed replays: append task \p v to processor \p p.
/// Keeping a single arithmetic path is what makes "B&B == enumeration"
/// a bitwise statement rather than an epsilon one.
struct Placed {
  Time start;
  Time finish;
};

Placed place_on(const Problem& prob, const SearchState& s, int v, int p) {
  const DenseTask& t = prob.tasks[static_cast<std::size_t>(v)];
  Time start = t.floor;
  if (s.tail[static_cast<std::size_t>(p)] > start) start = s.tail[static_cast<std::size_t>(p)];
  for (const auto& [u, lat] : t.preds) {
    Time arrival = s.finish[static_cast<std::size_t>(u)];
    if (s.proc[static_cast<std::size_t>(u)] != static_cast<std::uint8_t>(p)) arrival += lat;
    if (arrival > start) start = arrival;
  }
  const Time finish = start + prob.machine->exec_time_on(t.exec, p);
  return {start, finish};
}

void apply(const Problem& prob, SearchState& s, int v, int p, const Placed& placed) {
  s.scheduled |= (1u << v);
  s.used_procs |= (1u << p);
  s.tail[static_cast<std::size_t>(p)] = placed.finish;
  s.finish[static_cast<std::size_t>(v)] = placed.finish;
  s.proc[static_cast<std::size_t>(v)] = static_cast<std::uint8_t>(p);
  const Time late = placed.finish - prob.tasks[static_cast<std::size_t>(v)].ed;
  if (late > s.partial) s.partial = late;
}

Problem build_problem(const TaskGraph& graph, const Machine& machine) {
  machine.check();
  if (graph.subtask_count() > static_cast<std::size_t>(kMaxExactSubtasks)) {
    throw std::invalid_argument("exact: instance has " +
                                std::to_string(graph.subtask_count()) +
                                " subtasks; the oracle handles at most " +
                                std::to_string(kMaxExactSubtasks));
  }
  if (machine.n_procs > kMaxExactProcs) {
    throw std::invalid_argument("exact: machine has " + std::to_string(machine.n_procs) +
                                " processors; the oracle handles at most " +
                                std::to_string(kMaxExactProcs));
  }

  const auto topo = topological_order(graph);
  if (!topo.has_value()) throw std::invalid_argument("exact: task graph is cyclic");

  Problem prob;
  prob.machine = &machine;
  prob.n_procs = machine.n_procs;
  prob.dense_of.assign(graph.node_count(), -1);
  const std::vector<Time> eds = effective_deadlines(graph);

  for (NodeId id : *topo) {
    if (!graph.is_computation(id)) continue;
    const Node& node = graph.node(id);
    DenseTask t;
    t.id = id;
    t.exec = node.exec_time;
    t.floor = is_set(node.boundary_release) ? node.boundary_release : 0.0;
    t.ed = eds[id.index()];
    if (node.pinned.valid()) {
      if (node.pinned.index() >= static_cast<std::size_t>(machine.n_procs)) {
        throw std::invalid_argument("exact: subtask '" + node.name +
                                    "' is pinned to processor " +
                                    std::to_string(node.pinned.index()) +
                                    " but the machine has only " +
                                    std::to_string(machine.n_procs));
      }
      t.pin = static_cast<int>(node.pinned.index());
    }
    prob.dense_of[id.index()] = static_cast<int>(prob.tasks.size());
    prob.tasks.push_back(std::move(t));
  }
  prob.n = static_cast<int>(prob.tasks.size());
  prob.full_mask = prob.n == 32 ? 0xffffffffu : ((1u << prob.n) - 1u);

  bool any_pinned = false;
  for (int v = 0; v < prob.n; ++v) {
    DenseTask& t = prob.tasks[static_cast<std::size_t>(v)];
    if (t.pin >= 0) any_pinned = true;
    // Fastest processor this task may run on (for critical-path bounds).
    Time best = kInfiniteTime;
    if (t.pin >= 0) {
      best = machine.exec_time_on(t.exec, t.pin);
    } else {
      for (int p = 0; p < prob.n_procs; ++p) {
        const Time e = machine.exec_time_on(t.exec, p);
        if (e < best) best = e;
      }
    }
    t.exec_min = best;
    // Predecessor computation subtasks, through the mediating comm node.
    for (NodeId comm : graph.preds(t.id)) {
      const NodeId src = graph.comm_source(comm);
      const int u = prob.dense_of[src.index()];
      // Topological order guarantees the predecessor was densified already.
      const Time lat = machine.transfer_time(graph.node(comm).message_items);
      t.preds.emplace_back(u, lat);
      t.pred_mask |= (1u << u);
      prob.tasks[static_cast<std::size_t>(u)].succ_mask |= (1u << v);
    }
  }
  prob.symmetric = machine.homogeneous() && !any_pinned;
  return prob;
}

/// Subtracts a relative safety margin so that a bound computed with
/// different floating-point associativity than the leaf values can never
/// overshoot and prune a strictly better completion.
Time shave(Time x) noexcept {
  if (!std::isfinite(x)) return x;
  return x - (1e-9 + 1e-12 * std::fabs(x));
}

/// Dominance-memo key: the scheduled set plus the processor of every *live*
/// placed task (one with an unscheduled successor).  Tasks whose successors
/// are all placed no longer influence any future placement, so two states
/// differing only in where such tasks ran are interchangeable.
struct MemoKey {
  std::uint64_t lo = 0;  ///< Proc nibbles of dense tasks 0..15.
  std::uint64_t hi = 0;  ///< Proc nibbles of 16..19, plus the scheduled mask.

  friend bool operator==(const MemoKey& a, const MemoKey& b) noexcept {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

struct MemoKeyHash {
  std::size_t operator()(const MemoKey& k) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = (h ^ k.lo) * 0x100000001b3ull;
    h = (h ^ k.hi) * 0x100000001b3ull;
    return static_cast<std::size_t>(h);
  }
};

/// Memo payload: the components of a state that do influence the future.
/// An entry *dominates* a state when every component is <=; floating-point
/// max/+ are monotone, so any completion of the dominated state is matched
/// by a pointwise-<= completion of the dominator.
struct MemoEntry {
  std::array<Time, kMaxExactProcs> tail;
  std::vector<Time> live_finish;  ///< Finishes of live tasks, ascending index.
  Time partial;
};

struct Candidate {
  int v;
  int p;
  Placed placed;
  Time lb;  ///< Lower bound on any completion through this placement.
};

class Searcher {
 public:
  Searcher(const Problem& prob, const ExactOptions& options)
      : prob_(prob),
        budget_(options.node_budget == 0 ? std::numeric_limits<std::uint64_t>::max()
                                         : options.node_budget),
        memo_limit_(options.memo_limit),
        started_(std::chrono::steady_clock::now()) {
    if (options.time_budget_s > 0.0) {
      deadline_ = started_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(options.time_budget_s));
      has_deadline_ = true;
    }
  }

  /// Replays a fixed placement order, updating the incumbent.  Used for the
  /// greedy seed and for caller-provided warm starts.
  void offer(const std::vector<std::pair<int, int>>& order, const char* what) {
    SearchState s;
    std::vector<int> placed_order;
    placed_order.reserve(order.size());
    for (const auto& [v, p] : order) {
      if (v < 0 || v >= prob_.n || p < 0 || p >= prob_.n_procs)
        throw std::invalid_argument(std::string("exact: ") + what + " references an out-of-range task or processor");
      const DenseTask& t = prob_.tasks[static_cast<std::size_t>(v)];
      if ((s.scheduled & (1u << v)) != 0)
        throw std::invalid_argument(std::string("exact: ") + what + " places a subtask twice");
      if ((t.pred_mask & ~s.scheduled) != 0)
        throw std::invalid_argument(std::string("exact: ") + what + " violates precedence order");
      if (t.pin >= 0 && t.pin != p)
        throw std::invalid_argument(std::string("exact: ") + what + " contradicts a pinned subtask");
      apply(prob_, s, v, p, place_on(prob_, s, v, p));
      placed_order.push_back(v);
    }
    if (s.scheduled != prob_.full_mask)
      throw std::invalid_argument(std::string("exact: ") + what + " does not cover every subtask");
    note_leaf(s, placed_order);
  }

  /// Greedy warm start: repeatedly place the ready task with the tightest
  /// effective deadline on the processor finishing it earliest.  Consistent
  /// with the symmetry-breaking rule, so the incumbent it produces is always
  /// reachable by the search proper.
  void greedy_seed() {
    SearchState s;
    std::vector<int> placed_order;
    placed_order.reserve(static_cast<std::size_t>(prob_.n));
    while (s.scheduled != prob_.full_mask) {
      int best_v = -1;
      for (int v = 0; v < prob_.n; ++v) {
        if ((s.scheduled & (1u << v)) != 0) continue;
        const DenseTask& t = prob_.tasks[static_cast<std::size_t>(v)];
        if ((t.pred_mask & ~s.scheduled) != 0) continue;
        if (best_v < 0 || t.ed < prob_.tasks[static_cast<std::size_t>(best_v)].ed) best_v = v;
      }
      int best_p = -1;
      Placed best{};
      for (int p : allowed_procs(s, best_v)) {
        const Placed cand = place_on(prob_, s, best_v, p);
        if (best_p < 0 || cand.finish < best.finish) {
          best_p = p;
          best = cand;
        }
      }
      apply(prob_, s, best_v, best_p, best);
      placed_order.push_back(best_v);
    }
    note_leaf(s, placed_order);
  }

  void run() {
    if (prob_.n == 0) {
      proven_ = true;
      return;
    }
    SearchState root;
    path_.clear();
    path_.reserve(static_cast<std::size_t>(prob_.n));
    ++nodes_;
    dfs(root, -kInfiniteTime);
    proven_ = !stopped_;
  }

  ExactResult result() const {
    ExactResult r;
    r.proven = proven_;
    r.nodes = nodes_;
    r.pruned_bound = pruned_bound_;
    r.pruned_dominated = pruned_dominated_;
    if (prob_.n == 0) {
      r.optimal = -kInfiniteTime;
      r.bound = -kInfiniteTime;
      return r;
    }
    r.optimal = incumbent_;
    r.bound = proven_ ? incumbent_ : std::min(incumbent_, frontier_min_);
    r.placement.reserve(inc_order_.size());
    for (int v : inc_order_) {
      const std::size_t sv = static_cast<std::size_t>(v);
      ExactPlacement p;
      p.node = prob_.tasks[sv].id;
      p.proc = ProcId(static_cast<std::uint32_t>(inc_proc_[sv]));
      p.start = inc_start_[sv];
      p.finish = inc_finish_[sv];
      r.placement.push_back(p);
    }
    return r;
  }

 private:
  /// Processors task \p v may be appended to, honouring pins and (on
  /// symmetric instances) considering only the lowest-indexed never-used
  /// processor among the empty ones.
  std::vector<int> allowed_procs(const SearchState& s, int v) const {
    const DenseTask& t = prob_.tasks[static_cast<std::size_t>(v)];
    std::vector<int> procs;
    if (t.pin >= 0) {
      procs.push_back(t.pin);
      return procs;
    }
    bool fresh_taken = false;
    for (int p = 0; p < prob_.n_procs; ++p) {
      if (prob_.symmetric && (s.used_procs & (1u << p)) == 0) {
        if (fresh_taken) continue;
        fresh_taken = true;
      }
      procs.push_back(p);
    }
    return procs;
  }

  /// Critical-path relaxation: earliest-start pass over the unscheduled
  /// tasks assuming every relaxed task may use the least-loaded processor
  /// and co-locate with any unfixed predecessor.  Floating-point monotone
  /// against every true completion, so usable unshaved.
  Time lb_critical_path(const SearchState& s) const {
    Time min_tail = kInfiniteTime;
    for (int p = 0; p < prob_.n_procs; ++p) {
      if (s.tail[static_cast<std::size_t>(p)] < min_tail) min_tail = s.tail[static_cast<std::size_t>(p)];
    }
    Time lb = -kInfiniteTime;
    std::array<Time, kMaxExactSubtasks> est{};
    for (int v = 0; v < prob_.n; ++v) {
      if ((s.scheduled & (1u << v)) != 0) continue;
      const DenseTask& t = prob_.tasks[static_cast<std::size_t>(v)];
      Time e = t.floor;
      const Time avail = t.pin >= 0 ? s.tail[static_cast<std::size_t>(t.pin)] : min_tail;
      if (avail > e) e = avail;
      for (const auto& [u, lat] : t.preds) {
        Time a;
        if ((s.scheduled & (1u << u)) != 0) {
          a = s.finish[static_cast<std::size_t>(u)];
          if (t.pin >= 0 && s.proc[static_cast<std::size_t>(u)] != static_cast<std::uint8_t>(t.pin)) a += lat;
        } else {
          const DenseTask& tu = prob_.tasks[static_cast<std::size_t>(u)];
          a = est[static_cast<std::size_t>(u)] + tu.exec_min;
          if (t.pin >= 0 && tu.pin >= 0 && tu.pin != t.pin) a += lat;
        }
        if (a > e) e = a;
      }
      est[static_cast<std::size_t>(v)] = e;
      const Time l = e + t.exec_min - t.ed;
      if (l > lb) lb = l;
    }
    return lb;
  }

  /// Demand relaxation: water-fill the remaining nominal workload over the
  /// processor tails at their speeds; the resulting completion time minus
  /// the loosest remaining effective deadline bounds the final lateness.
  /// Involves sums and divisions with no monotone relation to leaf
  /// arithmetic, so callers must shave() it.
  Time lb_demand(const SearchState& s) const {
    Time work = 0.0;
    Time max_ed = -kInfiniteTime;
    for (int v = 0; v < prob_.n; ++v) {
      if ((s.scheduled & (1u << v)) != 0) continue;
      work += prob_.tasks[static_cast<std::size_t>(v)].exec;
      const Time ed = prob_.tasks[static_cast<std::size_t>(v)].ed;
      if (ed > max_ed) max_ed = ed;
    }
    if (work <= 0.0 || !std::isfinite(max_ed)) return -kInfiniteTime;

    std::array<std::pair<Time, double>, kMaxExactProcs> procs{};  // (tail, speed)
    for (int p = 0; p < prob_.n_procs; ++p) {
      procs[static_cast<std::size_t>(p)] = {s.tail[static_cast<std::size_t>(p)],
                                            prob_.machine->speed_of(p)};
    }
    std::sort(procs.begin(), procs.begin() + prob_.n_procs);
    // Sweep the water level T upward across tail thresholds.
    double speed_sum = 0.0;
    Time level = procs[0].first;
    Time absorbed = 0.0;  // Work absorbed when the level reaches procs[i].first.
    int i = 0;
    while (i < prob_.n_procs) {
      // Raise the level to the next tail (or to completion) with the
      // processors activated so far.
      const Time next = procs[static_cast<std::size_t>(i)].first;
      if (speed_sum > 0.0) {
        const Time capacity = speed_sum * (next - level);
        if (absorbed + capacity >= work) break;
        absorbed += capacity;
      }
      level = next;
      speed_sum += procs[static_cast<std::size_t>(i)].second;
      ++i;
    }
    const Time finish = level + (work - absorbed) / speed_sum;
    return finish - max_ed;
  }

  MemoKey memo_key(const SearchState& s) const {
    MemoKey key;
    key.hi = static_cast<std::uint64_t>(s.scheduled) << 32;
    for (int v = 0; v < prob_.n; ++v) {
      if ((s.scheduled & (1u << v)) == 0) continue;
      if ((prob_.tasks[static_cast<std::size_t>(v)].succ_mask & ~s.scheduled) == 0) continue;
      // A plain proc nibble is unambiguous: the scheduled mask (in hi)
      // determines the live set, so a 0 nibble is only ever compared
      // against another state's same-meaning position.
      const std::uint64_t nibble = static_cast<std::uint64_t>(s.proc[static_cast<std::size_t>(v)]);
      if (v < 16) {
        key.lo |= nibble << (4 * v);
      } else {
        key.hi |= nibble << (4 * (v - 16));
      }
    }
    return key;
  }

  /// Returns true when a previously expanded state dominates \p s (prune);
  /// otherwise records \p s for future dominance checks, capacity allowing.
  bool dominated_or_record(const SearchState& s) {
    MemoEntry entry;
    entry.tail = s.tail;
    entry.partial = s.partial;
    for (int v = 0; v < prob_.n; ++v) {
      if ((s.scheduled & (1u << v)) == 0) continue;
      if ((prob_.tasks[static_cast<std::size_t>(v)].succ_mask & ~s.scheduled) == 0) continue;
      entry.live_finish.push_back(s.finish[static_cast<std::size_t>(v)]);
    }
    const MemoKey key = memo_key(s);
    auto& bucket = memo_[key];
    for (const MemoEntry& e : bucket) {
      if (e.partial > entry.partial) continue;
      bool dominates = true;
      for (int p = 0; p < prob_.n_procs && dominates; ++p) {
        if (e.tail[static_cast<std::size_t>(p)] > entry.tail[static_cast<std::size_t>(p)]) dominates = false;
      }
      for (std::size_t j = 0; j < entry.live_finish.size() && dominates; ++j) {
        if (e.live_finish[j] > entry.live_finish[j]) dominates = false;
      }
      if (dominates) return true;
    }
    if (bucket.size() < kMemoBucketCap && memo_entries_ < memo_limit_) {
      bucket.push_back(std::move(entry));
      ++memo_entries_;
    }
    return false;
  }

  void note_leaf(const SearchState& s, const std::vector<int>& order) {
    if (has_incumbent_ && !(s.partial < incumbent_)) return;
    has_incumbent_ = true;
    incumbent_ = s.partial;
    inc_order_ = order;
    inc_proc_ = s.proc;
    inc_finish_ = s.finish;
    // Recover the exact starts by replaying (cheap: n appends); deriving
    // them as finish - exec could differ from the placed start by rounding.
    SearchState replay;
    for (int v : order) {
      const std::size_t sv = static_cast<std::size_t>(v);
      const Placed placed = place_on(prob_, replay, v, inc_proc_[sv]);
      inc_start_[sv] = placed.start;
      apply(prob_, replay, v, static_cast<int>(inc_proc_[sv]), placed);
    }
  }

  bool out_of_time() {
    if (!has_deadline_ || time_up_) return time_up_;
    if ((nodes_ & 0x3f) == 0 && std::chrono::steady_clock::now() >= deadline_) time_up_ = true;
    return time_up_;
  }

  void dfs(SearchState& s, Time inherited_lb) {
    if (s.scheduled == prob_.full_mask) {
      note_leaf(s, path_);
      return;
    }

    Time node_lb = inherited_lb;
    if (s.partial > node_lb) node_lb = s.partial;
    const Time lb_cp = lb_critical_path(s);
    if (lb_cp > node_lb) node_lb = lb_cp;
    const Time lb_dem = shave(lb_demand(s));
    if (lb_dem > node_lb) node_lb = lb_dem;
    if (has_incumbent_ && node_lb >= incumbent_) {
      ++pruned_bound_;
      return;
    }
    if (dominated_or_record(s)) {
      ++pruned_dominated_;
      return;
    }

    std::vector<Candidate> cands;
    for (int v = 0; v < prob_.n; ++v) {
      if ((s.scheduled & (1u << v)) != 0) continue;
      const DenseTask& t = prob_.tasks[static_cast<std::size_t>(v)];
      if ((t.pred_mask & ~s.scheduled) != 0) continue;
      for (int p : allowed_procs(s, v)) {
        Candidate c;
        c.v = v;
        c.p = p;
        c.placed = place_on(prob_, s, v, p);
        const Time late = c.placed.finish - t.ed;
        c.lb = node_lb;
        if (late > c.lb) c.lb = late;
        cands.push_back(c);
      }
    }
    std::sort(cands.begin(), cands.end(), [this](const Candidate& a, const Candidate& b) {
      if (a.lb != b.lb) return a.lb < b.lb;
      const Time eda = prob_.tasks[static_cast<std::size_t>(a.v)].ed;
      const Time edb = prob_.tasks[static_cast<std::size_t>(b.v)].ed;
      if (eda != edb) return eda < edb;
      if (a.v != b.v) return a.v < b.v;
      return a.p < b.p;
    });

    for (const Candidate& c : cands) {
      if (has_incumbent_ && c.lb >= incumbent_) {
        ++pruned_bound_;
        continue;
      }
      if (stopped_ || nodes_ >= budget_ || out_of_time()) {
        stopped_ = true;
        if (c.lb < frontier_min_) frontier_min_ = c.lb;
        continue;
      }
      ++nodes_;
      SearchState child = s;
      apply(prob_, child, c.v, c.p, c.placed);
      path_.push_back(c.v);
      dfs(child, c.lb);
      path_.pop_back();
    }
  }

  static constexpr std::size_t kMemoBucketCap = 16;

  const Problem& prob_;
  std::uint64_t budget_;
  std::size_t memo_limit_;
  std::chrono::steady_clock::time_point started_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  bool time_up_ = false;

  std::uint64_t nodes_ = 0;
  std::uint64_t pruned_bound_ = 0;
  std::uint64_t pruned_dominated_ = 0;
  bool stopped_ = false;
  bool proven_ = false;

  bool has_incumbent_ = false;
  Time incumbent_ = kInfiniteTime;
  Time frontier_min_ = kInfiniteTime;
  std::vector<int> inc_order_;
  std::array<std::uint8_t, kMaxExactSubtasks> inc_proc_{};
  std::array<Time, kMaxExactSubtasks> inc_start_{};
  std::array<Time, kMaxExactSubtasks> inc_finish_{};

  std::vector<int> path_;
  std::size_t memo_entries_ = 0;
  std::unordered_map<MemoKey, std::vector<MemoEntry>, MemoKeyHash> memo_;
};

/// Exhaustive enumerator sharing place_on/apply with the search.  No
/// pruning, no symmetry breaking, no memo, no budget: the trust anchor.
class Enumerator {
 public:
  Enumerator(const Problem& prob) : prob_(prob) {}

  void run() {
    if (prob_.n == 0) return;
    SearchState root;
    path_.reserve(static_cast<std::size_t>(prob_.n));
    ++nodes_;
    walk(root);
  }

  ExactResult result() const {
    ExactResult r;
    r.proven = true;
    r.nodes = nodes_;
    if (prob_.n == 0) {
      r.optimal = -kInfiniteTime;
      r.bound = -kInfiniteTime;
      return r;
    }
    r.optimal = best_;
    r.bound = best_;
    for (int v : best_order_) {
      const std::size_t sv = static_cast<std::size_t>(v);
      ExactPlacement p;
      p.node = prob_.tasks[sv].id;
      p.proc = ProcId(static_cast<std::uint32_t>(best_proc_[sv]));
      p.start = best_start_[sv];
      p.finish = best_finish_[sv];
      r.placement.push_back(p);
    }
    return r;
  }

 private:
  void walk(SearchState& s) {
    if (s.scheduled == prob_.full_mask) {
      if (!has_best_ || s.partial < best_) {
        has_best_ = true;
        best_ = s.partial;
        best_order_ = path_;
        best_proc_ = s.proc;
        best_finish_ = s.finish;
        SearchState replay;
        for (int v : path_) {
          const std::size_t sv = static_cast<std::size_t>(v);
          const Placed placed = place_on(prob_, replay, v, static_cast<int>(s.proc[sv]));
          best_start_[sv] = placed.start;
          apply(prob_, replay, v, static_cast<int>(s.proc[sv]), placed);
        }
      }
      return;
    }
    for (int v = 0; v < prob_.n; ++v) {
      if ((s.scheduled & (1u << v)) != 0) continue;
      const DenseTask& t = prob_.tasks[static_cast<std::size_t>(v)];
      if ((t.pred_mask & ~s.scheduled) != 0) continue;
      const int lo = t.pin >= 0 ? t.pin : 0;
      const int hi = t.pin >= 0 ? t.pin + 1 : prob_.n_procs;
      for (int p = lo; p < hi; ++p) {
        ++nodes_;
        SearchState child = s;
        apply(prob_, child, v, p, place_on(prob_, s, v, p));
        path_.push_back(v);
        walk(child);
        path_.pop_back();
      }
    }
  }

  const Problem& prob_;
  std::uint64_t nodes_ = 0;
  bool has_best_ = false;
  Time best_ = kInfiniteTime;
  std::vector<int> best_order_;
  std::array<std::uint8_t, kMaxExactSubtasks> best_proc_{};
  std::array<Time, kMaxExactSubtasks> best_start_{};
  std::array<Time, kMaxExactSubtasks> best_finish_{};
  std::vector<int> path_;
};

std::vector<std::pair<int, int>> densify_seed(const Problem& prob, const TaskGraph& graph,
                                              const ExactSeed& seed) {
  std::vector<std::pair<int, int>> order;
  order.reserve(seed.order.size());
  for (const auto& [id, proc] : seed.order) {
    if (id.index() >= graph.node_count() || prob.dense_of[id.index()] < 0)
      throw std::invalid_argument("exact: seed references a non-computation node");
    order.emplace_back(prob.dense_of[id.index()],
                       proc.valid() ? static_cast<int>(proc.index()) : -1);
  }
  return order;
}

}  // namespace

std::vector<Time> effective_deadlines(const TaskGraph& graph) {
  const auto topo = topological_order(graph);
  if (!topo.has_value()) throw std::invalid_argument("exact: task graph is cyclic");
  std::vector<Time> ed(graph.node_count(), kInfiniteTime);
  for (auto it = topo->rbegin(); it != topo->rend(); ++it) {
    const NodeId id = *it;
    Time e = kInfiniteTime;
    const Node& node = graph.node(id);
    if (node.kind == NodeKind::Computation && is_set(node.boundary_deadline))
      e = node.boundary_deadline;
    for (NodeId succ : graph.succs(id)) {
      if (ed[succ.index()] < e) e = ed[succ.index()];
    }
    ed[id.index()] = e;
  }
  return ed;
}

ExactSeed seed_from_schedule(const TaskGraph& graph, const Schedule& schedule) {
  const auto topo = topological_order(graph);
  if (!topo.has_value()) throw std::invalid_argument("exact: task graph is cyclic");
  std::vector<std::size_t> topo_pos(graph.node_count(), 0);
  for (std::size_t i = 0; i < topo->size(); ++i) topo_pos[(*topo)[i].index()] = i;

  ExactSeed seed;
  for (NodeId id : graph.computation_nodes()) {
    const TaskPlacement& p = schedule.placement(id);
    if (!p.placed()) throw std::invalid_argument("exact: schedule does not place every subtask");
    seed.order.emplace_back(id, p.proc);
  }
  std::sort(seed.order.begin(), seed.order.end(),
            [&](const std::pair<NodeId, ProcId>& a, const std::pair<NodeId, ProcId>& b) {
              const Time sa = schedule.placement(a.first).start;
              const Time sb = schedule.placement(b.first).start;
              if (sa != sb) return sa < sb;
              return topo_pos[a.first.index()] < topo_pos[b.first.index()];
            });
  return seed;
}

ExactResult solve_exact(const TaskGraph& graph, const Machine& machine,
                        const ExactOptions& options) {
  if (const auto fault = check::fire(check::FaultSite::ExactSolve)) {
    check::execute(*fault, "exact-solve");
  }
  const auto t0 = std::chrono::steady_clock::now();
  obs::SpanScope span(obs::Span::ExactSolve);

  const Problem prob = build_problem(graph, machine);
  Searcher searcher(prob, options);
  if (prob.n > 0) {
    searcher.greedy_seed();
    for (const ExactSeed& seed : options.seeds) {
      searcher.offer(densify_seed(prob, graph, seed), "seed");
    }
  }
  searcher.run();

  ExactResult result = searcher.result();
  result.contention_relaxed = machine.contention != CommContention::ContentionFree;
  result.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                       .count();
  obs::count(obs::Counter::ExactNode, result.nodes);
  obs::count(obs::Counter::ExactPruned, result.pruned_bound + result.pruned_dominated);
  return result;
}

ExactResult enumerate_optimal(const TaskGraph& graph, const Machine& machine) {
  if (graph.subtask_count() > 10) {
    throw std::invalid_argument("exact: enumerate_optimal handles at most 10 subtasks");
  }
  if (machine.n_procs > 4) {
    throw std::invalid_argument("exact: enumerate_optimal handles at most 4 processors");
  }
  const auto t0 = std::chrono::steady_clock::now();
  const Problem prob = build_problem(graph, machine);
  Enumerator enumerator(prob);
  enumerator.run();
  ExactResult result = enumerator.result();
  result.contention_relaxed = machine.contention != CommContention::ContentionFree;
  result.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                       .count();
  return result;
}

}  // namespace feast::exact
