/// \file list_scheduler.cpp
/// \brief The optimized list-scheduler core.
///
/// Trace-identical to list_schedule_ref (see list_scheduler_detail.hpp for
/// the contract, tests/test_sched_differential.cpp and `feastc diffsched`
/// for the enforcement) but built for the experiment hot path, where one
/// campaign cell schedules 128 graphs back to back:
///
///  - all static graph state is read from a PreparedTopology (sched/
///    batch.hpp): flat SoA execution times, transfer latencies, pinning
///    and CSR comm lists, built once per graph and reused across runs —
///    placement never touches the AoS TaskGraph;
///  - selection keys are static per run under all three policies, so the
///    priority order is fixed by one exact sort up front and the ready set
///    becomes a bitset over priority ranks (find-first-set selection),
///    replacing the per-step linear scan;
///  - all working memory lives in a SchedulerScratch arena that is rebound,
///    not reallocated, between runs;
///  - under the contention-free model the per-processor ready time is
///    assembled from one pass over the predecessors (top-two crossing
///    arrivals by producer processor + per-processor producer maxima)
///    instead of one pass per candidate processor;
///  - Schedule writes use the unchecked fast-path writers; the per-run
///    completeness postcondition, the validator and the differential
///    oracle carry the safety the per-write checks used to.
#include <algorithm>
#include <bit>
#include <vector>

#include "obs/obs.hpp"
#include "sched/batch.hpp"
#include "sched/bus.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/list_scheduler_detail.hpp"

namespace feast {

const char* to_string(ReleasePolicy policy) noexcept {
  switch (policy) {
    case ReleasePolicy::TimeDriven: return "time-driven";
    case ReleasePolicy::Eager: return "eager";
  }
  return "?";
}

const char* to_string(SelectionPolicy policy) noexcept {
  switch (policy) {
    case SelectionPolicy::Edf: return "EDF";
    case SelectionPolicy::Fifo: return "FIFO";
    case SelectionPolicy::StaticLaxity: return "static-laxity";
  }
  return "?";
}

const char* to_string(ProcessorPolicy policy) noexcept {
  switch (policy) {
    case ProcessorPolicy::GapSearch: return "gap-search";
    case ProcessorPolicy::QueueAtEnd: return "queue-at-end";
  }
  return "?";
}

const char* to_string(SchedulerCore core) noexcept {
  switch (core) {
    case SchedulerCore::Fast: return "fast";
    case SchedulerCore::Reference: return "reference";
  }
  return "?";
}

namespace {

/// One scheduling run of the optimized core over a prepared topology and
/// a bound scratch arena.
class FastRun {
 public:
  FastRun(const PreparedTopology& topology, const DeadlineAssignment& assignment,
          const Machine& machine, const SchedulerOptions& options,
          Schedule& schedule, SchedulerScratch& s)
      : t_(topology),
        assignment_(assignment),
        machine_(machine),
        options_(options),
        schedule_(schedule),
        s_(s),
        n_procs_(static_cast<std::size_t>(machine.n_procs)) {}

  void run() {
    // One sink resolution per run, not per query: at ~150-200 timeline
    // probes per paper-sized graph a per-probe atomic load would be
    // measurable, so the hot loops bump plain members and the totals are
    // flushed once here.
    obs::Sink* const sink = obs::active();
    {
      obs::SpanScope span(sink, obs::Span::SchedPrepare);
      prepare();
    }
    obs::SpanScope place_span(sink, obs::Span::SchedPlace);
    std::uint32_t placed = 0;
    while (ready_count_ > 0) {
      const NodeId chosen = ready_pop();
      const std::uint32_t pin = t_.pinned[chosen.index()];
      hint_valid_ = false;
      depart_cache_valid_ = false;
      departs_lb_valid_ = false;
      const ProcId psel = pin != ProcId::kInvalid ? ProcId(pin) : choose_proc(chosen);
      commit(chosen, psel);
      ++placed;
      const std::uint32_t sb = t_.succ_offset[chosen.index()];
      const std::uint32_t se = t_.succ_offset[chosen.index() + 1];
      for (std::uint32_t i = sb; i < se; ++i) {
        // Mirror the producer's result onto each outgoing comm so the
        // consumer's evaluation loops never touch the Schedule.
        const NodeId comm = t_.succ_comms[i];
        SchedulerScratch::CommMirror& mirror = s_.comm[comm.index()];
        mirror.finish = committed_finish_;
        mirror.proc = committed_proc_;
        mirror.latency = t_.latency[comm.index()];
        const std::uint32_t consumer = t_.comm_sink[comm.index()];
        FEAST_ASSERT(s_.waiting[consumer] > 0);
        if (--s_.waiting[consumer] == 0) ready_push(rank_[consumer]);
      }
    }
    FEAST_ENSURE_MSG(placed == t_.n_subtasks,
                     "scheduler failed to place every subtask");
    if (sink != nullptr) {
      obs::count_on(sink, obs::Counter::ReadyPush, push_count_);
      obs::count_on(sink, obs::Counter::BusGapProbe, probe_count_);
      obs::count_on(sink, obs::Counter::BusReserve, reserve_count_);
    }
  }

 private:
  // --- per-run precomputation ------------------------------------------

  void prepare() {
    s_.bind(t_.n_nodes, t_.comp_ids.size(), n_procs_,
            machine_.contention == CommContention::PointToPointLinks);
    std::copy_n(t_.waiting_init.data(), t_.n_nodes, s_.waiting.data());

    // Everything else prepare() derives — release floors, selection keys,
    // the sorted priority order, the initial ready set — is a pure
    // function of the deadline windows, the topology's static arrays and
    // the run's policies.  All of it is memoized on the topology, keyed by
    // the raw window bit images: the experiment pipeline replays one
    // assignment across repetitions and machine axes, so most runs find
    // their windows unchanged and skip the whole derivation.  The
    // validation compares every fresh window against the cached image
    // (exact integer compare of the double bits), so a hit reuses values
    // recomputation would reproduce bit for bit, and a run that changed
    // any window pays one re-derivation.  Measured: fill + sort were ~16%
    // of a contention-free run before memoization.
    const bool time_driven = options_.release_policy == ReleasePolicy::TimeDriven;
    const std::size_t n_comps = t_.comp_ids.size();
    PreparedTopology::SelectionCache& cache = t_.sel_cache;
    const int policy_tag = (static_cast<int>(options_.selection) << 1) |
                           static_cast<int>(time_driven);
    bool hit = cache.policy == policy_tag;
    if (hit) {
      // Branchless validation walk: XOR-accumulate the image differences
      // over both window fields and test once at the end.
      std::uint64_t diff = 0;
      for (std::size_t i = 0; i < n_comps; ++i) {
        const NodeWindow& w =
            assignment_.window_unchecked(NodeId(t_.comp_ids[i]));
        diff |= (std::bit_cast<std::uint64_t>(w.release) ^ cache.win_rel[i]) |
                (std::bit_cast<std::uint64_t>(w.rel_deadline) ^ cache.win_dl[i]);
      }
      hit = diff == 0;
    }
    const std::size_t n_words = (n_comps + 63) / 64;
    if (!hit) {
      cache.policy = policy_tag;
      if (cache.win_rel.size() < n_comps) {
        cache.win_rel.resize(n_comps);
        cache.win_dl.resize(n_comps);
        cache.order.resize(n_comps);
      }
      if (cache.rank.size() < t_.n_nodes) {
        cache.rank.resize(t_.n_nodes);
        cache.floor.resize(t_.n_nodes);
      }
      if (cache.seed_words.size() < n_words) cache.seed_words.resize(n_words);

      // Floors and selection keys from the packed windows.  The key
      // expressions are those of detail::selection_key over the same
      // doubles (abs_deadline = release + rel_deadline; static laxity =
      // rel_deadline − exec), so the sorted order is the contract's.
      // Policy dispatch hoisted out of the loop: ~50 subtasks per run pay
      // one branch here instead of one switch each.  Indexed writes into
      // the pre-sized buffers, not push_back: the capacity branch per
      // element was visible at this call rate.
      const auto fill = [&](auto&& key_of) {
        std::size_t si = 0;
        for (const std::uint32_t v : t_.comp_ids) {
          const NodeId id(v);
          const NodeWindow& w = assignment_.window_unchecked(id);
          cache.win_rel[si] = std::bit_cast<std::uint64_t>(w.release);
          cache.win_dl[si] = std::bit_cast<std::uint64_t>(w.rel_deadline);
          cache.floor[v] = time_driven ? w.release : t_.eager_floor[v];
          s_.sort_buf[si++] = {detail::time_order_key(key_of(v, w)),
                               detail::time_order_key(w.release), id};
        }
      };
      switch (options_.selection) {
        case SelectionPolicy::Edf:
          fill([](std::uint32_t, const NodeWindow& w) {
            return w.release + w.rel_deadline;
          });
          break;
        case SelectionPolicy::Fifo:
          fill([](std::uint32_t, const NodeWindow& w) { return w.release; });
          break;
        case SelectionPolicy::StaticLaxity:
          fill([this](std::uint32_t v, const NodeWindow& w) {
            return w.rel_deadline - t_.exec[v];
          });
          break;
      }

      // Fix the selection order once: the contract's (key, release, id)
      // comparison is an exact total order (ids are unique), so the sorted
      // permutation is unique and rank order reproduces the reference's
      // per-step minimum search decision (contract point 1).  Entries
      // carry time_order_key images, so the comparison is pure integer
      // lexicographic.
      // Insertion sort: deadlines grow along paths and nodes are numbered
      // roughly topologically, so inputs carry some presortedness and the
      // sizes are small (n <= ~60 subtasks).
      const auto less = [](const SchedulerScratch::ReadyEntry& a,
                           const SchedulerScratch::ReadyEntry& b) {
        if (a.key != b.key) return a.key < b.key;
        if (a.release != b.release) return a.release < b.release;
        return a.id < b.id;
      };
      for (std::size_t i = 1; i < n_comps; ++i) {
        const SchedulerScratch::ReadyEntry entry = s_.sort_buf[i];
        std::size_t j = i;
        while (j > 0 && less(entry, s_.sort_buf[j - 1])) {
          s_.sort_buf[j] = s_.sort_buf[j - 1];
          --j;
        }
        s_.sort_buf[j] = entry;
      }
      for (std::uint32_t r = 0; r < n_comps; ++r) {
        const NodeId id = s_.sort_buf[r].id;
        cache.order[r] = id;
        cache.rank[id.index()] = r;
      }
      // Initial ready set: ranks whose subtask has no predecessor.  A
      // function of the cached permutation and the static predecessor
      // counts, so it is memoized alongside (the waiting counters hold
      // their initial values here — nothing has been placed).
      std::fill_n(cache.seed_words.data(), n_words, 0);
      std::uint32_t seeded = 0;
      for (std::uint32_t r = 0; r < n_comps; ++r) {
        if (s_.waiting[cache.order[r].index()] == 0) {
          cache.seed_words[r >> 6] |= std::uint64_t{1} << (r & 63);
          ++seeded;
        }
      }
      cache.seed_count = seeded;
    }
    order_ = cache.order.data();
    rank_ = cache.rank.data();
    floor_ = cache.floor.data();
    std::copy_n(cache.seed_words.data(), n_words, s_.ready_words.data());
    ready_count_ = cache.seed_count;
    push_count_ += cache.seed_count;  // same obs totals as per-push counting
  }

  // --- ready queue: bitset over static priority ranks -------------------

  void ready_push(std::uint32_t rank) {
    s_.ready_words[rank >> 6] |= std::uint64_t{1} << (rank & 63);
    ++ready_count_;
    ++push_count_;
  }

  NodeId ready_pop() {
    // Lowest set rank = the contract's selection minimum.  The caller
    // guarantees a set bit exists (ready_count_ > 0).
    std::uint64_t* const words = s_.ready_words.data();
    std::size_t w = 0;
    while (words[w] == 0) ++w;
    const std::size_t bit =
        (w << 6) + static_cast<std::size_t>(std::countr_zero(words[w]));
    words[w] &= words[w] - 1;
    --ready_count_;
    return order_[bit];
  }

  // --- machine model ----------------------------------------------------

  Time exec_on(NodeId id, std::size_t proc) const {
    return machine_.homogeneous() ? t_.exec[id.index()]
                                  : t_.exec[id.index()] / machine_.speeds[proc];
  }

  BusTimeline& link_between(ProcId a, ProcId b) {
    FEAST_ASSERT(a != b);
    const std::size_t lo = std::min(a.index(), b.index());
    const std::size_t hi = std::max(a.index(), b.index());
    return s_.links[lo * n_procs_ + hi];
  }

  Time proc_fit(std::size_t proc, Time ready, Time duration) {
    if (options_.processor_policy == ProcessorPolicy::GapSearch) {
      ++probe_count_;
      return s_.procs[proc].query(ready, duration);
    }
    return std::max(s_.proc_tail[proc], ready);
  }

  void proc_commit(std::size_t proc, Time start, Time duration) {
    // The start always comes from proc_fit over the same timeline state, so
    // it is known to fit: reserve_at skips the redundant gap re-search (and,
    // under queue-at-end, hits the O(1) tail-append path every time).
    s_.procs[proc].reserve_at(start, duration);
    s_.proc_tail[proc] = std::max(s_.proc_tail[proc], start + duration);
    ++reserve_count_;
  }

  // --- processor choice -------------------------------------------------

  /// The lowest-indexed processor whose earliest start beats the incumbent
  /// by more than kTimeEps (contract point 3).
  ProcId choose_proc(NodeId id) {
    return machine_.contention == CommContention::PointToPointLinks
               ? choose_proc_links(id)
               : choose_proc_uniform_crossing(id);
  }

  /// Point-to-point links: the crossing arrival depends on the (producer
  /// processor, candidate processor) pair, so every pair must be queried —
  /// but the producer data comes from the mirrored arrays, not the
  /// Schedule.
  ProcId choose_proc_links(NodeId id) {
    const std::uint32_t begin = t_.pred_offset[id.index()];
    const std::uint32_t end = t_.pred_offset[id.index() + 1];
    // Every candidate's ready time is at least each producer's bare finish
    // (a crossing arrival only adds latency on top), so max(floor, max
    // produced) bounds every earliest start.  As below, once the incumbent
    // reaches this bound within kTimeEps the scan can stop early without
    // changing the winner.
    Time lower = floor_[id.index()];
    for (std::uint32_t i = begin; i < end; ++i) {
      lower = std::max(lower, s_.comm[t_.pred_comms[i].index()].finish);
    }
    // Homogeneous machines (the paper's) execute a subtask in the same
    // time everywhere; hoist it out of the candidate loop.
    const bool uniform = machine_.homogeneous();
    const Time uniform_exec = uniform ? t_.exec[id.index()] : 0.0;
    Time best_est = kInfiniteTime;
    ProcId target;
    for (std::size_t p = 0; p < n_procs_; ++p) {
      const ProcId proc(static_cast<std::uint32_t>(p));
      Time ready = floor_[id.index()];
      for (std::uint32_t i = begin; i < end; ++i) {
        const SchedulerScratch::CommMirror& m = s_.comm[t_.pred_comms[i].index()];
        const ProcId pp(m.proc);
        Time arrival = m.finish;
        if (pp != proc) {
          ++probe_count_;
          arrival = link_between(pp, proc).query(m.finish, m.latency) + m.latency;
        }
        ready = std::max(ready, arrival);
      }
      // A start can never precede the ready time, so a candidate whose
      // ready time already fails the improvement test cannot win; skip its
      // gap query.
      if (ready >= best_est - kTimeEps) continue;
      const Time est = proc_fit(p, ready, uniform ? uniform_exec : exec_on(id, p));
      if (est < best_est - kTimeEps) {
        best_est = est;
        target = proc;
        if (best_est <= lower + kTimeEps) break;
      }
    }
    return target;
  }

  /// Contention-free and shared-bus fast path: in both models the crossing
  /// arrival of a predecessor is independent of the candidate processor
  /// (contention-free: finish + latency; shared bus: one bus query from
  /// the producer's finish — the reference evaluates it per candidate, but
  /// queries are side-effect free so every candidate sees the same value).
  /// One pass over the predecessors therefore suffices.  A predecessor
  /// contributes its crossing arrival to every processor except its own,
  /// where it contributes the bare finish.  The maximum crossing arrival
  /// excluding processor p is the global top value unless p is the top
  /// value's processor, in which case it is the best value from any
  /// *other* processor — so tracking the top two by distinct producer
  /// processor plus a per-processor producer-finish maximum reconstructs
  /// every per-processor ready time exactly (the same set of doubles feeds
  /// the same max, so values are bit-identical to the reference walk).
  ProcId choose_proc_uniform_crossing(NodeId id) {
    const std::uint32_t begin = t_.pred_offset[id.index()];
    const std::uint32_t end = t_.pred_offset[id.index() + 1];
    const bool shared_bus = machine_.contention == CommContention::SharedBus;
    Time top1 = -kInfiniteTime;
    Time top2 = -kInfiniteTime;
    Time local_t1 = -kInfiniteTime;
    std::uint32_t top1_proc = ProcId::kInvalid;
    if (end - begin == 1) {
      // Single predecessor — the most common join shape at paper sizes
      // (mean in-degree < 2): the top-two fold degenerates, so skip both
      // passes below.
      SchedulerScratch::CommMirror& m = s_.comm[t_.pred_comms[begin].index()];
      const Time produced = m.finish;
      Time crossing = produced + m.latency;
      if (shared_bus) {
        ++probe_count_;
        m.depart = s_.bus.query(produced, m.latency);
        crossing = m.depart + m.latency;
      }
      top1 = crossing;
      top1_proc = m.proc;
      local_t1 = produced;
    } else {
      for (std::uint32_t i = begin; i < end; ++i) {
        SchedulerScratch::CommMirror& m = s_.comm[t_.pred_comms[i].index()];
        const Time produced = m.finish;
        Time crossing = produced + m.latency;
        if (shared_bus) {
          ++probe_count_;
          // Cache the query for commit: until the first reservation of this
          // placement the bus is unchanged, so the first crossing transfer
          // committed reuses this answer instead of re-running the scan.
          m.depart = s_.bus.query(produced, m.latency);
          crossing = m.depart + m.latency;
        }
        const std::uint32_t p = m.proc;
        if (crossing > top1) {
          if (top1_proc != p) top2 = top1;
          top1 = crossing;
          top1_proc = p;
        } else if (p != top1_proc && crossing > top2) {
          top2 = crossing;
        }
      }

      // Producer maximum on top1's own processor — the only per-processor
      // local value the candidate fold below ever needs, so it comes from a
      // short second pass over the mirrors (already in cache) instead of a
      // per-processor array.  Max of doubles is order-insensitive, so the
      // fold equals the reference's.
      if (top1_proc != ProcId::kInvalid) {
        for (std::uint32_t i = begin; i < end; ++i) {
          const SchedulerScratch::CommMirror& m = s_.comm[t_.pred_comms[i].index()];
          if (m.proc == top1_proc && m.finish > local_t1) local_t1 = m.finish;
        }
      }
    }
    const Time floor = floor_[id.index()];
    // Lower bound on every candidate's earliest start — and exactly the
    // ready time of top1's own processor.  For p != top1's processor the
    // ready time is at least top1; for top1's own it is
    // max(floor, top2, local_t1), and both top2 and local_t1 are <= top1
    // (a crossing arrival dominates its bare finish), so this bounds every
    // candidate.  Once the incumbent start is within kTimeEps of this
    // bound, no higher-indexed processor can beat it by more than
    // kTimeEps, and the scan stops.  Queries are side-effect free, so
    // skipping them changes nothing; the winner — and therefore the trace
    // — is exactly the full scan's.
    Time lower = floor;
    if (top1_proc != ProcId::kInvalid) {
      lower = std::max(lower, std::max(top2, local_t1));
    }
    // Second cutoff: every candidate other than top1's own processor sees
    // the top crossing arrival, so its ready time is at least
    // rb = max(floor, top1).  Once the incumbent start is within kTimeEps
    // of rb, those candidates all fail the improvement test before their
    // gap query (est >= ready >= rb >= best - eps) — only top1's processor
    // can still win, so the scan jumps straight to it.
    const Time rb = std::max(floor, top1);
    // Homogeneous machines (the paper's) execute a subtask in the same
    // time everywhere; hoist it out of the candidate loop.
    const bool uniform = machine_.homogeneous();
    const Time uniform_exec = uniform ? t_.exec[id.index()] : 0.0;
    Time best_est = kInfiniteTime;
    ProcId target;
    for (std::size_t p = 0; p < n_procs_; ++p) {
      // Only two ready times occur.  For p != top1's processor the fold is
      // max(floor, top1, local[p]) — and local[p] <= top1 always (a bare
      // finish never exceeds its own crossing arrival, which never exceeds
      // the global top), so it collapses to rb.  For top1's own processor
      // it is lower's fold exactly.  Same maxima over the same doubles as
      // the reference's per-candidate walk, just folded once up front.
      const Time ready = p == top1_proc ? lower : rb;
      // A start can never precede the ready time: a candidate whose ready
      // time already fails the improvement test cannot win, so its gap
      // query is skipped outright.
      if (ready >= best_est - kTimeEps) continue;
      const Time est = proc_fit(p, ready, uniform ? uniform_exec : exec_on(id, p));
      if (est < best_est - kTimeEps) {
        best_est = est;
        target = ProcId(static_cast<std::uint32_t>(p));
        chosen_est_ = est;
        chosen_ready_ = ready;
        if (best_est <= lower + kTimeEps) break;
        if (rb >= best_est - kTimeEps) {
          // Everyone but top1's processor is pre-filtered from here on; the
          // fold over the remaining candidates reduces to evaluating it
          // alone (when it is still ahead), exactly as the full scan would.
          const std::size_t q = top1_proc;
          if (top1_proc != ProcId::kInvalid && q > p &&
              lower < best_est - kTimeEps) {
            const Time eq =
                proc_fit(q, lower, uniform ? uniform_exec : exec_on(id, q));
            if (eq < best_est - kTimeEps) {
              best_est = eq;
              target = ProcId(top1_proc);
              chosen_est_ = eq;
              chosen_ready_ = lower;
            }
          }
          break;
        }
      }
    }
    // Commit recomputes the winner's ready time from the same mirrored
    // values and would issue the same final gap query — hand it the start
    // instead (bit-identical: identical expression over identical
    // doubles).  Under ContentionFree the hint is unconditionally valid;
    // under SharedBus commit's reservations can push a later transfer past
    // the depart this pass queried, so commit compares its recomputed
    // ready against chosen_ready_ before trusting the hint.  The per-pred
    // departs cached above stay valid until commit's first reservation.
    hint_valid_ = true;
    depart_cache_valid_ = shared_bus;
    departs_lb_valid_ = shared_bus;
    return target;
  }

  // --- placement --------------------------------------------------------

  void commit(NodeId id, ProcId proc) {
    if (machine_.contention == CommContention::ContentionFree) {
      commit_contention_free(id, proc);
      return;
    }
    Time ready = floor_[id.index()];

    // Commit incoming transfers in (producer finish, comm id) order — the
    // trace contract's deterministic reservation order.  The CSR list is
    // already ascending by id; the stable finish sort supplies the rest.
    // Typical consumers have one to three predecessors, so the sort runs
    // over a small stack buffer; the scratch vector only backs the rare
    // wide join (same insertion sort, same order either way).
    const std::uint32_t begin = t_.pred_offset[id.index()];
    const std::uint32_t n_preds = t_.pred_offset[id.index() + 1] - begin;
    NodeId stack_order[8];
    const NodeId* order = stack_order;
    if (n_preds <= 8) {
      for (std::uint32_t i = 0; i < n_preds; ++i) {
        const NodeId comm = t_.pred_comms[begin + i];
        const Time finish = s_.comm[comm.index()].finish;
        std::uint32_t j = i;
        for (; j > 0 && s_.comm[stack_order[j - 1].index()].finish > finish; --j) {
          stack_order[j] = stack_order[j - 1];
        }
        stack_order[j] = comm;
      }
    } else {
      s_.commit_order.assign(t_.pred_comms.begin() + begin,
                             t_.pred_comms.begin() + begin + n_preds);
      detail::order_comms_by_finish_with(s_.commit_order, [this](NodeId comm) {
        return s_.comm[comm.index()].finish;
      });
      order = s_.commit_order.data();
    }
    for (std::uint32_t oi = 0; oi < n_preds; ++oi) {
      const NodeId comm = order[oi];
      const SchedulerScratch::CommMirror& m = s_.comm[comm.index()];
      const Time produced = m.finish;
      const ProcId pp(m.proc);
      if (pp == proc) {
        schedule_.record_transfer_unchecked(comm, produced, produced,
                                            /*crossed_bus=*/false);
        ready = std::max(ready, produced);
        continue;
      }
      const Time latency = m.latency;
      Time depart = produced;
      switch (machine_.contention) {
        case CommContention::SharedBus:
          if (depart_cache_valid_) {
            // First reservation of this placement: the bus is exactly as
            // choose_proc saw it, so its cached query answer is the query
            // reserve would re-run.  Any reservation invalidates the
            // remaining cached departs (the bus changed under them).
            depart = m.depart;
            s_.bus.reserve_at(depart, latency);
          } else {
            // Later reservations: the bus only gained busy time since
            // choose_proc's query, so no feasible start can have appeared
            // before the cached depart — it is a valid lower bound, and
            // starting the gap scan there skips the slots the query
            // already walked.  The earliest feasible start at or past the
            // bound is the same slot boundary either way, so the depart
            // is bit-identical to a scan from the bare finish.
            depart =
                s_.bus.reserve(departs_lb_valid_ ? m.depart : produced, latency);
          }
          ++reserve_count_;
          break;
        case CommContention::PointToPointLinks:
          depart = link_between(pp, proc).reserve(produced, latency);
          ++reserve_count_;
          break;
        case CommContention::ContentionFree:
          break;
      }
      const Time arrive = depart + latency;
      depart_cache_valid_ = false;  // the reservation moved the bus
      schedule_.record_transfer_unchecked(comm, depart, arrive,
                                          /*crossed_bus=*/true);
      ready = std::max(ready, arrive);
    }

    const Time exec = exec_on(id, proc.index());
    // Reservations above only touched the bus/link timelines; the chosen
    // processor's timeline is exactly as choose_proc queried it.  When the
    // recomputed ready time equals the winner's (it can only grow, when a
    // reservation pushed a transfer past its queried depart), the final
    // gap query would repeat choose_proc's — reuse its answer.
    const Time start = hint_valid_ && ready == chosen_ready_
                           ? chosen_est_
                           : proc_fit(proc.index(), ready, exec);
    schedule_.place_unchecked(id, proc, start, start + exec);
    proc_commit(proc.index(), start, exec);
    committed_finish_ = start + exec;
    committed_proc_ = proc.value;
  }

  /// ContentionFree commit: nothing is reserved on a shared resource, so
  /// the contract's (finish, id) commit order has no observable effect —
  /// transfers are recorded per communication node and the ready time is a
  /// max over the same values in any order.  The CSR walk therefore skips
  /// the ordering sort, and when choose_proc already evaluated this
  /// processor its start is reused instead of re-queried.
  void commit_contention_free(NodeId id, ProcId proc) {
    const std::uint32_t begin = t_.pred_offset[id.index()];
    const std::uint32_t end = t_.pred_offset[id.index() + 1];
    const std::uint32_t pv = proc.value;
    Time ready = floor_[id.index()];
    for (std::uint32_t i = begin; i < end; ++i) {
      const NodeId comm = t_.pred_comms[i];
      const SchedulerScratch::CommMirror& m = s_.comm[comm.index()];
      const Time produced = m.finish;
      if (m.proc == pv) {
        schedule_.record_transfer_unchecked(comm, produced, produced,
                                            /*crossed_bus=*/false);
        if (produced > ready) ready = produced;
      } else {
        const Time arrive = produced + m.latency;
        schedule_.record_transfer_unchecked(comm, produced, arrive,
                                            /*crossed_bus=*/true);
        if (arrive > ready) ready = arrive;
      }
    }
    const Time exec = exec_on(id, proc.index());
    const Time start =
        hint_valid_ ? chosen_est_ : proc_fit(proc.index(), ready, exec);
    schedule_.place_unchecked(id, proc, start, start + exec);
    proc_commit(proc.index(), start, exec);
    committed_finish_ = start + exec;
    committed_proc_ = proc.value;
  }

  const PreparedTopology& t_;
  const DeadlineAssignment& assignment_;
  const Machine& machine_;
  const SchedulerOptions options_;
  Schedule& schedule_;
  SchedulerScratch& s_;
  const std::size_t n_procs_;
  // Selection order for this run: the topology's memoized (or freshly
  // sorted) permutation, bound by prepare().
  const NodeId* order_ = nullptr;        ///< Rank -> subtask id.
  const std::uint32_t* rank_ = nullptr;  ///< Node id -> rank.
  const Time* floor_ = nullptr;          ///< Node id -> release floor.
  std::uint32_t ready_count_ = 0;    ///< Set bits in the ready bitset.
  // Plain per-run obs counters, flushed once at the end of run() so the
  // placement loops never touch an atomic (see the note in run()).
  std::uint32_t push_count_ = 0;     ///< obs::Counter::ReadyPush.
  std::uint32_t probe_count_ = 0;    ///< obs::Counter::BusGapProbe.
  std::uint32_t reserve_count_ = 0;  ///< obs::Counter::BusReserve.
  bool hint_valid_ = false;          ///< choose_proc start hint usable.
  bool depart_cache_valid_ = false;  ///< CommMirror::depart still current.
  bool departs_lb_valid_ = false;    ///< CommMirror::depart a lower bound.
  Time chosen_est_ = 0.0;            ///< Winner's start from choose_proc.
  Time chosen_ready_ = 0.0;          ///< Winner's ready time with it.
  Time committed_finish_ = 0.0;      ///< Last commit, for succ mirroring.
  std::uint32_t committed_proc_ = 0; ///< Last commit, for succ mirroring.
};

}  // namespace

void list_schedule_prepared(const PreparedTopology& topology,
                            const DeadlineAssignment& assignment,
                            const Machine& machine, const SchedulerOptions& options,
                            SchedulerScratch& scratch, Schedule& out) {
  machine.check();
  FEAST_REQUIRE_MSG(assignment.complete(), "assignment must cover every node");
  const TaskGraph* const graph = topology.source_graph();
  FEAST_REQUIRE_MSG(graph != nullptr && topology.matches(*graph, machine),
                    "topology not built for this graph and machine");
  FastRun(topology, assignment, machine, options, out, scratch).run();
  // The unchecked Schedule writers shift the per-write contract here: a
  // double placement or a missed node both leave complete() false.
  FEAST_ENSURE(out.complete(*graph));
}

Schedule list_schedule(const TaskGraph& graph, const DeadlineAssignment& assignment,
                       const Machine& machine, const SchedulerOptions& options,
                       SchedulerScratch& scratch) {
  // One prepared topology per thread, rebuilt per call: the ad-hoc entry
  // point gives no graph-identity guarantee, so only the buffers are
  // reused (BatchScheduler is the entry point that also reuses contents).
  thread_local PreparedTopology topology;
  topology.build(graph, machine);
  Schedule schedule(graph, machine);
  list_schedule_prepared(topology, assignment, machine, options, scratch, schedule);
  return schedule;
}

Schedule list_schedule(const TaskGraph& graph, const DeadlineAssignment& assignment,
                       const Machine& machine, const SchedulerOptions& options) {
  // One arena per thread: batch sweeps running on util/parallel.hpp's
  // persistent pool reuse their buffers across every sample and cell.
  thread_local SchedulerScratch scratch;
  return list_schedule(graph, assignment, machine, options, scratch);
}

Schedule list_schedule_with(SchedulerCore core, const TaskGraph& graph,
                            const DeadlineAssignment& assignment, const Machine& machine,
                            const SchedulerOptions& options) {
  return core == SchedulerCore::Reference
             ? list_schedule_ref(graph, assignment, machine, options)
             : list_schedule(graph, assignment, machine, options);
}

}  // namespace feast
