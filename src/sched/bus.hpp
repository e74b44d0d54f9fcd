/// \file bus.hpp
/// \brief Serialized shared-bus timeline for the contention model.
///
/// The SharedBus communication model serializes every cross-processor
/// transfer on one bus.  The timeline keeps the committed transfer slots
/// sorted and answers first-fit queries: the earliest start >= `earliest`
/// at which a slot of `duration` fits into a gap.  Queries are side-effect
/// free so the scheduler can evaluate candidate processors before
/// committing one.
///
/// Storage is SoA — parallel `starts[]` / `ends[]` arrays rather than an
/// array of slot structs — so a gap probe walks one contiguous double
/// stream per comparison.
#pragma once

#include <algorithm>
#include <vector>

#include "util/contracts.hpp"
#include "util/time_types.hpp"

namespace feast {

/// Single-resource timeline with first-fit gap allocation.
///
/// Gap search is accelerated for the scheduler's access pattern (queries
/// whose earliest bound grows with scheduling progress): a tail hint
/// answers at-or-past-the-end queries in O(1), and a binary search on the
/// sorted slot starts skips the committed prefix that a query can never
/// interact with, so GapSearch placement no longer re-walks the full busy
/// list per candidate processor.  Results are exactly those of the naive
/// front-to-back first-fit walk.
class BusTimeline {
 public:
  /// Earliest start >= \p earliest at which \p duration fits.  A zero
  /// duration always fits at \p earliest.  Defined inline: the scheduler
  /// issues one query per candidate processor per placement, and the call
  /// dominated its profile when out of line.
  Time query(Time earliest, Time duration) const {
    FEAST_REQUIRE(duration >= 0.0);
    if (duration <= 0.0) return earliest;
    const std::size_t n = starts_.size();
    // Tail hint: past the last committed slot every request fits at once.
    if (n == 0 || ends_[n - 1] <= earliest + kTimeEps) return earliest;
    // Short timelines (the per-processor busy lists of paper-sized runs
    // hold a handful of slots) walk from the front.  Long timelines (the
    // shared bus) position the walk past the prefix a query can never
    // interact with.  Only the slot straddling `earliest` and those after
    // it can collide: slot starts are strictly increasing and slots are
    // disjoint up to kTimeEps, so every slot before the predecessor of the
    // first slot starting at or after `earliest` ends by
    // `earliest + kTimeEps` — the first-fit walk would skip it without
    // moving the candidate.  Queries arrive with earliest bounds near the
    // committed tail (producer finishes grow with scheduling progress), so
    // a short backward gallop finds that position without the binary
    // search's data-dependent branches; the search remains the fallback
    // for the rare query landing deep in the prefix.
    std::size_t from = 0;
    if (n > 16) {
      if (starts_[n - 8] <= earliest) {
        std::size_t i = n;  // <= 8 steps: starts_[n - 8] <= earliest bounds it
        while (i > 0 && starts_[i - 1] > earliest) --i;
        from = i > 0 ? i - 1 : 0;
      } else {
        from = static_cast<std::size_t>(
            std::lower_bound(starts_.begin(), starts_.end(), earliest) -
            starts_.begin());
        if (from > 0) --from;
      }
    }
    return gap_walk(from, earliest, duration);
  }

  /// The naive front-to-back first-fit walk — the reference semantics the
  /// accelerated query() must reproduce exactly.  Kept (a) for the
  /// reference scheduler core, so differential runs exercise both
  /// implementations against each other on every workload, and (b) as the
  /// oracle for BusTimeline's own equivalence tests.  It shares only the
  /// walk with query(), not the tail hint or the prefix skip.
  Time query_linear(Time earliest, Time duration) const {
    FEAST_REQUIRE(duration >= 0.0);
    if (duration <= 0.0) return earliest;
    return gap_walk(0, earliest, duration);
  }

  /// Commits the first-fit slot query() finds; returns its start.
  Time reserve(Time earliest, Time duration) {
    const Time start = query(earliest, duration);
    reserve_at(start, duration);
    return start;
  }

  /// reserve() in the growth seed's form: the naive front-to-back gap walk
  /// followed by a sorted insert with no tail fast path.  Kept for the
  /// reference scheduler core, whose performance baseline must not ride
  /// the accelerated machinery it is compared against.  Result- and
  /// state-identical to reserve().
  Time reserve_linear(Time earliest, Time duration) {
    const Time start = query_linear(earliest, duration);
    if (duration > 0.0) insert_slot(start, start + duration);
    return start;
  }

  /// Commits the slot [\p start, \p start + \p duration) directly, when the
  /// caller already holds a fitting start from query() — the scheduler's
  /// processor commit, where re-running the gap query inside reserve()
  /// would only rediscover the start it was handed.  Inserts exactly the
  /// slot reserve() would have inserted.  Appends in O(1) when the slot
  /// lands at or past the tail (the overwhelmingly common case: execution
  /// starts grow with scheduling progress).
  void reserve_at(Time start, Time duration) {
    if (duration <= 0.0) return;
    if (starts_.empty() || ends_.back() <= start + kTimeEps) {
      starts_.push_back(start);
      ends_.push_back(start + duration);
      return;
    }
    insert_slot(start, start + duration);
  }

  /// Number of committed slots.
  std::size_t size() const noexcept { return starts_.size(); }

  /// True when no slot is committed.
  bool empty() const noexcept { return starts_.empty(); }

  /// Committed slot starts, ascending (parallel to ends()).
  const std::vector<Time>& starts() const noexcept { return starts_; }

  /// Committed slot ends, ascending (parallel to starts()).
  const std::vector<Time>& ends() const noexcept { return ends_; }

  /// Total committed transfer time.
  Time total_busy() const noexcept;

  /// Drops all committed slots but keeps the allocation (scratch reuse).
  void clear() noexcept {
    starts_.clear();
    ends_.clear();
  }

 private:
  /// The first-fit walk from slot \p from with the given \p candidate
  /// start: skip slots that end before the candidate, stop at the first
  /// slot the request fits in front of, otherwise retry right after the
  /// colliding slot.
  Time gap_walk(std::size_t from, Time candidate, Time duration) const {
    for (std::size_t i = from; i < starts_.size(); ++i) {
      if (ends_[i] <= candidate + kTimeEps) continue;  // gap is past this slot
      if (starts_[i] >= candidate + duration - kTimeEps) break;  // fits before it
      candidate = ends_[i];  // collision: try right after this slot
    }
    return candidate;
  }

  /// Sorted insert with collision checks (the non-tail path).
  void insert_slot(Time start, Time end) {
    const std::size_t pos = static_cast<std::size_t>(
        std::lower_bound(starts_.begin(), starts_.end(), start) -
        starts_.begin());
    if (pos > 0) {
      FEAST_ASSERT_MSG(time_le(ends_[pos - 1], start), "bus slot collision");
    }
    if (pos < starts_.size()) {
      FEAST_ASSERT_MSG(time_le(end, starts_[pos]), "bus slot collision");
    }
    starts_.insert(starts_.begin() + static_cast<std::ptrdiff_t>(pos), start);
    ends_.insert(ends_.begin() + static_cast<std::ptrdiff_t>(pos), end);
  }

  // Parallel SoA arrays: slot i occupies [starts_[i], ends_[i]).  Sorted
  // by start, pairwise disjoint (up to kTimeEps).
  std::vector<Time> starts_;
  std::vector<Time> ends_;
};

}  // namespace feast
