/// \file test_bus.cpp
/// \brief Unit tests for the serialized bus / processor timeline with
///        first-fit gap allocation.
#include <gtest/gtest.h>

#include <cstdint>

#include "sched/bus.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/time_types.hpp"

namespace feast {
namespace {

TEST(BusTimeline, EmptyTimelineStartsAtEarliest) {
  BusTimeline bus;
  EXPECT_DOUBLE_EQ(bus.query(5.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(bus.total_busy(), 0.0);
}

TEST(BusTimeline, ReserveCommitsAndSerializes) {
  BusTimeline bus;
  EXPECT_DOUBLE_EQ(bus.reserve(0.0, 10.0), 0.0);
  // Overlapping request is pushed after the committed slot.
  EXPECT_DOUBLE_EQ(bus.query(5.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(bus.reserve(5.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(bus.total_busy(), 20.0);
  ASSERT_EQ(bus.size(), 2u);
}

TEST(BusTimeline, GapIsUsedWhenItFits) {
  BusTimeline bus;
  bus.reserve(0.0, 10.0);    // [0, 10]
  bus.reserve(30.0, 10.0);   // [30, 40]
  // A 15-unit transfer fits in the [10, 30] gap.
  EXPECT_DOUBLE_EQ(bus.query(0.0, 15.0), 10.0);
  // A 25-unit transfer does not; it goes after the last slot.
  EXPECT_DOUBLE_EQ(bus.query(0.0, 25.0), 40.0);
  // Short transfer with a later earliest bound still lands in the gap.
  EXPECT_DOUBLE_EQ(bus.query(12.0, 5.0), 12.0);
}

TEST(BusTimeline, GapSearchRespectsEarliest) {
  BusTimeline bus;
  bus.reserve(10.0, 10.0);  // [10, 20]
  // Gap before the slot: [0, 10) fits a 10-unit transfer at 0.
  EXPECT_DOUBLE_EQ(bus.query(0.0, 10.0), 0.0);
  // But an 11-unit transfer must go after the slot.
  EXPECT_DOUBLE_EQ(bus.query(0.0, 11.0), 20.0);
}

TEST(BusTimeline, ZeroDurationAlwaysFits) {
  BusTimeline bus;
  bus.reserve(0.0, 10.0);
  EXPECT_DOUBLE_EQ(bus.query(5.0, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(bus.reserve(5.0, 0.0), 5.0);
  EXPECT_EQ(bus.size(), 1u);  // zero-width slots are not stored
}

TEST(BusTimeline, NegativeDurationRejected) {
  BusTimeline bus;
  EXPECT_THROW(bus.query(0.0, -1.0), ContractViolation);
}

TEST(BusTimeline, ManyReservationsStaySorted) {
  BusTimeline bus;
  // Reserve in a scrambled earliest order; slots must remain disjoint.
  for (const double earliest : {50.0, 0.0, 25.0, 10.0, 70.0, 5.0}) {
    bus.reserve(earliest, 8.0);
  }
  const auto& starts = bus.starts();
  const auto& ends = bus.ends();
  ASSERT_EQ(starts.size(), ends.size());
  for (std::size_t i = 1; i < starts.size(); ++i) {
    EXPECT_LE(ends[i - 1], starts[i] + kTimeEps);
    EXPECT_LT(starts[i - 1], starts[i]);
  }
  EXPECT_DOUBLE_EQ(bus.total_busy(), 48.0);
}

TEST(BusTimeline, BackToBackSlotsAllowed) {
  BusTimeline bus;
  bus.reserve(0.0, 10.0);
  // Exactly adjacent slot starting at 10 is legal.
  EXPECT_DOUBLE_EQ(bus.reserve(10.0, 10.0), 10.0);
  EXPECT_EQ(bus.size(), 2u);
}

// The accelerated query (tail hint, short linear walk, binary search on
// long lists) and reserve must agree with the seed-form linear oracle on
// every call, across both sides of the small-list cutover.  Two timelines
// are driven with an identical randomized request stream; the accelerated
// one must return the same answers and end in the same state.
TEST(BusTimeline, AcceleratedPathsMatchLinearOracle) {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state]() {
    // xorshift64*: deterministic, no RNG dependency in this test.
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  };

  BusTimeline fast;
  BusTimeline oracle;
  for (int i = 0; i < 200; ++i) {
    const Time earliest = static_cast<Time>(next() % 1000) / 4.0;
    const Time duration = static_cast<Time>(next() % 40) / 8.0;

    ASSERT_DOUBLE_EQ(fast.query(earliest, duration),
                     oracle.query_linear(earliest, duration))
        << "query divergence at request " << i << " (" << fast.size()
        << " slots)";

    if (next() % 2 == 0) {
      const Time start = fast.reserve(earliest, duration);
      ASSERT_DOUBLE_EQ(start, oracle.reserve_linear(earliest, duration))
          << "reserve divergence at request " << i;
    }

    ASSERT_EQ(fast.size(), oracle.size());
    for (std::size_t s = 0; s < fast.size(); ++s) {
      ASSERT_DOUBLE_EQ(fast.starts()[s], oracle.starts()[s]);
      ASSERT_DOUBLE_EQ(fast.ends()[s], oracle.ends()[s]);
    }
  }
  // The stream must have pushed the timeline past the small-list linear
  // path, or the binary-search branch went untested.
  EXPECT_GT(fast.size(), 16u);
}

/// The first-fit walk written out locally, from slot 0, so query() and
/// query_linear() are both checked against independent text.
Time naive_gap(const BusTimeline& bus, Time candidate, Time duration) {
  if (duration <= 0.0) return candidate;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    if (bus.ends()[i] <= candidate + kTimeEps) continue;
    if (bus.starts()[i] >= candidate + duration - kTimeEps) break;
    candidate = bus.ends()[i];
  }
  return candidate;
}

TEST(BusTimeline, GapScanSingleSlotAndEpsBoundaries) {
  BusTimeline bus;
  bus.reserve_at(10.0, 10.0);  // [10, 20]
  // Fits before the slot exactly (start boundary within eps).
  EXPECT_EQ(bus.query(0.0, 10.0 + kTimeEps), 0.0);
  EXPECT_EQ(bus.query_linear(0.0, 10.0 + kTimeEps), 0.0);
  // Collides: pushed to the slot end.
  EXPECT_EQ(bus.query(5.0, 6.0), 20.0);
  EXPECT_EQ(bus.query_linear(5.0, 6.0), 20.0);
  // Candidate already past the slot end (within eps): slot skipped.
  EXPECT_EQ(bus.query(20.0 - kTimeEps, 100.0), 20.0 - kTimeEps);
  EXPECT_EQ(bus.query_linear(20.0 - kTimeEps, 100.0), 20.0 - kTimeEps);
}

TEST(BusTimeline, GapScanDenseChainsPushThroughEverySlot) {
  // Back-to-back slots: a request that fits in no gap must cascade to the
  // tail, through the short front walk and, past 16 slots, the positioned
  // walk alike.
  for (std::size_t n = 1; n <= 40; ++n) {
    BusTimeline bus;
    for (std::size_t i = 0; i < n; ++i) {
      bus.reserve_at(static_cast<Time>(i) * 10.0, 10.0);
    }
    ASSERT_EQ(bus.size(), n);
    const Time tail = static_cast<Time>(n) * 10.0;
    EXPECT_EQ(naive_gap(bus, 0.0, 5.0), tail);
    EXPECT_EQ(bus.query(0.0, 5.0), tail) << "n=" << n;
    EXPECT_EQ(bus.query_linear(0.0, 5.0), tail) << "n=" << n;
    // From the middle of the chain the cascade starts at the straddling slot.
    const Time mid = static_cast<Time>(n / 2) * 10.0 + 3.0;
    EXPECT_EQ(bus.query(mid, 5.0), tail) << "n=" << n;
  }
}

TEST(BusTimeline, GapScanFuzzAgainstNaiveWalk) {
  Pcg32 rng(303);
  for (int round = 0; round < 4000; ++round) {
    const int n = rng.uniform_int(1, 40);
    BusTimeline bus;
    Time t = rng.uniform_real(0.0, 5.0);
    for (int i = 0; i < n; ++i) {
      // Mostly dense (zero-width inter-slot gaps), sometimes roomy — the
      // dense case makes the walk chain through many slots.
      t += rng.uniform_int(0, 2) == 0 ? rng.uniform_real(0.0, 8.0) : 0.0;
      const Time width = rng.uniform_real(0.1, 6.0);
      bus.reserve_at(t, width);
      t += width;
    }
    const Time earliest = rng.uniform_real(-2.0, t + 4.0);
    const Time duration = rng.uniform_real(0.05, 9.0);
    const Time expected = naive_gap(bus, earliest, duration);
    ASSERT_EQ(bus.query(earliest, duration), expected) << "round=" << round;
    ASSERT_EQ(bus.query_linear(earliest, duration), expected) << "round=" << round;
  }
}

TEST(BusTimeline, LongTimelineQueriesDeepInThePrefix) {
  // 41 unit slots on even starts [2k, 2k+1], with one wide hole at
  // [21, 30): earliest bounds far from the tail take the binary-search
  // positioning, near ones the backward gallop; both must land where the
  // front-to-back walk does.
  BusTimeline bus;
  for (int k = 0; k < 45; ++k) {
    if (k >= 11 && k <= 14) continue;
    bus.reserve_at(2.0 * k, 1.0);
  }
  ASSERT_GT(bus.size(), 16u);
  EXPECT_EQ(bus.query(0.0, 1.0), 1.0);     // first unit gap
  EXPECT_EQ(bus.query(0.5, 1.0), 1.0);     // straddles slot 0
  EXPECT_EQ(bus.query(0.0, 1.5), 21.0);    // first gap wide enough: the hole
  EXPECT_EQ(bus.query(22.0, 8.0), 22.0);   // inside the hole
  EXPECT_EQ(bus.query(22.5, 8.0), 89.0);   // overruns the hole; no later gap fits
  EXPECT_EQ(bus.query(80.2, 1.0), 81.0);   // near the tail
  EXPECT_EQ(bus.query(87.0, 3.0), 89.0);   // collides with the last slot
  for (Time earliest = -1.0; earliest < 92.0; earliest += 0.25) {
    for (const Time duration : {0.5, 1.0, 1.5, 9.0}) {
      ASSERT_EQ(bus.query(earliest, duration), naive_gap(bus, earliest, duration))
          << "earliest=" << earliest << " duration=" << duration;
    }
  }
}

TEST(BusTimeline, ReserveCommitsTheFirstFitStart) {
  // reserve() commits exactly what query() answered, on short and long
  // timelines, filling holes front to back.
  for (const int n : {3, 30}) {
    BusTimeline bus;
    for (int k = 0; k < n; ++k) bus.reserve_at(4.0 * k, 2.0);  // holes of 2
    for (int k = 0; k < n - 1; ++k) {
      const Time expected = bus.query(0.0, 2.0);
      EXPECT_EQ(expected, 4.0 * k + 2.0) << "n=" << n;
      EXPECT_EQ(bus.reserve(0.0, 2.0), expected) << "n=" << n;
    }
    // Every hole is now filled: the timeline is one dense chain.
    ASSERT_EQ(bus.size(), static_cast<std::size_t>(2 * n - 1));
    for (std::size_t i = 1; i < bus.size(); ++i) {
      EXPECT_EQ(bus.starts()[i], bus.ends()[i - 1]);
    }
    EXPECT_EQ(bus.reserve(0.0, 2.0), 4.0 * (n - 1) + 2.0);
    EXPECT_EQ(bus.total_busy(), 4.0 * n);
  }
}

}  // namespace
}  // namespace feast
