/// \file test_util.cpp
/// \brief Unit tests for the support library: contracts, RNG, stats,
///        strings, CSV, tables, parallel_for.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <set>
#include <sstream>

#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/time_types.hpp"

namespace feast {
namespace {

// ---------------------------------------------------------------- contracts

TEST(Contracts, RequireThrowsOnViolation) {
  EXPECT_THROW(FEAST_REQUIRE(1 == 2), ContractViolation);
  EXPECT_NO_THROW(FEAST_REQUIRE(1 == 1));
}

TEST(Contracts, MessageIncludesExpressionAndLocation) {
  try {
    FEAST_REQUIRE_MSG(false, "broken widget");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("broken widget"), std::string::npos);
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
  }
}

TEST(Contracts, EnsureAndAssertThrow) {
  EXPECT_THROW(FEAST_ENSURE(false), ContractViolation);
  EXPECT_THROW(FEAST_ASSERT(false), ContractViolation);
  EXPECT_THROW(FEAST_ASSERT_MSG(false, "x"), ContractViolation);
  EXPECT_THROW(FEAST_ENSURE_MSG(false, "x"), ContractViolation);
}

// --------------------------------------------------------------- time types

TEST(TimeTypes, UnsetDetection) {
  EXPECT_FALSE(is_set(kUnsetTime));
  EXPECT_TRUE(is_set(0.0));
  EXPECT_TRUE(is_set(-5.0));
  EXPECT_TRUE(is_set(kInfiniteTime));
}

TEST(TimeTypes, ToleranceComparisons) {
  EXPECT_TRUE(time_eq(1.0, 1.0 + kTimeEps / 2));
  EXPECT_FALSE(time_eq(1.0, 1.0 + 1e-6));
  EXPECT_TRUE(time_le(1.0, 1.0));
  EXPECT_TRUE(time_le(1.0 + kTimeEps / 2, 1.0));
  EXPECT_TRUE(time_lt(1.0, 2.0));
  EXPECT_FALSE(time_lt(1.0, 1.0 + kTimeEps / 2));
  EXPECT_TRUE(time_ge(2.0, 2.0));
}

// ---------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Pcg32 a(42, 7);
  Pcg32 b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentStreamsDiffer) {
  Pcg32 a(42, 1);
  Pcg32 b(42, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntInRange) {
  Pcg32 rng(1);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit over 1000 draws
}

TEST(Rng, UniformIntSingleton) {
  Pcg32 rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntRejectsBadRange) {
  Pcg32 rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), ContractViolation);
}

TEST(Rng, UniformRealInRange) {
  Pcg32 rng(2);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real(10.0, 30.0);
    EXPECT_GE(v, 10.0);
    EXPECT_LT(v, 30.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 20.0, 0.3);  // mean close to midpoint
}

TEST(Rng, BernoulliFrequency) {
  Pcg32 rng(3);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ShufflePreservesElements) {
  Pcg32 rng(4);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, PickReturnsMember) {
  Pcg32 rng(5);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    const int x = rng.pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

TEST(Rng, SeedForIsDeterministicAndPathSensitive) {
  EXPECT_EQ(seed_for(1, {2, 3}), seed_for(1, {2, 3}));
  EXPECT_NE(seed_for(1, {2, 3}), seed_for(1, {3, 2}));
  EXPECT_NE(seed_for(1, {2}), seed_for(2, {2}));
  EXPECT_NE(seed_for(1, {}), seed_for(1, {0}));
}

// -------------------------------------------------------------------- stats

TEST(Stats, EmptyAccumulator) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  Pcg32 rng(9);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform_real(-10, 10);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Stats, SummaryCi95) {
  RunningStats s;
  for (int i = 0; i < 100; ++i) s.add(static_cast<double>(i % 2));
  const StatSummary sum = s.summary();
  EXPECT_EQ(sum.count, 100u);
  EXPECT_NEAR(sum.ci95_half_width, 1.96 * sum.stddev / 10.0, 1e-12);
}

TEST(Stats, Quantile) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
  EXPECT_THROW(quantile({}, 0.5), ContractViolation);
}

TEST(Stats, MeanOf) {
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
}

// ------------------------------------------------------------------ strings

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_fixed(-1.5, 0), "-2");  // round-half-even via printf
}

TEST(Strings, FormatCompactStripsZeros) {
  EXPECT_EQ(format_compact(1.50, 4), "1.5");
  EXPECT_EQ(format_compact(2.0, 4), "2");
  EXPECT_EQ(format_compact(-0.0, 4), "0");
  EXPECT_EQ(format_compact(0.125, 6), "0.125");
}

TEST(Strings, JoinSplitTrim) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcde", 4), "abcde");
  EXPECT_TRUE(starts_with("feast-graph", "feast"));
  EXPECT_FALSE(starts_with("fe", "feast"));
}

// ---------------------------------------------------------------------- csv

TEST(Csv, EscapingRfc4180) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.write_row({"a", "b,c"});
  csv.write_numeric_row({1.0, 2.5});
  EXPECT_EQ(out.str(), "a,\"b,c\"\n1,2.5\n");
  EXPECT_EQ(csv.rows_written(), 2u);
}

// -------------------------------------------------------------------- table

TEST(Table, AlignsColumns) {
  TextTable t;
  t.set_header({"name", "x"});
  t.add_row({"longer-label", "1"});
  t.add_row("s", {22.5}, 1);
  std::ostringstream out;
  t.render(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("longer-label"), std::string::npos);
  EXPECT_NE(text.find("22.5"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("----"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

// ----------------------------------------------------------------- parallel

TEST(Parallel, CoversAllIndices) {
  std::vector<int> hits(1000, 0);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(64, [](std::size_t i) {
        if (i == 13) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(Parallel, ZeroIterationsIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(Parallel, RespectsConfiguredParallelism) {
  set_parallelism(1);
  EXPECT_EQ(parallelism(), 1u);
  std::vector<int> order;
  parallel_for(8, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  // Single-threaded mode preserves order.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  set_parallelism(0);
}

// Regression: a loop shorter than the worker count used to risk blocking the
// waiter when a body threw before every iteration was claimed.  The loop must
// return (with the exception) no matter where the failure lands.
TEST(Parallel, ExceptionWithFewerIterationsThanWorkers) {
  set_parallelism(8);
  for (std::size_t n = 2; n <= 4; ++n) {
    EXPECT_THROW(parallel_for(n,
                              [](std::size_t i) {
                                if (i == 0) throw std::runtime_error("early");
                              }),
                 std::runtime_error);
  }
  set_parallelism(0);
}

TEST(Parallel, FirstExceptionWins) {
  // Iteration 0 always fails; later iterations may or may not run before the
  // failure is observed, but the propagated error must be a real one (never a
  // lost/empty exception) and the loop must terminate.
  for (int round = 0; round < 20; ++round) {
    try {
      parallel_for(64, [](std::size_t i) {
        if (i % 7 == 0) throw std::runtime_error("fail@" + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("fail@", 0), 0u);
    }
  }
}

TEST(Parallel, UsableAgainAfterException) {
  EXPECT_THROW(parallel_for(32, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> hits{0};
  parallel_for(100, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 100);
}

TEST(Parallel, NestedLoopsComplete) {
  // A body issuing its own parallel_for runs on pool workers; the inner loop
  // must complete via caller participation even with every worker busy.
  std::array<std::atomic<int>, 8> counts{};
  parallel_for(counts.size(), [&](std::size_t i) {
    parallel_for(50, [&](std::size_t) { counts[i].fetch_add(1); });
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 50);
}

// ------------------------------------------------------------------- flags

TEST(CliFlags, StrictParsers) {
  EXPECT_EQ(parse_integer("n", "0x10"), 16);
  EXPECT_EQ(parse_u64("s", "18446744073709551615"), 18446744073709551615u);
  EXPECT_DOUBLE_EQ(parse_real("x", "1.5"), 1.5);
  for (const std::string bad : {"-1", " -1", "1x", "", "18446744073709551616"}) {
    EXPECT_THROW(parse_u64("s", bad), std::invalid_argument) << "'" << bad << "'";
  }
  EXPECT_THROW(parse_integer("n", "12 "), std::invalid_argument);
  EXPECT_EQ(parse_range<int>("r", " 2 : 5 "), std::make_pair(2, 5));
  EXPECT_THROW(parse_range<int>("r", "5:2"), std::invalid_argument);
}

TEST(CliFlags, BoundMessagesNameTheRule) {
  const auto message = [](Bound bound, double v, bool integral) {
    try {
      bound.check("--x", v, integral);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message(Bound::positive(), 0, true), "--x must be positive");
  EXPECT_EQ(message(Bound::non_negative(), -1, true), "--x must be non-negative");
  EXPECT_EQ(message(Bound::positive(), 0, false), "--x must be > 0");
  EXPECT_EQ(message(Bound::between(1, 64), 65, true), "--x wants 1..64");
  EXPECT_EQ(message({0.0, 1.0, false, true}, 1.0, false), "--x must be in [0, 1)");
  EXPECT_EQ(message({0.0, 1.0, false, true}, 0.5, false), "accepted");
}

TEST(CliFlags, JoinedValueOnlyWhereTheMetavarSaysSo) {
  bool isolate = false;
  std::uint64_t seed = 0;
  Flags flags("cmd");
  flags.choice("--isolate", "=process", "h", {{"process", true}, {"none", false}}, isolate)
      .number("--seed", "S", "h", seed);
  flags.parse({"--isolate=process", "--seed", "7"});
  EXPECT_TRUE(isolate);
  EXPECT_EQ(seed, 7u);
  flags.parse({"--isolate", "none"});
  EXPECT_FALSE(isolate);
  EXPECT_THROW(flags.parse({"--seed=3"}), UsageError);
}

TEST(CliFlags, HelpRowsLineUpAtTheColumn) {
  bool quiet = false;
  std::string name;
  Flags flags;
  flags.note("cmd <spec>", "synopsis")
      .text("--name", "NAME", "first line\nsecond line", name)
      .toggle("--quiet", "", quiet)
      .note("  literal   line");
  std::vector<Flags::HelpLine> lines;
  flags.help(lines, 16);
  ASSERT_EQ(lines.size(), 3u);  // The --quiet row has no help: hidden.
  EXPECT_EQ(lines[0].text, "  cmd <spec>    synopsis");
  EXPECT_EQ(lines[1].text, "  --name NAME   first line\n                second line");
  EXPECT_EQ(lines[2].text, "  literal   line");
  flags.parse({"--quiet"});
  EXPECT_TRUE(quiet);
}

}  // namespace
}  // namespace feast
