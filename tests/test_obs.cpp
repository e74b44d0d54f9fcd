/// \file test_obs.cpp
/// \brief Tests for the observability subsystem: span recording across
///        parallel_for workers, counter merging, the Chrome-trace
///        exporter, the disabled-sink fast path, and the RunContext API
///        (context sinks, cache-key identity).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/figures.hpp"
#include "experiment/runner.hpp"
#include "experiment/strategy.hpp"
#include "experiment/sweep.hpp"
#include "obs/obs.hpp"
#include "taskgraph/generator.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Allocation counting for the disabled-sink fast-path test.  The counter is
// thread-local so concurrent allocations on worker threads (pool, gtest
// internals) cannot perturb a measurement taken on the test thread.
// Unaligned new/delete are replaced pairwise with malloc/free; the aligned
// default overloads are untouched and keep pairing with each other.
// ---------------------------------------------------------------------------
namespace {
thread_local std::uint64_t tl_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++tl_alloc_count;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
// The nothrow forms must be replaced too: libstdc++ temporary buffers
// (std::stable_sort) allocate nothrow but deallocate through the ordinary
// operator delete, so a partial replacement trips ASan's pairing check.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++tl_alloc_count;
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace feast {
namespace {

TEST(Obs, ToStringCoversEveryEnumerator) {
  for (std::size_t s = 0; s < obs::kSpanCount; ++s) {
    EXPECT_STRNE(obs::to_string(static_cast<obs::Span>(s)), "?");
  }
  for (std::size_t c = 0; c < obs::kCounterCount; ++c) {
    EXPECT_STRNE(obs::to_string(static_cast<obs::Counter>(c)), "?");
  }
}

TEST(Obs, ScopedSinkInstallsAndRestores) {
  ASSERT_EQ(obs::active(), nullptr);
  obs::Sink outer;
  {
    obs::ScopedSink outer_scope(outer);
    EXPECT_EQ(obs::active(), &outer);
    obs::Sink inner;
    {
      obs::ScopedSink inner_scope(inner);
      EXPECT_EQ(obs::active(), &inner);
    }
    EXPECT_EQ(obs::active(), &outer);
  }
  EXPECT_EQ(obs::active(), nullptr);
}

TEST(Obs, SpansNestAcrossParallelForWorkers) {
  set_parallelism(4);
  constexpr std::size_t kIterations = 32;
  obs::Sink sink;
  {
    obs::ScopedSink scoped(sink);
    parallel_for(kIterations, [](std::size_t) {
      obs::SpanScope outer(obs::Span::CellRun);
      {
        obs::SpanScope inner(obs::Span::Schedule);
        volatile unsigned spin = 0;
        for (unsigned i = 0; i < 500; ++i) spin = spin + i;
      }
    });
  }
  set_parallelism(0);

  const obs::Report report = sink.report();
  std::uint64_t outer_count = 0;
  std::uint64_t inner_count = 0;
  for (const obs::Report::SpanRow& row : report.spans) {
    if (row.span == obs::Span::CellRun) outer_count = row.count;
    if (row.span == obs::Span::Schedule) inner_count = row.count;
    EXPECT_GE(row.mean_us, 0.0);
    EXPECT_GE(row.p95_us, 0.0);
  }
  EXPECT_EQ(outer_count, kIterations);
  EXPECT_EQ(inner_count, kIterations);
  // A nested span can never outlast the scope that contains it.
  EXPECT_GE(report.total_ms({obs::Span::CellRun}),
            report.total_ms({obs::Span::Schedule}));
}

// The Obs.SpansNestAcrossParallelForWorkers pattern with the sink freed
// right after the loop, repeated: a pool helper that still closed its
// pool/task span, or counted an idle spell, into the freed sink
// is a heap-use-after-free under ASan (the CI sanitizer jobs run this).
TEST(ObsStress, SinkFreedRightAfterParallelFor) {
  set_parallelism(4);
  constexpr int kRounds = 250;
  constexpr std::size_t kIterations = 32;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<std::size_t> ran{0};
    auto sink = std::make_unique<obs::Sink>(/*capture_events=*/round % 2 == 1);
    {
      obs::ScopedSink scoped(*sink);
      parallel_for(kIterations, [&ran](std::size_t) {
        obs::SpanScope outer(obs::Span::CellRun);
        obs::SpanScope inner(obs::Span::Schedule);
        volatile unsigned spin = 0;
        for (unsigned i = 0; i < 500; ++i) spin = spin + i;
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    sink.reset();
    ASSERT_EQ(ran.load(), kIterations) << "round " << round;
  }
  set_parallelism(0);
}

TEST(ObsStress, SinkFreedRightAfterSubmit) {
  // A plain submitted task signals its waiter from inside its body, before
  // the worker closes the task's pool/task span; the waiter then frees the
  // sink at once.  Under ASan a span that outlives the sink is a
  // heap-use-after-free.
  set_parallelism(4);
  constexpr int kRounds = 2000;
  constexpr int kTasks = 4;
  for (int round = 0; round < kRounds; ++round) {
    std::mutex mutex;
    std::condition_variable cv;
    int done = 0;
    auto sink = std::make_unique<obs::Sink>(/*capture_events=*/round % 2 == 1);
    {
      obs::ScopedSink scoped(*sink);
      for (int t = 0; t < kTasks; ++t) {
        ThreadPool::global().submit([&] {
          std::lock_guard<std::mutex> lock(mutex);
          ++done;
          cv.notify_all();
        });
      }
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return done == kTasks; });
    }
    sink.reset();
  }
  set_parallelism(0);
}

TEST(Obs, CounterMergeAcrossThreadsIsDeterministic) {
  set_parallelism(4);
  constexpr std::size_t kIterations = 64;
  const auto run_batch = [&] {
    // Freed on return: parallel_for returns only once no helper can still
    // record into the installed sink.
    obs::Sink sink;
    {
      obs::ScopedSink scoped(sink);
      parallel_for(kIterations, [](std::size_t i) {
        obs::count(obs::Counter::ReadyPush, i + 1);
        obs::count(obs::Counter::CacheHit);
      });
    }
    return sink.report();
  };
  const obs::Report first = run_batch();
  const obs::Report second = run_batch();
  set_parallelism(0);

  // Sum over i+1 for i in [0, 64): 64*65/2, however iterations land on
  // worker threads.
  constexpr std::uint64_t kExpected = kIterations * (kIterations + 1) / 2;
  EXPECT_EQ(first.counter_value(obs::Counter::ReadyPush), kExpected);
  EXPECT_EQ(first.counter_value(obs::Counter::CacheHit), kIterations);
  EXPECT_EQ(first.counter_value(obs::Counter::ReadyPush),
            second.counter_value(obs::Counter::ReadyPush));
  EXPECT_EQ(first.counter_value(obs::Counter::CacheHit),
            second.counter_value(obs::Counter::CacheHit));
  // Counters never recorded are reported as 0, not as rows.  CacheMiss,
  // because the pool records PoolSleep itself.
  EXPECT_EQ(first.counter_value(obs::Counter::CacheMiss), 0u);
}

TEST(Obs, ChromeTraceRoundTripsThroughJsonParser) {
  obs::Sink sink(/*capture_events=*/true);
  constexpr int kSpans = 5;
  {
    obs::ScopedSink scoped(sink);
    for (int i = 0; i < kSpans; ++i) {
      obs::SpanScope span(obs::Span::Generate);
    }
    obs::SpanScope span(obs::Span::Stats);
  }

  std::ostringstream out;
  sink.write_chrome_trace(out);
  const JsonValue root = parse_json(out.str());

  ASSERT_EQ(root.type, JsonValue::Type::Object);
  const JsonValue* unit = root.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string, "ms");
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, JsonValue::Type::Array);

  int complete_events = 0;
  int metadata_events = 0;
  std::set<std::string> names;
  for (const JsonValue& event : events->array) {
    ASSERT_EQ(event.type, JsonValue::Type::Object);
    const JsonValue* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(event.find("pid"), nullptr);
    ASSERT_NE(event.find("tid"), nullptr);
    if (ph->string == "M") {
      ++metadata_events;
      EXPECT_EQ(event.find("name")->string, "thread_name");
      continue;
    }
    ASSERT_EQ(ph->string, "X");
    ++complete_events;
    const JsonValue* ts = event.find("ts");
    const JsonValue* dur = event.find("dur");
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(dur, nullptr);
    EXPECT_EQ(ts->type, JsonValue::Type::Number);
    EXPECT_EQ(dur->type, JsonValue::Type::Number);
    EXPECT_GE(ts->number, 0.0);
    EXPECT_GE(dur->number, 0.0);
    names.insert(event.find("name")->string);
  }
  EXPECT_EQ(complete_events, kSpans + 1);
  EXPECT_GE(metadata_events, 1);
  EXPECT_TRUE(names.count("generate"));
  EXPECT_TRUE(names.count("stats"));
}

TEST(Obs, DisabledSinkRecordsNothingAndAllocatesNothing) {
  ASSERT_EQ(obs::active(), nullptr);
  const std::uint64_t before = tl_alloc_count;
  for (int i = 0; i < 1000; ++i) {
    obs::SpanScope span(obs::Span::Schedule);
    obs::count(obs::Counter::BusGapProbe, 7);
  }
  EXPECT_EQ(tl_alloc_count, before)
      << "disabled-sink instrumentation must stay allocation-free";
}

TEST(Obs, ExplicitContextSinkWinsOverActive) {
  obs::Sink explicit_sink;
  obs::count_on(&explicit_sink, obs::Counter::CacheMiss, 3);
  {
    obs::SpanScope span(&explicit_sink, obs::Span::Validate);
  }
  const obs::Report report = explicit_sink.report();
  EXPECT_EQ(report.counter_value(obs::Counter::CacheMiss), 3u);
  ASSERT_EQ(report.spans.size(), 1u);
  EXPECT_EQ(report.spans[0].span, obs::Span::Validate);
  EXPECT_EQ(report.spans[0].count, 1u);
}

TEST(RunContextApi, RunOnceRecordsIntoContextSink) {
  RandomGraphConfig config;
  Pcg32 rng(12);
  const TaskGraph g = generate_random_graph(config, rng);
  const auto distributor = strategy_pure(EstimatorKind::CCNE).make(4);

  obs::Sink sink;
  RunContext context;
  context.machine.n_procs = 4;
  context.sink = &sink;
  (void)run_once(g, *distributor, context);

  const obs::Report report = sink.report();
  EXPECT_EQ(report.total_ms({}), 0.0);
  for (const obs::Span span : {obs::Span::Distribute, obs::Span::Schedule,
                               obs::Span::Validate, obs::Span::Stats}) {
    bool found = false;
    for (const obs::Report::SpanRow& row : report.spans) {
      found = found || row.span == span;
    }
    EXPECT_TRUE(found) << obs::to_string(span);
  }
  EXPECT_GT(report.counter_value(obs::Counter::ReadyPush), 0u);
  EXPECT_GT(report.counter_value(obs::Counter::BusReserve), 0u);
}

TEST(CacheKey, DescribeCellSeparatesEveryRunContextKnob) {
  const RandomGraphConfig workload = paper_workload(ExecSpreadScenario::MDET);
  const BatchConfig batch;
  const std::string label = strategy_pure(EstimatorKind::CCNE).label;

  const RunContext base;
  const std::string base_key = describe_cell(workload, label, 8, batch, base);
  ASSERT_FALSE(base_key.empty());
  EXPECT_EQ(base_key.rfind("feast-cell-v2", 0), 0u)
      << "cache key must carry the v2 format prefix: " << base_key;

  // Every knob that shapes results must produce a distinct key.  A
  // collision here means two different experiments share a cache record.
  std::set<std::string> keys;
  keys.insert(base_key);
  const auto insert_unique = [&keys](const std::string& key) {
    ASSERT_FALSE(key.empty());
    EXPECT_TRUE(keys.insert(key).second) << "cache-key collision: " << key;
  };

  RunContext variant;
  variant.scheduler.release_policy = ReleasePolicy::Eager;
  insert_unique(describe_cell(workload, label, 8, batch, variant));

  variant = RunContext{};
  variant.scheduler.selection = SelectionPolicy::Fifo;
  insert_unique(describe_cell(workload, label, 8, batch, variant));

  variant = RunContext{};
  variant.scheduler.selection = SelectionPolicy::StaticLaxity;
  insert_unique(describe_cell(workload, label, 8, batch, variant));

  variant = RunContext{};
  variant.scheduler.processor_policy = ProcessorPolicy::QueueAtEnd;
  insert_unique(describe_cell(workload, label, 8, batch, variant));

  variant = RunContext{};
  variant.core = SchedulerCore::Reference;
  insert_unique(describe_cell(workload, label, 8, batch, variant));

  variant = RunContext{};
  variant.validate = false;
  insert_unique(describe_cell(workload, label, 8, batch, variant));

  insert_unique(describe_cell(workload, label, 16, batch, base));

  BatchConfig other_batch;
  other_batch.seed = batch.seed + 1;
  insert_unique(describe_cell(workload, label, 8, other_batch, base));

  // The context sink must never leak into cache identity.
  obs::Sink sink;
  RunContext with_sink;
  with_sink.sink = &sink;
  EXPECT_EQ(describe_cell(workload, label, 8, batch, with_sink), base_key);

  // Uncacheable cells are signalled with an empty key, not a bogus one.
  EXPECT_TRUE(describe_cell(workload, "", 8, batch, base).empty());
  BatchConfig shaped = batch;
  shaped.shape_machine = [](Machine&) {};
  EXPECT_TRUE(describe_cell(workload, label, 8, shaped, base).empty());
  shaped.machine_tag = "speeds=uniform";
  EXPECT_FALSE(describe_cell(workload, label, 8, shaped, base).empty());
}

TEST(CacheKey, ExecuteCellCountsHitsAndMisses) {
  class MapCache final : public CellCache {
   public:
    bool lookup(const std::string& key, CellStats& out) override {
      const auto it = entries_.find(key);
      if (it == entries_.end()) return false;
      out = it->second;
      return true;
    }
    void store(const std::string& key, const CellStats& stats) override {
      entries_.emplace(key, stats);
    }

   private:
    std::map<std::string, CellStats> entries_;
  };

  const RandomGraphConfig workload = paper_workload(ExecSpreadScenario::MDET);
  BatchConfig batch;
  batch.samples = 3;
  const Strategy strategy = strategy_ultimate_deadline();

  MapCache cache;
  obs::Sink sink;
  RunContext context;
  context.sink = &sink;
  const ExecutedCell miss =
      execute_cell(workload, strategy, 4, batch, context, &cache);
  EXPECT_FALSE(miss.from_cache);
  EXPECT_FALSE(miss.canonical_key.empty());
  const ExecutedCell hit =
      execute_cell(workload, strategy, 4, batch, context, &cache);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_DOUBLE_EQ(hit.stats.max_lateness.mean, miss.stats.max_lateness.mean);

  const obs::Report report = sink.report();
  EXPECT_EQ(report.counter_value(obs::Counter::CacheMiss), 1u);
  EXPECT_EQ(report.counter_value(obs::Counter::CacheHit), 1u);
  EXPECT_EQ(report.counter_value(obs::Counter::CacheStore), 1u);
}

}  // namespace
}  // namespace feast
