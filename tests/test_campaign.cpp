/// \file test_campaign.cpp
/// \brief Tests for the campaign subsystem: the thread pool, the
///        content-addressed result cache, spec/manifest round-trips, and
///        campaign resume after a simulated interruption.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "experiment/sweep.hpp"
#include "util/parallel.hpp"

namespace feast {
namespace {

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("feast-test-" + tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.name = "tiny";
  spec.batch.samples = 6;
  spec.batch.seed = 99;
  spec.workload.min_subtasks = 15;
  spec.workload.max_subtasks = 25;
  spec.workload.min_depth = 4;
  spec.workload.max_depth = 6;
  spec.strategies = {"pure:ccne", "ud"};
  spec.sizes = {2, 4};
  return spec;
}

// --------------------------------------------------------------------- pool

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&count] { count.fetch_add(1); });
  // async round-trips a value and flushes behind the submits.
  EXPECT_EQ(pool.async([] { return 42; }).get(), 42);
  while (count.load() < 100) std::this_thread::yield();
  EXPECT_EQ(count.load(), 100);
}

/// Threads of this process, counted from /proc/self/task.
std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(ThreadPool, GlobalPoolStartsOnlyTheWorkersAskedFor) {
  if (std::thread::hardware_concurrency() < 2) GTEST_SKIP() << "needs 2+ hw threads";
  if (!std::filesystem::exists("/proc/self/task")) GTEST_SKIP() << "needs /proc";
  // Re-executes the binary for this test alone, so the global pool is fresh:
  // asking its size starts nothing, and a resize starts exactly what it asks.
  // A thread started and joined first lets a sanitizer runtime start its
  // own helper thread (TSan does) before the baseline is counted.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        std::thread([] {}).join();
        const std::size_t baseline = thread_count();
        (void)parallelism();
        std::fprintf(stderr, "parallelism() started %zu\n", thread_count() - baseline);
        set_parallelism(2);
        std::fprintf(stderr, "set_parallelism(2) started %zu\n",
                     thread_count() - baseline);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0),
      "parallelism\\(\\) started 0\nset_parallelism\\(2\\) started 2\n");
}

TEST(ThreadPool, AsyncCapturesExceptions) {
  ThreadPool pool(2);
  auto future = pool.async([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ResizePreservesService) {
  ThreadPool pool(2);
  pool.resize(5);
  EXPECT_EQ(pool.worker_count(), 5u);
  pool.resize(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  EXPECT_EQ(pool.async([] { return 7; }).get(), 7);
}

TEST(ThreadPool, SingleSubmitAlwaysWakesAnIdleWorker) {
  // Regression: submit used to bump `pending` and notify without holding the
  // sleep mutex, so a notification could land between a worker's predicate
  // check and its block — the task then sat queued against a sleeping pool
  // and this .get() would hang.  One worker, one task at a time, many
  // rounds: each round finds the worker idle and going to sleep.
  ThreadPool pool(1);
  for (int round = 0; round < 2000; ++round) {
    ASSERT_EQ(pool.async([round] { return round; }).get(), round);
  }
}

TEST(ThreadPool, StartsTasksInSubmissionOrder) {
  // One worker, held by a gate task while the test thread queues the rest:
  // the queue is FIFO, so they start in submission order.
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  pool.submit([opened] { opened.wait(); });
  constexpr int kTasks = 16;
  std::vector<int> order;  // Written by the one worker only.
  std::vector<std::future<void>> done;
  for (int i = 0; i < kTasks; ++i) {
    done.push_back(pool.async([&order, i] { order.push_back(i); }));
  }
  gate.set_value();
  for (std::future<void>& f : done) f.get();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, ResizeRacingExternalSubmitsIsSafe) {
  // Regression: resize used to reshape a per-worker queue vector that
  // external submitters indexed concurrently.  This must neither crash nor
  // lose tasks (queued work survives a resize by design).
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&pool, &count] {
      for (int i = 0; i < 300; ++i) pool.submit([&count] { count.fetch_add(1); });
    });
  }
  std::thread resizer([&pool, &stop] {
    unsigned width = 1;
    while (!stop.load()) pool.resize(1 + (width++ % 4));
  });
  for (std::thread& t : submitters) t.join();
  stop.store(true);
  resizer.join();
  while (count.load() < 900) std::this_thread::yield();
  EXPECT_EQ(count.load(), 900);
}

TEST(ThreadPool, CellResultsIdenticalAcrossParallelism) {
  // The experiment batches must be bit-identical no matter how many workers
  // serve parallel_for: every sample derives its RNG from (seed, sample) and
  // writes only its own slot.
  const CampaignSpec spec = tiny_spec();
  const Strategy strategy = parse_strategy_spec("adapt:1.25");
  const CellStats reference = [&] {
    set_parallelism(1);
    return run_cell(spec.workload, strategy, 4, spec.batch);
  }();
  for (unsigned threads = 2; threads <= 8; ++threads) {
    set_parallelism(threads);
    const CellStats stats = run_cell(spec.workload, strategy, 4, spec.batch);
    EXPECT_EQ(stats.max_lateness.mean, reference.max_lateness.mean) << threads;
    EXPECT_EQ(stats.max_lateness.stddev, reference.max_lateness.stddev) << threads;
    EXPECT_EQ(stats.end_to_end.mean, reference.end_to_end.mean) << threads;
    EXPECT_EQ(stats.makespan.mean, reference.makespan.mean) << threads;
    EXPECT_EQ(stats.min_laxity.mean, reference.min_laxity.mean) << threads;
    EXPECT_EQ(stats.infeasible_runs, reference.infeasible_runs) << threads;
  }
  set_parallelism(0);
}

// -------------------------------------------------------------------- cache

TEST(ResultCache, RecordRoundTrips) {
  CellStats stats;
  stats.max_lateness = {4, -12.34567890123456789, 1.5, -20.0, -3.0, 0.75};
  stats.end_to_end = {4, 100.25, 2.0, 90.0, 110.0, 1.0};
  stats.makespan = {4, 88.5, 0.5, 88.0, 89.0, 0.25};
  stats.min_laxity = {4, 3.25, 0.125, 3.0, 3.5, 0.0625};
  stats.infeasible_runs = 2;

  std::stringstream buffer;
  write_cell_record(buffer, "some-key", stats);
  CellStats loaded;
  const auto key = read_cell_record(buffer, loaded);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, "some-key");
  EXPECT_EQ(loaded.max_lateness.mean, stats.max_lateness.mean);
  EXPECT_EQ(loaded.max_lateness.ci95_half_width, stats.max_lateness.ci95_half_width);
  EXPECT_EQ(loaded.end_to_end.max, stats.end_to_end.max);
  EXPECT_EQ(loaded.makespan.count, stats.makespan.count);
  EXPECT_EQ(loaded.min_laxity.stddev, stats.min_laxity.stddev);
  EXPECT_EQ(loaded.infeasible_runs, stats.infeasible_runs);
}

TEST(ResultCache, NonFiniteStatsRoundTrip) {
  // Regression: istream >> double rejects the `nan`/`inf` tokens %.17g
  // writes, so a record holding a non-finite stat was a permanent miss.
  const double inf = std::numeric_limits<double>::infinity();
  CellStats stats;
  stats.max_lateness = {3, std::nan(""), 0.0, -inf, inf, std::nan("")};
  stats.min_laxity = {3, -inf, 0.0, -inf, -inf, 0.0};

  std::stringstream buffer;
  write_cell_record(buffer, "odd-key", stats);
  CellStats loaded;
  const auto key = read_cell_record(buffer, loaded);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, "odd-key");
  EXPECT_TRUE(std::isnan(loaded.max_lateness.mean));
  EXPECT_EQ(loaded.max_lateness.min, -inf);
  EXPECT_EQ(loaded.max_lateness.max, inf);
  EXPECT_TRUE(std::isnan(loaded.max_lateness.ci95_half_width));
  EXPECT_EQ(loaded.min_laxity.mean, -inf);
}

TEST(ResultCache, MissThenHitThenInvalidation) {
  const ScratchDir dir("cache");
  ResultCache cache(dir.path());
  const CampaignSpec spec = tiny_spec();
  const std::string key = describe_cell(spec.workload, "PURE+CCNE", 4, spec.batch);
  ASSERT_FALSE(key.empty());

  CellStats out;
  EXPECT_FALSE(cache.lookup(key, out));  // Cold: miss.
  CellStats stats;
  stats.max_lateness.mean = -42.0;
  stats.infeasible_runs = 1;
  cache.store(key, stats);
  EXPECT_TRUE(cache.lookup(key, out));  // Warm: hit.
  EXPECT_EQ(out.max_lateness.mean, -42.0);
  EXPECT_EQ(out.infeasible_runs, 1u);

  // Any config change yields a different key, so the old record is invisible.
  BatchConfig changed = spec.batch;
  changed.seed += 1;
  const std::string other = describe_cell(spec.workload, "PURE+CCNE", 4, changed);
  EXPECT_NE(other, key);
  EXPECT_FALSE(cache.lookup(other, out));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.stores(), 1u);
}

TEST(ResultCache, KeyMismatchInFileIsAMiss) {
  const ScratchDir dir("collide");
  ResultCache cache(dir.path());
  CellStats stats;
  cache.store("key-a", stats);
  // Simulate a hash collision: the file for "key-a" is what a lookup of a
  // colliding key would open; the stored key check must reject it.
  const std::string file = hash_hex(fnv1a64("key-a")) + ".cell";
  std::ifstream in(dir.path() / file);
  ASSERT_TRUE(in.good());
  CellStats loaded;
  const auto key = read_cell_record(in, loaded);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, "key-a");  // Lookup compares this against the asked-for key.
}

TEST(ResultCache, DescribeCellRefusesUnhashableConfigs) {
  const CampaignSpec spec = tiny_spec();
  BatchConfig shaped = spec.batch;
  shaped.shape_machine = [](Machine&) {};
  // A machine hook without a tag has no stable identity: never cache it.
  EXPECT_TRUE(describe_cell(spec.workload, "PURE+CCNE", 4, shaped).empty());
  shaped.machine_tag = "2x-fast-links";
  EXPECT_FALSE(describe_cell(spec.workload, "PURE+CCNE", 4, shaped).empty());
  // No label, no key.
  EXPECT_TRUE(describe_cell(spec.workload, "", 4, spec.batch).empty());
}

// ------------------------------------------------------------- spec parsing

TEST(CampaignSpec, ParsesAndRoundTrips) {
  std::istringstream in(
      "# demo\n"
      "name = roundtrip\n"
      "samples = 12\n"
      "seed = 7\n"
      "scenario = HDET\n"
      "strategies = pure:ccne, norm:ccaa, thres:1:1.5, adapt, ud, ed, prop\n"
      "sizes = 2, 4, 8\n");
  const CampaignSpec spec = CampaignSpec::parse(in);
  EXPECT_EQ(spec.name, "roundtrip");
  EXPECT_EQ(spec.batch.samples, 12);
  EXPECT_EQ(spec.cell_count(), 21u);
  EXPECT_DOUBLE_EQ(spec.workload.exec_spread, exec_spread_of(ExecSpreadScenario::HDET));

  // canonical_text() -> parse() -> canonical_text() is a fixed point.
  const std::string canonical = spec.canonical_text();
  std::istringstream again(canonical);
  EXPECT_EQ(CampaignSpec::parse(again).canonical_text(), canonical);
}

TEST(CampaignSpec, RejectsMalformedInput) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return CampaignSpec::parse(in);
  };
  EXPECT_THROW(parse("strategies = pure\n"), std::invalid_argument);  // No sizes.
  EXPECT_THROW(parse("sizes = 2\n"), std::invalid_argument);          // No strategies.
  EXPECT_THROW(parse("bogus_key = 1\nstrategies = pure\nsizes = 2\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("strategies = warp9\nsizes = 2\n"), std::invalid_argument);
  EXPECT_THROW(parse("samples = none\nstrategies = pure\nsizes = 2\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("not a key value line\n"), std::invalid_argument);
}

TEST(CampaignSpec, BackendKeyAcceptsOnlyAutoAsANoOp) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return CampaignSpec::parse(in);
  };
  const std::string body = "samples = 4\nstrategies = pure\nsizes = 2\n";
  for (const std::string forced : {"scalar", "avx2", "sse9"}) {
    try {
      (void)parse("backend = " + forced + "\n" + body);
      ADD_FAILURE() << "backend = " << forced << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("removed"), std::string::npos)
          << error.what();
    }
  }
  // `auto` keeps old spec files working: same canonical text, so the same
  // manifest spec hash, as a spec that never mentioned the key.
  const std::string with_auto = parse("backend = auto\n" + body).canonical_text();
  const std::string without = parse(body).canonical_text();
  EXPECT_EQ(with_auto, without);
  EXPECT_EQ(hash_hex(fnv1a64(with_auto)), hash_hex(fnv1a64(without)));
}

TEST(ParseStrategySpec, CanonicalLabels) {
  EXPECT_EQ(parse_strategy_spec("pure").label, "PURE+CCNE");
  EXPECT_EQ(parse_strategy_spec("pure:ccaa").label, "PURE+CCAA");
  EXPECT_EQ(parse_strategy_spec("norm").label, "NORM+CCNE");
  EXPECT_EQ(parse_strategy_spec("thres").label, parse_strategy_spec("thres:1:1.25").label);
  EXPECT_EQ(parse_strategy_spec("adapt:1.25").label, parse_strategy_spec("adapt").label);
  EXPECT_EQ(parse_strategy_spec("ud").label, "UD");
  EXPECT_EQ(parse_strategy_spec("ed").label, "ED");
  EXPECT_EQ(parse_strategy_spec("prop").label, "PROP");
  EXPECT_THROW(parse_strategy_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_strategy_spec("pure:fast"), std::invalid_argument);
  EXPECT_THROW(parse_strategy_spec("ud:1"), std::invalid_argument);
  EXPECT_THROW(parse_strategy_spec("adapt:x"), std::invalid_argument);
}

// ----------------------------------------------------------------- campaign

TEST(Campaign, RunsAllCellsAndCachesRerun) {
  const ScratchDir dir("campaign");
  const CampaignSpec spec = tiny_spec();
  ResultCache cache(dir.path() / "cache");
  CampaignOptions options;
  options.cache = &cache;
  options.manifest_path = (dir.path() / "m.json").string();

  const CampaignResult first = run_campaign(spec, options);
  EXPECT_TRUE(first.ok());
  EXPECT_EQ(first.cells.size(), 4u);
  EXPECT_EQ(first.computed, 4u);
  EXPECT_EQ(first.cached, 0u);
  for (const CellOutcome& cell : first.cells) {
    EXPECT_EQ(cell.state, CellState::Computed);
    EXPECT_FALSE(cell.key_hex.empty());
    EXPECT_GT(cell.stats.max_lateness.count, 0u);
  }

  // Identical campaign again: every cell must come from the cache.
  const CampaignResult second = run_campaign(spec, options);
  EXPECT_EQ(second.computed, 0u);
  EXPECT_EQ(second.cached, 4u);
  for (std::size_t i = 0; i < second.cells.size(); ++i) {
    EXPECT_EQ(second.cells[i].state, CellState::Cached);
    EXPECT_EQ(second.cells[i].stats.max_lateness.mean,
              first.cells[i].stats.max_lateness.mean);
  }
}

TEST(Campaign, ManifestRoundTrips) {
  const ScratchDir dir("manifest");
  const CampaignSpec spec = tiny_spec();
  CampaignOptions options;
  options.manifest_path = (dir.path() / "m.json").string();
  const CampaignResult result = run_campaign(spec, options);

  const Manifest manifest = read_manifest_file(options.manifest_path);
  // v2 added the quarantined total and per-cell attempts/error_kind.
  EXPECT_EQ(manifest.version, 2);
  EXPECT_EQ(manifest.name, spec.name);
  EXPECT_EQ(manifest.spec_hash_hex, result.spec_hash_hex);
  EXPECT_EQ(manifest.samples, spec.batch.samples);
  EXPECT_EQ(manifest.computed, result.computed);
  ASSERT_EQ(manifest.cells.size(), result.cells.size());
  for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
    EXPECT_EQ(manifest.cells[i].strategy_label, result.cells[i].strategy_label);
    EXPECT_EQ(manifest.cells[i].n_procs, result.cells[i].n_procs);
    EXPECT_EQ(manifest.cells[i].state, result.cells[i].state);
    EXPECT_EQ(manifest.cells[i].stats.max_lateness.mean,
              result.cells[i].stats.max_lateness.mean);
    EXPECT_EQ(manifest.cells[i].stats.infeasible_runs,
              result.cells[i].stats.infeasible_runs);
  }
  // The embedded canonical spec re-parses to the same campaign.
  std::istringstream embedded(manifest.spec_text);
  EXPECT_EQ(CampaignSpec::parse(embedded).canonical_text(), spec.canonical_text());

  std::ostringstream status;
  print_manifest_status(status, manifest);
  EXPECT_NE(status.str().find("tiny"), std::string::npos);
  EXPECT_NE(status.str().find("PURE+CCNE"), std::string::npos);
}

TEST(Campaign, ManifestRoundTripsNonFiniteStats) {
  // Regression: the manifest wrote NaN/Inf as bare `nan`/`inf` (invalid
  // JSON), so `campaign status` threw and resume silently discarded the
  // whole manifest.  They are now encoded as quoted strings and decoded on
  // read.
  const double inf = std::numeric_limits<double>::infinity();
  const CampaignSpec spec = tiny_spec();
  CampaignResult result;
  result.name = spec.name;
  result.spec_hash_hex = hash_hex(fnv1a64(spec.canonical_text()));
  result.samples = spec.batch.samples;
  CellOutcome cell;
  cell.strategy_spec = "ud";
  cell.strategy_label = "UD";
  cell.n_procs = 2;
  cell.state = CellState::Computed;
  cell.stats.max_lateness = {3, std::nan(""), 0.0, -inf, inf, std::nan("")};
  cell.stats.min_laxity = {3, -inf, 0.0, -inf, -inf, 0.0};
  result.cells.push_back(cell);
  result.computed = 1;

  std::stringstream buffer;
  write_manifest(buffer, spec, result);
  const Manifest manifest = read_manifest(buffer);
  ASSERT_EQ(manifest.cells.size(), 1u);
  const StatSummary& lateness = manifest.cells[0].stats.max_lateness;
  EXPECT_TRUE(std::isnan(lateness.mean));
  EXPECT_EQ(lateness.min, -inf);
  EXPECT_EQ(lateness.max, inf);
  EXPECT_TRUE(std::isnan(lateness.ci95_half_width));
  EXPECT_EQ(manifest.cells[0].stats.min_laxity.mean, -inf);

  std::ostringstream status;  // Must render, not throw.
  print_manifest_status(status, manifest);
  EXPECT_NE(status.str().find("UD"), std::string::npos);
}

TEST(Campaign, ThreadsOptionResizesTheGlobalPool) {
  // Regression: --threads only set the lazy parallel_for width, but cells
  // are submitted straight to the global pool, which stayed at hardware
  // concurrency.
  CampaignSpec spec = tiny_spec();
  spec.strategies = {"ud"};
  spec.sizes = {2};
  CampaignOptions options;
  options.threads = 2;
  (void)run_campaign(spec, options);
  EXPECT_EQ(ThreadPool::global().worker_count(), 2u);
  set_parallelism(0);
  ThreadPool::global().resize(0);
}

TEST(Campaign, ResumesAfterInterruption) {
  const ScratchDir dir("resume");
  const CampaignSpec spec = tiny_spec();
  CampaignOptions options;
  options.manifest_path = (dir.path() / "m.json").string();

  // Full run for reference stats (no cache anywhere in this test: resume
  // must work from the manifest alone).
  const CampaignResult reference = run_campaign(spec, options);
  ASSERT_EQ(reference.computed, 4u);

  // Simulate a run killed halfway: a manifest in which only the first two
  // cells finished — exactly what the per-cell checkpointing leaves behind.
  CampaignResult partial = reference;
  for (std::size_t i = 2; i < partial.cells.size(); ++i) {
    partial.cells[i].state = CellState::Pending;
    partial.cells[i].stats = CellStats{};
  }
  {
    std::ofstream out(options.manifest_path);
    write_manifest(out, spec, partial);
  }

  options.resume = true;
  const CampaignResult resumed = run_campaign(spec, options);
  EXPECT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.cached, 2u);    // Restored from the manifest.
  EXPECT_EQ(resumed.computed, 2u);  // Recomputed.
  for (std::size_t i = 0; i < resumed.cells.size(); ++i) {
    EXPECT_EQ(resumed.cells[i].state,
              i < 2 ? CellState::Cached : CellState::Computed);
    EXPECT_EQ(resumed.cells[i].stats.max_lateness.mean,
              reference.cells[i].stats.max_lateness.mean);
  }

  // A manifest from a different spec must not satisfy a resume.
  CampaignSpec other = spec;
  other.batch.seed += 1;
  const CampaignResult fresh = run_campaign(other, options);
  EXPECT_EQ(fresh.cached, 0u);
  EXPECT_EQ(fresh.computed, 4u);
}

TEST(Campaign, RecordsFailedCellsWithoutAborting) {
  CampaignSpec spec = tiny_spec();
  // An empty subtask range makes the generator reject the config for every
  // sample; the cell must fail, the campaign must not throw.
  spec.workload.min_subtasks = 0;
  spec.workload.max_subtasks = 0;
  const CampaignResult result = run_campaign(spec);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.failed, result.cells.size());
  for (const CellOutcome& cell : result.cells) {
    EXPECT_EQ(cell.state, CellState::Failed);
    EXPECT_FALSE(cell.error.empty());
  }
}

}  // namespace
}  // namespace feast
