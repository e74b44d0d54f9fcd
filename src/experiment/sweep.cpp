#include "experiment/sweep.hpp"

#include <atomic>
#include <optional>
#include <vector>

#include "util/csv.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace feast {

namespace {

std::atomic<CellCache*> g_cell_cache{nullptr};

}  // namespace

CellCache* set_cell_cache(CellCache* cache) noexcept {
  return g_cell_cache.exchange(cache, std::memory_order_acq_rel);
}

CellCache* cell_cache() noexcept {
  return g_cell_cache.load(std::memory_order_acquire);
}

std::string describe_cell(const RandomGraphConfig& workload,
                          const std::string& strategy_label, int n_procs,
                          const BatchConfig& batch, const RunContext& context) {
  if (strategy_label.empty()) return {};
  if (batch.shape_machine && batch.machine_tag.empty()) return {};

  std::string key;
  key.reserve(512);
  // v2: the scheduler policies, validation flag and scheduler core moved
  // from BatchConfig into RunContext and the core joined the key — records
  // no longer collide across policy/core variants.
  key += "feast-cell-v2";
  key += "|workload{subtasks=" + std::to_string(workload.min_subtasks) + ":" +
         std::to_string(workload.max_subtasks);
  key += ",depth=" + std::to_string(workload.min_depth) + ":" +
         std::to_string(workload.max_depth);
  key += ",degree=" + std::to_string(workload.min_degree) + ":" +
         std::to_string(workload.max_degree);
  key += ",alpha=" + format_full(workload.level_width_alpha);
  key += ",strict_fanin=" + std::to_string(workload.strict_fanin_cap ? 1 : 0);
  key += ",met=" + format_full(workload.mean_exec_time);
  key += ",spread=" + format_full(workload.exec_spread);
  key += ",olr=" + format_full(workload.olr);
  key += std::string(",olr_basis=") +
         (workload.olr_basis == OlrBasis::CriticalPath ? "critical-path"
                                                       : "total-workload");
  key += ",ccr=" + format_full(workload.ccr);
  key += ",msg_spread=" + format_full(workload.message_spread);
  key += "}|strategy=" + strategy_label;
  key += "|procs=" + std::to_string(n_procs);
  key += "|batch{samples=" + std::to_string(batch.samples);
  key += ",seed=" + std::to_string(batch.seed);
  key += ",pinned=" + format_full(batch.pinned_fraction);
  key += ",tpi=" + format_full(batch.time_per_item);
  key += std::string(",contention=") + to_string(batch.contention);
  key += "}|run{release=" + std::string(to_string(context.scheduler.release_policy));
  key += std::string(",selection=") + to_string(context.scheduler.selection);
  key += std::string(",processor=") + to_string(context.scheduler.processor_policy);
  key += std::string(",core=") + to_string(context.core);
  key += ",validate=" + std::to_string(context.validate ? 1 : 0);
  key += "}|machine=" + batch.machine_tag;
  return key;
}

ExecutedCell execute_cached_cell(const RandomGraphConfig& workload,
                                 const std::string& label, int n_procs,
                                 const BatchConfig& batch, const RunContext& context,
                                 CellCache* cache,
                                 const std::function<CellStats()>& compute) {
  obs::Sink* const sink = context.sink != nullptr ? context.sink : obs::active();

  ExecutedCell result;
  if (cache != nullptr) {
    result.canonical_key = describe_cell(workload, label, n_procs, batch, context);
    if (!result.canonical_key.empty()) {
      CellStats cached;
      const bool hit = [&] {
        obs::SpanScope span(sink, obs::Span::CacheLookup);
        return cache->lookup(result.canonical_key, cached);
      }();
      if (hit) {
        obs::count_on(sink, obs::Counter::CacheHit);
        result.stats = cached;
        result.from_cache = true;
        return result;
      }
      obs::count_on(sink, obs::Counter::CacheMiss);
    }
  }

  result.stats = compute();

  if (cache != nullptr && !result.canonical_key.empty()) {
    obs::SpanScope span(sink, obs::Span::CacheStore);
    cache->store(result.canonical_key, result.stats);
    obs::count_on(sink, obs::Counter::CacheStore);
  }
  return result;
}

ExecutedCell execute_cell(const RandomGraphConfig& workload, const Strategy& strategy,
                          int n_procs, const BatchConfig& batch,
                          const RunContext& context, CellCache* cache) {
  const GraphFactory factory = [&workload](std::size_t sample, std::uint64_t seed) {
    Pcg32 rng(seed, /*stream=*/sample);
    return generate_random_graph(workload, rng);
  };
  return execute_cached_cell(workload, strategy.label, n_procs, batch, context, cache,
                             [&] {
                               return run_custom_cell(factory, strategy, n_procs,
                                                      batch, context);
                             });
}

CellStats run_cell(const RandomGraphConfig& workload, const Strategy& strategy,
                   int n_procs, const BatchConfig& batch, const RunContext& context) {
  return execute_cell(workload, strategy, n_procs, batch, context, cell_cache()).stats;
}

Machine cell_machine(int n_procs, const BatchConfig& batch) {
  Machine machine;
  machine.n_procs = n_procs;
  machine.time_per_item = batch.time_per_item;
  machine.contention = batch.contention;
  if (batch.shape_machine) batch.shape_machine(machine);
  return machine;
}

CellStats run_custom_cell(const GraphFactory& factory, const Strategy& strategy,
                          int n_procs, const BatchConfig& batch,
                          const RunContext& context) {
  FEAST_REQUIRE(batch.samples >= 1);
  FEAST_REQUIRE(n_procs >= 1);

  obs::Sink* const sink = context.sink != nullptr ? context.sink : obs::active();
  // Install an explicitly passed sink once, here on the cell driver thread,
  // so the per-sample run_once calls below (and the scheduler internals
  // they reach) find it via active() instead of each worker touching the
  // process-wide slot concurrently.
  std::optional<obs::ScopedSink> scoped;
  if (sink != nullptr && sink != obs::active()) scoped.emplace(*sink);
  obs::SpanScope cell_span(sink, obs::Span::CellRun);

  const auto n = static_cast<std::size_t>(batch.samples);
  std::vector<RunResult> results(n);

  RunContext run_context = context;
  run_context.machine = cell_machine(n_procs, batch);

  parallel_for(n, [&](std::size_t sample) {
    // Graph seed depends only on (batch seed, sample): the same graphs are
    // replayed for every strategy and size of the surrounding sweep.
    TaskGraph graph = [&] {
      obs::SpanScope span(sink, obs::Span::Generate);
      return factory(sample, seed_for(batch.seed, {0, sample}));
    }();
    if (batch.pinned_fraction > 0.0) {
      // Pinning depends on the system size (a pin names a processor).
      Pcg32 pin_rng(seed_for(batch.seed, {1, sample, static_cast<std::uint64_t>(n_procs)}),
                    /*stream=*/sample);
      pin_random_fraction(graph, batch.pinned_fraction, n_procs, pin_rng);
    }

    const auto distributor = strategy.make(n_procs);
    results[sample] = run_once(graph, *distributor, run_context);
  });

  RunningStats max_lateness;
  RunningStats end_to_end;
  RunningStats makespan;
  RunningStats min_laxity;
  std::size_t infeasible = 0;
  for (const RunResult& r : results) {
    max_lateness.add(r.lateness.max_lateness);
    end_to_end.add(r.end_to_end);
    makespan.add(r.makespan);
    min_laxity.add(r.min_laxity);
    if (!r.lateness.feasible()) ++infeasible;
  }

  CellStats stats;
  stats.max_lateness = max_lateness.summary();
  stats.end_to_end = end_to_end.summary();
  stats.makespan = makespan.summary();
  stats.min_laxity = min_laxity.summary();
  stats.infeasible_runs = infeasible;
  return stats;
}

SweepResult sweep_strategies(const std::string& title,
                             const RandomGraphConfig& workload,
                             const std::vector<Strategy>& strategies,
                             const std::vector<int>& sizes, const BatchConfig& batch,
                             const RunContext& context) {
  FEAST_REQUIRE(!strategies.empty());
  FEAST_REQUIRE(!sizes.empty());

  // Cell by cell through run_cell (not sweep_custom) so an installed
  // CellCache serves repeated cells across runs.
  SweepResult result;
  result.title = title;
  result.sizes = sizes;
  result.series.reserve(strategies.size());
  for (const Strategy& strategy : strategies) {
    Series series;
    series.label = strategy.label;
    series.cells.reserve(sizes.size());
    for (const int n_procs : sizes) {
      series.cells.push_back(run_cell(workload, strategy, n_procs, batch, context));
    }
    result.series.push_back(std::move(series));
  }
  return result;
}

SweepResult sweep_custom(const std::string& title, const GraphFactory& factory,
                         const std::vector<Strategy>& strategies,
                         const std::vector<int>& sizes, const BatchConfig& batch,
                         const RunContext& context) {
  FEAST_REQUIRE(!strategies.empty());
  FEAST_REQUIRE(!sizes.empty());

  SweepResult result;
  result.title = title;
  result.sizes = sizes;
  result.series.reserve(strategies.size());
  for (const Strategy& strategy : strategies) {
    Series series;
    series.label = strategy.label;
    series.cells.reserve(sizes.size());
    for (const int n_procs : sizes) {
      series.cells.push_back(run_custom_cell(factory, strategy, n_procs, batch, context));
    }
    result.series.push_back(std::move(series));
  }
  return result;
}

void SweepResult::print(std::ostream& out) const {
  out << title << "\n";
  out << "mean maximum task lateness (more negative = better)\n";
  TextTable table;
  std::vector<std::string> header{"strategy \\ procs"};
  for (const int n : sizes) header.push_back(std::to_string(n));
  table.set_header(std::move(header));
  for (const Series& s : series) {
    std::vector<double> values;
    values.reserve(s.cells.size());
    for (const CellStats& c : s.cells) values.push_back(c.max_lateness.mean);
    table.add_row(s.label, values, 1);
  }
  table.render(out);
}

void SweepResult::write_csv(std::ostream& out) const {
  CsvWriter csv(out);
  csv.write_row({"title", "strategy", "procs", "mean_max_lateness", "stddev", "ci95",
                 "mean_end_to_end", "mean_makespan", "infeasible_runs"});
  for (const Series& s : series) {
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
      const CellStats& c = s.cells[i];
      csv.write_row({title, s.label, std::to_string(sizes[i]),
                     format_compact(c.max_lateness.mean, 6),
                     format_compact(c.max_lateness.stddev, 6),
                     format_compact(c.max_lateness.ci95_half_width, 6),
                     format_compact(c.end_to_end.mean, 6),
                     format_compact(c.makespan.mean, 6),
                     std::to_string(c.infeasible_runs)});
    }
  }
}

}  // namespace feast
