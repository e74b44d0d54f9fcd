/// \file sweep.hpp
/// \brief Batched experiment cells and strategy-by-size sweeps.
///
/// Reproduces the paper's measurement protocol: every data point is the
/// mean over a batch of randomly generated task graphs (128 in the paper)
/// of the maximum task lateness.  The *same* batch of graphs — derived
/// deterministically from the batch seed and sample index, never from the
/// strategy or system size — is reused across all strategies and sizes of
/// a sweep, exactly like evaluating one generated task set everywhere.
///
/// Run-level knobs (scheduler policies, core, validation, observability
/// sink) travel in a RunContext (experiment/runner.hpp); BatchConfig only
/// describes the batch itself.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/strategy.hpp"
#include "taskgraph/generator.hpp"
#include "util/stats.hpp"

namespace feast {

/// Batch-level knobs shared by all cells of a sweep.
struct BatchConfig {
  int samples = 128;                  ///< Graphs per data point.
  std::uint64_t seed = 0xFEA57u;      ///< Root seed of the batch.
  double pinned_fraction = 0.0;       ///< Strict-locality subset (0 = fully relaxed).
  double time_per_item = 1.0;         ///< Bus cost per data item.
  CommContention contention = CommContention::ContentionFree;
  /// Optional hook applied to the machine of every cell after n_procs,
  /// time_per_item and contention are set — e.g. to install heterogeneous
  /// processor speeds.
  std::function<void(Machine&)> shape_machine;
  /// Canonical description of what shape_machine does, e.g.
  /// "speeds=geometric:0.5".  Required for a cell with a shape_machine hook
  /// to be cacheable: the hook itself cannot be hashed, so an empty tag
  /// marks such cells uncacheable.
  std::string machine_tag;
};

/// The machine of every cell kind on the (n_procs, batch) axes; never
/// RunContext::machine, which describes bare run_once calls.
Machine cell_machine(int n_procs, const BatchConfig& batch);

/// Aggregates of one (workload, strategy, system size) cell.
struct CellStats {
  StatSummary max_lateness;  ///< The figures' y-axis (mean of per-run maxima).
  StatSummary end_to_end;
  StatSummary makespan;
  StatSummary min_laxity;
  std::size_t infeasible_runs = 0;  ///< Runs where some subtask missed its window.
};

/// Cross-run cell memoization point.  Cell execution consults the installed
/// cache before evaluating a batch and stores the aggregate afterwards,
/// keyed by a canonical description of everything the result depends on
/// (see describe_cell).  The content-addressed file cache of src/campaign
/// implements this interface; sweeps over caller-supplied GraphFactory
/// closures are never cached (their graphs are not describable).
class CellCache {
 public:
  virtual ~CellCache() = default;

  /// True and fills \p out when \p canonical_key has a stored result.
  virtual bool lookup(const std::string& canonical_key, CellStats& out) = 0;

  /// Stores the result of \p canonical_key.
  virtual void store(const std::string& canonical_key, const CellStats& stats) = 0;
};

/// Installs the process-wide cell cache consulted by run_cell (borrowed
/// pointer; nullptr disables caching).  Returns the previous cache.
CellCache* set_cell_cache(CellCache* cache) noexcept;

/// Currently installed cell cache (nullptr when caching is off).
CellCache* cell_cache() noexcept;

/// Canonical, versioned description of one cell: every BatchConfig field,
/// the workload parameters, the strategy label, the system size, and the
/// run-context knobs that shape results (scheduler policies, core,
/// validation), with doubles printed at full precision.  This string *is*
/// the cache identity — its FNV-1a hash names the cache file.  Returns ""
/// (uncacheable) when the strategy label is empty or the batch carries a
/// shape_machine hook without a machine_tag describing it.
std::string describe_cell(const RandomGraphConfig& workload,
                          const std::string& strategy_label, int n_procs,
                          const BatchConfig& batch, const RunContext& context = {});

/// Produces the sample'th graph of a batch; must be deterministic in
/// (sample, the provided seed).  Allows sweeps over workloads the standard
/// random generator cannot express (structured shapes, loaded files).
using GraphFactory = std::function<TaskGraph(std::size_t sample, std::uint64_t seed)>;

/// What execute_cell did for one cell.
struct ExecutedCell {
  CellStats stats;
  bool from_cache = false;
  std::string canonical_key;  ///< "" when the cell is uncacheable.
};

/// The cache consult every cell executor shares: keys the cell by
/// describe_cell under \p label, answers from \p cache (may be nullptr) on a
/// hit, and otherwise runs \p compute and stores its result.  Records the
/// cache/lookup and cache/store spans and the hit/miss/store counters.
ExecutedCell execute_cached_cell(const RandomGraphConfig& workload,
                                 const std::string& label, int n_procs,
                                 const BatchConfig& batch, const RunContext& context,
                                 CellCache* cache,
                                 const std::function<CellStats()>& compute);

/// The single cell-execution entry point: consults \p cache (may be
/// nullptr), evaluates the batch on a miss, and stores the fresh result.
/// run_cell layers the process-wide cell_cache() on top; the campaign
/// runner passes its own ResultCache.  context.machine is ignored — the
/// cell's machine derives from (n_procs, batch), which is what the cache
/// key describes.
ExecutedCell execute_cell(const RandomGraphConfig& workload, const Strategy& strategy,
                          int n_procs, const BatchConfig& batch,
                          const RunContext& context, CellCache* cache);

/// Evaluates one cell: \p batch.samples random graphs from \p workload,
/// distributed by \p strategy, scheduled on \p n_procs processors.
/// Samples run in parallel; the result is deterministic in the seed.
/// Consults the process-wide cell_cache().
CellStats run_cell(const RandomGraphConfig& workload, const Strategy& strategy,
                   int n_procs, const BatchConfig& batch,
                   const RunContext& context = {});

/// As run_cell, but with caller-supplied graphs (never cached).
CellStats run_custom_cell(const GraphFactory& factory, const Strategy& strategy,
                          int n_procs, const BatchConfig& batch,
                          const RunContext& context = {});

/// One strategy's series across the size axis.
struct Series {
  std::string label;
  std::vector<CellStats> cells;  ///< Aligned with SweepResult::sizes.
};

/// A full sweep: strategies × system sizes on one workload.
struct SweepResult {
  std::string title;
  std::vector<int> sizes;
  std::vector<Series> series;

  /// Mean max-lateness of series \p s at size index \p i.
  double value(std::size_t s, std::size_t i) const {
    return series.at(s).cells.at(i).max_lateness.mean;
  }

  /// Paper-style table: one row per strategy, one column per size.
  void print(std::ostream& out) const;

  /// Long-format CSV: strategy,procs,mean_max_lateness,stddev,ci95,
  /// mean_end_to_end,infeasible_runs.
  void write_csv(std::ostream& out) const;
};

/// Runs a sweep, reusing the same graph batch for every cell.
SweepResult sweep_strategies(const std::string& title,
                             const RandomGraphConfig& workload,
                             const std::vector<Strategy>& strategies,
                             const std::vector<int>& sizes, const BatchConfig& batch,
                             const RunContext& context = {});

/// As sweep_strategies, but with caller-supplied graphs.
SweepResult sweep_custom(const std::string& title, const GraphFactory& factory,
                         const std::vector<Strategy>& strategies,
                         const std::vector<int>& sizes, const BatchConfig& batch,
                         const RunContext& context = {});

}  // namespace feast
