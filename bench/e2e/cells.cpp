/// \file cells.cpp
/// \brief cells-slicing: the paper's protocol through execute_cell.
///
/// Five slicing strategies × the paper's sizes 2–16 × 128 MDET samples,
/// one uncached execute_cell call per cell, three grid passes on seeds
/// derived from --seed.  Distribution dominates each sample here, so this
/// is the workload a faster distributor must move.
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "common.hpp"
#include "experiment/figures.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using namespace feast;

const std::vector<std::string> kStrategies = {"pure", "pure:ccaa", "norm:ccaa", "thres",
                                              "adapt"};

/// One grid pass, size-major with the strategies innermost, so every row
/// of five cells holds each strategy once; the rows come in a seeded random
/// order.  Each cell draws its own batch of graphs: distribution cost is
/// heavy-tailed in the graph, and one shared batch per pass would make a
/// run's cost hinge on a few graphs.
std::vector<CellInput> grid_pass(const Options& options, std::uint64_t root,
                                 std::uint64_t pass) {
  std::vector<int> sizes = options.smoke ? std::vector<int>{2, 8} : paper_sizes();
  Pcg32 order(seed_for(root, {pass}), /*stream=*/1);
  order.shuffle(sizes);
  std::vector<CellInput> cells;
  for (const int n_procs : sizes) {
    for (const std::string& spec : kStrategies) {
      CellInput cell;
      cell.workload = paper_workload(ExecSpreadScenario::MDET);
      cell.strategy = parse_strategy_spec(spec);
      cell.tag = strategy_tag(spec);
      cell.n_procs = n_procs;
      cell.batch.samples = options.smoke ? 4 : 128;
      cell.batch.seed = seed_for(root, {pass, cells.size()});
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

CellStats execute(const CellInput& cell) {
  return execute_cell(cell.workload, cell.strategy, cell.n_procs, cell.batch,
                      cell.context, /*cache=*/nullptr)
      .stats;
}

/// Set-up: build a pass and run one small cell per strategy, so the pool
/// threads exist and their scheduler arenas are warm before timing.  The
/// warm-up graphs are the same on every run.
double setup_once(const Options& options) {
  const double speed = machine_speed();
  const auto started = Clock::now();
  std::vector<CellInput> warm = grid_pass(options, /*root=*/0, 0);
  warm.resize(kStrategies.size());
  for (CellInput& cell : warm) {
    cell.batch.samples = 16;
    execute(cell);
  }
  return seconds_since(started) * speed;
}

Outcome untraced(const Options& options) {
  Outcome out;
  std::vector<double> setups;
  for (int i = 0; i < options.setup_runs(); ++i) setups.push_back(setup_once(options));

  const std::uint64_t passes = options.size(3, 1);
  const std::vector<CellInput> pass0 = grid_pass(options, options.seed, 0);
  std::vector<CellStats> pass0_stats;
  std::vector<double> latency_ms;
  Slices rows;

  // One slice per row of five cells (one per strategy), about 0.7 s.
  const std::size_t row = kStrategies.size();
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    const std::vector<CellInput> cells =
        pass == 0 ? pass0 : grid_pass(options, options.seed, pass);
    for (std::size_t first = 0; first < cells.size(); first += row) {
      const double speed = machine_speed();
      const double cpu_before = cpu_self_s();
      const auto row_started = Clock::now();
      double samples = 0.0;
      for (std::size_t i = first; i < first + row; ++i) {
        const auto t0 = Clock::now();
        ++out.attempted;
        CellStats stats = execute(cells[i]);
        latency_ms.push_back(seconds_since(t0) * 1e3 * speed);
        samples += cells[i].batch.samples;
        if (pass == 0) pass0_stats.push_back(stats);
      }
      rows.add(samples, seconds_since(row_started), cpu_self_s() - cpu_before, speed);
    }
  }

  // Correctness: the first cell of every strategy, re-run one public call
  // at a time, must equal what execute_cell returned.
  for (std::size_t i = 0; i < row; ++i) {
    ++out.attempted;
    if (!same_bits(run_cell_decomposed(pass0[i], nullptr, i + 1), pass0_stats[i])) {
      out.fail(std::string("cells-slicing: decomposed pipeline differs from "
                           "execute_cell (") +
               pass0[i].tag + ")");
    }
  }

  rows.report(out);
  out.set("latency_p50_ms", quantile_of(latency_ms, 0.50));
  out.set("latency_tail_ms", quantile_of(latency_ms, 0.90));
  out.set("peak_rss_mb", peak_rss_mb());
  out.set("setup_s", quantile_of(setups, 0.5));
  out.notes.push_back("work = sample runs, over " + std::to_string(rows.count) +
                      " rows of 5 cells; latency = per execute_cell call, "
                      "tail = p90 of " +
                      std::to_string(latency_ms.size()) + " cells over " +
                      std::to_string(passes) + " grid pass(es)");
  return out;
}

Outcome traced(const Options& options) {
  Outcome out;
  const std::vector<CellInput> cells = grid_pass(options, options.seed, 0);
  Tracer tracer;
  out.set("campaign.busy_threads", replay_cells(cells, tracer, out));
  out.notes.push_back("pass 0: " + std::to_string(cells.size()) + " cells");
  maybe_write_trace(options, tracer);
  return out;
}

}  // namespace

Outcome run_cells_slicing(const Options& options) {
  return options.trace ? traced(options) : untraced(options);
}

}  // namespace e2e
