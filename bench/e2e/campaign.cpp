/// \file campaign.cpp
/// \brief campaign-isolated: supervised campaigns, cold then warm.
///
/// Each cycle runs a 96-cell grid (8 strategies including the ud/ed/prop
/// baselines × 12 sizes up to 32, 8 samples per cell) through
/// supervise::run_supervised_campaign with 3 worker subprocesses, as four
/// 24-cell campaigns; a run is eight cycles on fresh seeds.  Each campaign
/// runs twice: a cold pass that computes and stores every cell, then a warm
/// pass of the same spec that reads every cell back from the cache.  The
/// two passes are the write path and the read path of the same layers; the
/// warm pass is almost all supervision overhead.
#include <filesystem>
#include <fstream>
#include <streambuf>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "common.hpp"
#include "supervise/subprocess.hpp"
#include "supervise/supervisor.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using namespace feast;
namespace fs = std::filesystem;

constexpr int kWorkers = 3;

/// Campaigns per cycle.  Every cell of a campaign evaluates the same sample
/// graphs, so one 96-cell campaign would draw 8 graphs per cycle and a run's
/// cost would hinge on a few dozen heavy-tailed graphs; four campaigns on
/// distinct seeds draw 32.
constexpr std::size_t kParts = 4;

const std::vector<std::string> kStrategies = {"pure",  "pure:ccaa", "norm:ccaa", "thres",
                                              "adapt", "ud",        "ed",        "prop"};
const std::vector<int> kSizes = {2, 3, 4, 6, 8, 10, 12, 14, 16, 20, 24, 32};

/// Campaign \p part of cycle \p cycle: every strategy × every fourth size
/// (2, 8, 16 for part 0), so each part spans small to large machines.
CampaignSpec part_spec(const Options& options, std::uint64_t cycle, std::size_t part) {
  CampaignSpec spec;
  spec.name = "e2e-cycle-" + std::to_string(cycle) + "-" + std::to_string(part);
  spec.batch.samples = options.smoke ? 2 : 8;
  spec.batch.seed = seed_for(options.seed, {1, cycle, part});
  spec.strategies = options.smoke ? std::vector<std::string>{"pure", "ud"} : kStrategies;
  const std::vector<int> sizes = options.smoke ? std::vector<int>{2, 4, 6, 8} : kSizes;
  for (std::size_t i = part; i < sizes.size(); i += kParts) {
    spec.sizes.push_back(sizes[i]);
  }
  return spec;
}

std::string write_spec(const fs::path& path, const CampaignSpec& spec) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << spec.canonical_text();
  return path.string();
}

/// Timestamps every line the supervisor's progress stream writes: one
/// line per settled cell.
class LineClock : public std::streambuf {
 public:
  std::vector<Clock::time_point> lines;

 protected:
  int overflow(int c) override {
    if (c == '\n') lines.push_back(Clock::now());
    return c == traits_type::eof() ? traits_type::not_eof(c) : c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) overflow(s[i]);
    return n;
  }
};

struct Pass {
  CampaignResult result;
  std::string manifest;
  double wall_s = 0.0;
  double cpu_s = 0.0;              ///< This process and its reaped workers.
  double speed = 1.0;              ///< machine_speed() just before the pass.
  std::vector<double> settled_ms;  ///< Per cell: pass start -> checkpointed.
};

Pass run_pass(const Options& options, const CampaignSpec& spec,
              const std::string& spec_path, const fs::path& cache_dir,
              const std::string& manifest) {
  ResultCache cache(cache_dir);
  supervise::SupervisorOptions sup;
  sup.workers = kWorkers;
  sup.spec_path = spec_path;
  sup.cache_dir = cache_dir.string();
  sup.feastc_path = options.feastc;
  LineClock clock;
  std::ostream progress(&clock);
  CampaignOptions campaign;
  campaign.manifest_path = manifest;
  campaign.cache = &cache;
  campaign.progress = &progress;

  Pass pass;
  pass.manifest = manifest;
  pass.speed = machine_speed();
  const double cpu_before = cpu_self_s() + cpu_children_s();
  const auto started = Clock::now();
  pass.result = supervise::run_supervised_campaign(spec, campaign, sup);
  pass.wall_s = seconds_since(started);
  pass.cpu_s = cpu_self_s() + cpu_children_s() - cpu_before;
  for (const Clock::time_point t : clock.lines) {
    pass.settled_ms.push_back(seconds_between(started, t) * 1e3);
  }
  return pass;
}

std::string fingerprint(const std::string& manifest) {
  return manifest_fingerprint(read_manifest_file(manifest));
}

/// One campaign of a cycle and its two passes.
struct Part {
  CampaignSpec spec;
  std::string spec_path;
  Pass cold;
  Pass warm;
};

/// Cycle \p index: the cold passes of all parts, then their warm passes.
std::vector<Part> run_cycle(const Options& options, std::uint64_t index) {
  const fs::path dir = options.work_dir;
  std::vector<Part> parts(kParts);
  for (std::size_t k = 0; k < kParts; ++k) {
    parts[k].spec = part_spec(options, index, k);
    parts[k].spec_path = write_spec(dir / (parts[k].spec.name + ".spec"), parts[k].spec);
  }
  for (const bool warm : {false, true}) {
    for (Part& p : parts) {
      (warm ? p.warm : p.cold) =
          run_pass(options, p.spec, p.spec_path, dir / "cache",
                   (dir / (p.spec.name + (warm ? ".warm.json" : ".cold.json"))).string());
    }
  }
  return parts;
}

/// Cold and warm manifests must fingerprint identically, every cell of the
/// cold pass must be computed and every cell of the warm pass a cache read;
/// \p in_process additionally compares an in-process run_campaign.
void check_part(const Options& options, const Part& p, bool in_process, Outcome& out) {
  const std::size_t cells = p.spec.cell_count();
  out.attempted += 2 * cells;
  for (const Pass* pass : {&p.cold, &p.warm}) {
    const std::size_t bad = pass->result.failed + pass->result.quarantined;
    out.failed += bad;
    if (bad != 0 || pass->result.interrupted) {
      out.problems.push_back("campaign-isolated: " + std::to_string(bad) +
                             " cells failed in " + pass->manifest);
    }
  }
  if (p.cold.result.computed != cells || p.warm.result.cached != cells) {
    out.fail("campaign-isolated: cold pass computed " +
             std::to_string(p.cold.result.computed) + " and warm pass read " +
             std::to_string(p.warm.result.cached) + " of " + std::to_string(cells) +
             " cells (" + p.spec.name + ")");
  }
  const std::string cold = fingerprint(p.cold.manifest);
  if (fingerprint(p.warm.manifest) != cold) {
    out.fail("campaign-isolated: warm fingerprint differs from cold (" + p.spec.name +
             ")");
  }
  if (in_process) {
    ++out.attempted;
    CampaignOptions local;
    local.manifest_path = (fs::path(options.work_dir) / "in-process.json").string();
    run_campaign(p.spec, local);
    if (fingerprint(local.manifest_path) != cold) {
      out.fail("campaign-isolated: in-process fingerprint differs from supervised (" +
               p.spec.name + ")");
    }
  }
}

/// Set-up: directories, then a 3-cell supervised campaign, so the worker
/// binary is paged in and the supervisor's paths exist before timing.
double setup_once(const Options& options, int rep) {
  const fs::path dir = fs::path(options.work_dir) / ("setup-" + std::to_string(rep));
  CampaignSpec spec;
  spec.name = "e2e-setup";
  spec.batch.samples = 1;
  spec.batch.seed = seed_for(options.seed, {4, static_cast<std::uint64_t>(rep)});
  spec.strategies = {"pure"};
  spec.sizes = {2, 3, 4};
  const double speed = machine_speed();
  const auto started = Clock::now();
  fs::create_directories(dir);
  run_pass(options, spec, write_spec(dir / "setup.spec", spec), dir / "cache",
           (dir / "setup.json").string());
  return seconds_since(started) * speed;
}

Outcome untraced(const Options& options) {
  Outcome out;
  std::vector<double> setups;
  for (int i = 0; i < options.setup_runs(); ++i) setups.push_back(setup_once(options, i));

  std::vector<std::vector<Part>> cycles;
  for (std::uint64_t i = 0; i < options.size(8u, 1u); ++i) {
    cycles.push_back(run_cycle(options, i));
  }

  Slices cold;  // One slice per cold pass of a campaign.
  std::vector<double> settled_ms;
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    for (const Part& p : cycles[i]) {
      cold.add(static_cast<double>(p.cold.result.cells.size()), p.cold.wall_s,
               p.cold.cpu_s, p.cold.speed);
      for (const double ms : p.cold.settled_ms) settled_ms.push_back(ms * p.cold.speed);
      check_part(options, p, i == 0, out);
    }
  }

  cold.report(out);
  out.set("latency_p50_ms", quantile_of(settled_ms, 0.50));
  out.set("latency_tail_ms", quantile_of(settled_ms, 0.95));
  out.set("peak_rss_mb", peak_rss_mb());
  out.set("setup_s", quantile_of(setups, 0.5));
  out.notes.push_back("work = cold-pass cells, over " + std::to_string(cold.count) +
                      " cold passes of " + std::to_string(cycles.size()) +
                      " cycles; latency = per cold cell, campaign start to "
                      "checkpointed result, tail = p95 of " +
                      std::to_string(settled_ms.size()) + " cells");
  return out;
}

/// Median microseconds of op(i) over i in [0, reps).
template <typename Op>
double median_us(std::size_t reps, Op op) {
  std::vector<double> us;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    op(i);
    us.push_back(seconds_since(t0) * 1e6);
  }
  return quantile_of(us, 0.5);
}

/// A cold-pass cell with what the probes and the replay need.
struct ColdCell {
  const Part* part = nullptr;
  PlannedCell plan;
  const CellOutcome* outcome = nullptr;
};

Outcome traced(const Options& options) {
  Outcome out;
  const std::vector<Part> parts = run_cycle(options, 0);
  std::vector<ColdCell> cells;
  std::vector<CellInput> inputs;
  for (const Part& p : parts) {
    check_part(options, p, true, out);
    std::vector<Strategy> strategies;
    for (const std::string& s : p.spec.strategies) {
      strategies.push_back(parse_strategy_spec(s));
    }
    const std::vector<PlannedCell> plan = plan_cells(p.spec, strategies);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      cells.push_back({&p, plan[i], &p.cold.result.cells.at(i)});
      // The workers are opaque, so the cell-pipeline layers are measured by
      // replaying the cycle's cells in-process.
      CellInput input;
      input.workload = p.spec.workload;
      input.strategy = strategies[plan[i].strategy_index];
      input.tag = strategy_tag(p.spec.strategies[plan[i].strategy_index]);
      input.n_procs = plan[i].n_procs;
      input.batch = p.spec.batch;
      input.context = p.spec.context;
      inputs.push_back(std::move(input));
    }
  }
  const std::size_t reps = options.smoke ? 3 : 20;
  const fs::path dir = options.work_dir;

  // A bare worker on a cached cell: process start, spec parse, cache read,
  // shard write — the floor under every supervised cell slot.
  const double exec_ms = 1e-3 * median_us(reps, [&](std::size_t i) {
    const ColdCell& c = cells[i % cells.size()];
    ++out.attempted;
    const supervise::ExitStatus status = supervise::run_command(
        {options.feastc, "campaign", "exec-cell", c.part->spec_path, "--cell",
         std::to_string(c.plan.index), "--out", (dir / "bare.result").string(),
         "--threads", "1", "--cache-dir", (dir / "cache").string()},
        {}, 60.0);
    if (!status.success()) out.fail("bare exec-cell: " + status.describe());
  });
  const double shard_us = median_us(reps * 10, [&](std::size_t i) {
    const ColdCell& c = cells[i % cells.size()];
    supervise::ShardResult shard;
    shard.cell_index = c.plan.index;
    shard.wall_ms = c.outcome->wall_ms;
    shard.stats = c.outcome->stats;
    if (!supervise::parse_shard_result(
            supervise::render_shard_result(shard, c.plan.canonical))) {
      out.fail("campaign-isolated: shard round trip rejected");
    }
  });
  ResultCache probe(dir / "probe-cache");
  const double store_us = median_us(cells.size(), [&](std::size_t i) {
    probe.store(cells[i].plan.canonical, cells[i].outcome->stats);
  });
  const double lookup_us = median_us(cells.size(), [&](std::size_t i) {
    CellStats stats;
    if (!probe.lookup(cells[i].plan.canonical, stats)) {
      out.fail("campaign-isolated: cache probe missed a stored record");
    }
  });
  const double checkpoint_ms = 1e-3 * median_us(reps, [&](std::size_t) {
    checkpoint_manifest_file((dir / "probe.json").string(), parts[0].spec,
                             parts[0].cold.result);
  });

  Tracer tracer;
  replay_cells(inputs, tracer, out);

  double cold_s = 0.0;
  double warm_s = 0.0;
  double cold_cpu_s = 0.0;
  double worker_ms = 0.0;
  double attempts = 0.0;
  for (const Part& p : parts) {
    cold_s += p.cold.wall_s;
    warm_s += p.warm.wall_s;
    cold_cpu_s += p.cold.cpu_s;
    for (const CellOutcome& cell : p.cold.result.cells) worker_ms += cell.wall_ms;
    for (const Pass* pass : {&p.cold, &p.warm}) {
      for (const CellOutcome& cell : pass->result.cells) attempts += cell.attempts;
    }
  }
  const double n = static_cast<double>(cells.size());
  const double warm_slot_ms = warm_s * 1e3 * kWorkers / n;
  out.set("campaign.busy_threads", cold_cpu_s / cold_s);
  out.set("campaign.cached_work_per_s", n / warm_s);
  out.set("campaign.cache_store_us", store_us);
  out.set("campaign.cache_lookup_us", lookup_us);
  out.set("campaign.checkpoint_ms", checkpoint_ms);
  out.set("supervise.exec_cell_ms_p50", exec_ms);
  out.set("supervise.cell_slot_ms.cold", cold_s * 1e3 * kWorkers / n);
  out.set("supervise.cell_slot_ms.warm", warm_slot_ms);
  out.set("supervise.outside_worker_ms", warm_slot_ms - exec_ms);
  out.set("supervise.worker_ms", worker_ms);
  out.set("supervise.attempts", attempts);
  out.set("supervise.retries", attempts - 2.0 * n);
  out.set("supervise.shard_us", shard_us);
  out.notes.push_back("one cycle of " + std::to_string(cells.size()) + " cells in " +
                      std::to_string(kParts) + " campaigns: cold " +
                      std::to_string(cold_s) + " s, warm " + std::to_string(warm_s) +
                      " s; supervise.worker_ms sums the workers' own wall_ms");
  maybe_write_trace(options, tracer);
  return out;
}

}  // namespace

Outcome run_campaign_isolated(const Options& options) {
  return options.trace ? traced(options) : untraced(options);
}

}  // namespace e2e
