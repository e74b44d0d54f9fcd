/// \file campaign.hpp
/// \brief Durable, cache-aware experiment campaigns.
///
/// A campaign is a declarative grid of experiment cells — strategies ×
/// system sizes over one workload and batch configuration — executed through
/// the process-wide thread pool with content-addressed cache lookups.
/// Progress is checkpointed after every cell into a JSON manifest (written
/// atomically), so an interrupted campaign resumes where it stopped: cells
/// recorded as finished are restored from the manifest, cells present in the
/// result cache are served as file reads, and only genuinely new cells pay
/// for their 128-run batches.
///
/// The spec file format (`key = value`, `#` comments) and the manifest
/// schema are documented in docs/CAMPAIGN.md.  CLI: `feastc campaign
/// run|resume|status`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "experiment/strategy.hpp"
#include "experiment/sweep.hpp"
#include "taskgraph/generator.hpp"

namespace feast {

/// Builds a Strategy from a compact spec string:
///   pure[:ccne|ccaa] | norm[:ccne|ccaa] | thres[:delta[:threshold]] |
///   adapt[:threshold] | ud | ed | prop
/// Throws std::invalid_argument on malformed specs.
Strategy parse_strategy_spec(const std::string& spec);

/// What each cell of a campaign evaluates.
enum class CampaignMode {
  Lateness,  ///< Heuristic lateness batches (the paper's protocol).
  Gap,       ///< Heuristic-vs-exact-oracle optimality gaps (src/exact).
};

/// Declarative description of a campaign: the full cell grid derives from
/// strategies × sizes.  Round-trips through canonical_text()/parse().
struct CampaignSpec {
  std::string name = "campaign";
  RandomGraphConfig workload;
  BatchConfig batch;
  /// Run-level knobs (scheduler policies, core, validation, obs sink);
  /// context.machine is ignored — cells derive their machine from
  /// (n_procs, batch).  The sink is not part of the spec format: it is
  /// installed programmatically (e.g. by `feastc campaign --trace-out`).
  RunContext context;
  std::vector<std::string> strategies;  ///< Strategy spec strings.
  std::vector<int> sizes;               ///< Processor counts.
  /// Cell evaluation mode.  Gap cells run each sample through the heuristic
  /// *and* the exact oracle (see exact/gap.hpp for the stats field
  /// mapping); `mode = gap` and `exact_nodes = N` spec keys are emitted
  /// only in Gap mode, so every existing Lateness spec hashes unchanged.
  CampaignMode mode = CampaignMode::Lateness;
  /// Oracle node budget per sample (Gap mode only; part of the cell
  /// identity via the decorated strategy label).
  std::uint64_t exact_nodes = 250000;

  std::size_t cell_count() const noexcept { return strategies.size() * sizes.size(); }

  /// Canonical spec text: every field in a fixed order with full-precision
  /// values.  parse(canonical_text()) reproduces the spec; its FNV-1a hash
  /// identifies the campaign in manifests.
  std::string canonical_text() const;

  /// Parses the `key = value` spec format ('#' starts a comment).  Throws
  /// std::invalid_argument with a line reference on malformed input.
  static CampaignSpec parse(std::istream& in);
  static CampaignSpec parse_file(const std::string& path);
};

/// Lifecycle of one cell within a campaign run.  Quarantined is the
/// supervised runner's poison-cell verdict: the cell failed its full retry
/// budget and was excluded so the rest of the campaign could complete
/// (degraded mode); a later `campaign resume` retries it from scratch.
enum class CellState { Pending, Computed, Cached, Failed, Quarantined };

const char* to_string(CellState state) noexcept;

/// Per-cell record of a campaign run (and of a manifest row).
struct CellOutcome {
  std::string strategy_spec;   ///< As written in the campaign spec.
  std::string strategy_label;  ///< Canonical label (cache identity).
  int n_procs = 0;
  std::string key_hex;  ///< Cache file stem; "" when the cell is uncacheable.
  CellState state = CellState::Pending;
  double wall_ms = 0.0;
  CellStats stats;
  std::string error;  ///< Set when state == Failed/Quarantined.
  /// Supervised runs only: how many worker attempts this cell consumed and,
  /// for Failed/Quarantined cells, the structured error taxonomy —
  /// timeout | crash | signal | oom | io (docs/ROBUSTNESS.md).
  int attempts = 0;
  std::string error_kind;
};

/// Aggregate result of one campaign run.
struct CampaignResult {
  std::string name;
  std::string spec_hash_hex;
  int samples = 0;
  std::vector<CellOutcome> cells;
  double wall_ms = 0.0;
  std::size_t computed = 0;
  std::size_t cached = 0;  ///< Served from cache or restored from manifest.
  std::size_t failed = 0;
  std::size_t quarantined = 0;  ///< Poison cells excluded by the supervisor.
  double cells_per_sec = 0.0;  ///< All cells over the campaign wall time.
  double runs_per_sec = 0.0;   ///< Computed runs only (compute throughput).
  /// A drain (SIGINT/SIGTERM) stopped the run before every cell finished;
  /// the manifest on disk is a resumable checkpoint.
  bool interrupted = false;

  bool ok() const noexcept { return failed == 0 && quarantined == 0 && !interrupted; }
  /// Every cell ran, but some were quarantined: usable, incomplete results.
  bool degraded() const noexcept { return quarantined > 0 && !interrupted; }
};

/// Knobs of run_campaign.
struct CampaignOptions {
  std::string manifest_path;      ///< Empty: no checkpointing.
  ResultCache* cache = nullptr;   ///< Borrowed; nullptr disables the cache.
  bool resume = false;            ///< Restore finished cells from the manifest.
  unsigned threads = 0;           ///< 0: keep the configured parallelism.
  std::ostream* progress = nullptr;  ///< Per-cell progress lines when set.
};

/// Executes the campaign: cells are submitted to the global thread pool,
/// consult the cache first, and checkpoint the manifest after every
/// completed cell.  A failing cell is recorded (state Failed) without
/// aborting the rest.  Throws std::invalid_argument for malformed specs.
CampaignResult run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options = {});

/// One planned cell of a campaign, in manifest order (strategy-major, then
/// size).  The index is the cell's identity in the shard protocol between
/// the supervisor and `feastc campaign exec-cell` workers.
struct PlannedCell {
  std::size_t index = 0;
  std::size_t strategy_index = 0;
  int n_procs = 0;
  std::string canonical;  ///< Cache identity; "" when uncacheable.
};

/// The cache/manifest identity label of one strategy within \p spec: the
/// bare strategy label in Lateness mode, the gap-decorated label (e.g.
/// "gap[NORM+CCNE;nodes=250000]") in Gap mode — so gap cells never collide
/// with lateness cells in the cache or in a resumed manifest.
std::string campaign_strategy_label(const CampaignSpec& spec,
                                    const std::string& strategy_label);

/// Executes one cell of \p spec according to its mode: execute_cell for
/// Lateness, exact::execute_gap_cell for Gap.  The single dispatch point
/// shared by the in-process pool runner and supervised workers.
ExecutedCell execute_campaign_cell(const CampaignSpec& spec, const Strategy& strategy,
                                   int n_procs, CellCache* cache);

/// Writes the optimality-gap table of a Gap-mode campaign: one row per
/// (strategy, size) cell with mean heuristic/optimal/gap, the gap spread,
/// mean oracle nodes and the count of unproven samples.  Skips cells that
/// did not finish (Failed/Quarantined/Pending).
void write_gap_csv(std::ostream& out, const CampaignSpec& spec,
                   const CampaignResult& result);

/// The canonical cell grid of \p spec: strategies × sizes in spec order.
/// \p strategies must be the parsed spec.strategies (the caller usually has
/// them already; parsing here would re-throw on specs run_campaign accepts).
std::vector<PlannedCell> plan_cells(const CampaignSpec& spec,
                                    const std::vector<Strategy>& strategies);

/// Fresh CellOutcome skeletons (state Pending, identity filled) for the
/// plan — the shape both runners start from and the manifest serializes.
std::vector<CellOutcome> plan_outcomes(const CampaignSpec& spec,
                                       const std::vector<Strategy>& strategies,
                                       const std::vector<PlannedCell>& plan);

/// Restores finished (Computed/Cached) cells of a previous run of the same
/// spec from \p manifest_path into \p cells, marking them Cached.  Failed,
/// Quarantined and Pending cells stay Pending (they are retried).  A
/// missing, torn or foreign manifest restores nothing.  Returns the number
/// of restored cells.
std::size_t restore_finished_cells(const std::string& manifest_path,
                                   const std::string& spec_hash_hex,
                                   std::vector<CellOutcome>& cells);

/// Recomputes the computed/cached/failed/quarantined totals and the
/// throughput numbers of \p result from its cells and \p wall_ms.
void refresh_campaign_totals(CampaignResult& result, double wall_ms);

/// Atomically checkpoints the manifest to \p path ("" = no checkpointing)
/// via util::atomic_write_file (durable: fsynced tmp + rename + dir fsync).
/// Carries the manifest-write fault-injection site.
void checkpoint_manifest_file(const std::string& path, const CampaignSpec& spec,
                              const CampaignResult& result);

/// The opening both runners share: validates \p spec, parses its strategies
/// into \p strategies, plans its cells into \p plan and returns the fresh
/// result, with the cells of an earlier run restored from
/// options.manifest_path when options.resume.  Throws std::invalid_argument
/// for malformed specs.
CampaignResult plan_campaign(const CampaignSpec& spec, const CampaignOptions& options,
                             std::vector<Strategy>& strategies,
                             std::vector<PlannedCell>& plan);

/// Serializes a manifest (JSON, schema in docs/CAMPAIGN.md).
void write_manifest(std::ostream& out, const CampaignSpec& spec,
                    const CampaignResult& result);

/// A manifest read back for `resume` and `status`.
struct Manifest {
  int version = 0;
  std::string name;
  std::string spec_hash_hex;
  std::string spec_text;  ///< Canonical spec — resume re-parses it from here.
  int samples = 0;
  std::vector<CellOutcome> cells;
  double wall_ms = 0.0;
  std::size_t computed = 0;
  std::size_t cached = 0;
  std::size_t failed = 0;
  std::size_t quarantined = 0;
};

/// Parses a manifest produced by write_manifest (minimal JSON reader).
/// Throws std::runtime_error on malformed input.
Manifest read_manifest(std::istream& in);
Manifest read_manifest_file(const std::string& path);

/// Canonical stats-only rendering of a manifest: cell identities + results
/// at full precision, excluding wall-clock times and cell states.  Two runs
/// of the same spec — interrupted + resumed or not — must fingerprint
/// byte-identically; `feastc torture` asserts exactly this.
std::string manifest_fingerprint(const Manifest& manifest);

/// A cell's four stat summaries and its infeasible-run count, as JSON
/// members (no braces): `"max_lateness": [count, mean, stddev, min, max,
/// ci95], ...` with json_number values.  The one stats writer behind
/// manifests, `/v1/status` and serve's `/v1/cell` replies.
void write_stats_json(std::ostream& out, const CellStats& stats);

/// Human-readable status table of a manifest.
void print_manifest_status(std::ostream& out, const Manifest& manifest);

/// Machine-readable status of a manifest: one JSON object with name /
/// spec_hash / samples / totals (including pending) / the 16-hex-digit
/// FNV-1a of manifest_fingerprint() / per-cell rows.  Shared between
/// `feastc campaign status --json` and the serve daemon's `/v1/status`,
/// so scripts see one schema regardless of which side they ask.
void write_manifest_status_json(std::ostream& out, const Manifest& manifest);

}  // namespace feast
