/// \file supervisor.hpp
/// \brief Supervised process isolation for campaigns.
///
/// `run_supervised_campaign` executes a campaign's cells in worker
/// *subprocesses* (`feastc campaign exec-cell`, one cell per attempt)
/// instead of pool threads, so a wedged or crashing cell can no longer
/// take the whole campaign down.  The supervision discipline borrows the
/// reservation/budget stance of reservation-based federated scheduling —
/// every unit of work runs under an enforced budget — and the graceful
/// degradation of imprecise computation: a late or failed piece degrades
/// the result instead of aborting the run.
///
///   * **Watchdog** — each attempt gets a wall-clock deadline; overruns are
///     killed with SIGTERM → (grace) → SIGKILL escalation.
///   * **Retry** — failed attempts requeue under deterministic exponential
///     backoff with seeded jitter (replayable from the spec seed alone).
///   * **Quarantine** — a cell that exhausts its retry budget is recorded
///     as `quarantined` with a structured error taxonomy
///     (timeout | crash | signal | oom | io) and the campaign *completes*
///     in degraded mode around it.
///   * **Drain** — SIGINT/SIGTERM stop dispatch, give in-flight workers a
///     grace window, and write a final resumable manifest checkpoint.
///
/// Results travel supervisor ← worker through shard-result files written
/// with util::atomic_write_file; healthy cells are byte-identical to an
/// unsupervised run (torture asserts the manifest fingerprints match).
/// Policy details: docs/ROBUSTNESS.md.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>

#include "campaign/campaign.hpp"

namespace feast::supervise {

/// Structured taxonomy of why a worker attempt failed (manifest
/// `error_kind`; docs/ROBUSTNESS.md).
enum class ErrorKind : std::uint8_t {
  None,     ///< The attempt succeeded.
  Timeout,  ///< Watchdog deadline exceeded; the worker was killed.
  Crash,    ///< Worker exited with a non-zero code.
  Signal,   ///< Worker was killed by a signal it did not expect.
  Oom,      ///< Worker died under its memory cap (SIGKILL with RLIMIT_AS).
  Io,       ///< Spawn failed or the shard result was missing/unreadable.
  Net,      ///< Remote-worker failure domain: torn/corrupt frames over the
            ///< wire, or a cell that killed enough distinct workers to be
            ///< declared cross-worker poison (docs/SERVE.md).
};

const char* to_string(ErrorKind kind) noexcept;

/// Inverse of to_string; unknown strings decode as Io (the conservative
/// "something infrastructural went wrong" bucket).
ErrorKind error_kind_from_string(const std::string& name) noexcept;

/// Deterministic retry backoff: attempt n (1-based, the attempt that just
/// failed) sleeps `min(cap, base·2^(n-1))` scaled by a seeded jitter in
/// [0.75, 1.25).  Identical (seed, cell, attempt) triples always produce
/// identical delays, so a retry schedule is replayable.
struct BackoffPolicy {
  double base_ms = 250.0;
  double cap_ms = 10'000.0;
  std::uint64_t seed = 0;  ///< Usually the campaign's batch seed.
};

double backoff_delay_ms(const BackoffPolicy& policy, std::size_t cell_index,
                        int attempt);

/// Knobs of the supervised runner.
struct SupervisorOptions {
  int workers = 2;             ///< Concurrent worker subprocesses.
  double cell_timeout_s = 0.0; ///< Watchdog deadline per attempt (0 = off).
  double term_grace_s = 2.0;   ///< SIGTERM → SIGKILL escalation window.
  double drain_grace_s = 10.0; ///< Drain: wait for in-flight workers.
  int max_attempts = 3;        ///< Attempts before a cell is quarantined.
  BackoffPolicy backoff;
  std::uint64_t memory_limit_mb = 0;  ///< RLIMIT_AS per worker (0 = off).
  unsigned worker_threads = 1;        ///< --threads given to each worker.
  /// Scratch directory for shard results + worker logs.  Empty: derived
  /// from the manifest path (`<manifest>.work`).  Removed after a fully
  /// healthy run, kept (with the logs the manifest errors reference) when
  /// anything was quarantined.
  std::string work_dir;
  bool keep_work_dir = false;
  /// Worker binary; empty resolves /proc/self/exe (correct when the caller
  /// is feastc itself; tests pass their configured binary).
  std::string feastc_path;
  /// The spec file workers re-parse.  Required: the supervisor never ships
  /// spec state through argv, both sides parse the same canonical file.
  std::string spec_path;
  std::string cache_dir;  ///< Forwarded to workers; "" with no_cache unset
                          ///< still forwards (workers default their own).
  bool no_cache = false;
  /// Deterministic poison-cell injection for tests and torture: cell index
  /// → "hang" | "crash" | "signal", optionally "@N" (N >= 1) to poison only
  /// attempt N (e.g. "crash@1" fails once, then the retry succeeds).
  /// Forwarded to the matching worker as `exec-cell --inject`.
  std::map<std::size_t, std::string> inject;
  /// Per-cell fault-injection plans (check/fault.hpp spec grammar, e.g.
  /// "exact-solve:1:die"), armed inside the matching worker subprocess via
  /// `exec-cell --faults`.  Unlike `inject` (which fakes worker-level
  /// crashes before the cell runs), these fire at real library injection
  /// sites mid-execution; every attempt re-arms the same plan.
  std::map<std::size_t, std::string> fault_cells;
};

/// Checks one inject value, `ACTION[@N]`: ACTION is hang | crash | signal,
/// or also worker-die (the serve fabric's poison) when \p allow_worker_die;
/// N, when present, is an integer >= 1.  Throws std::invalid_argument.
void validate_inject(const std::string& value, bool allow_worker_die = false);

/// Parses a comma-separated `--inject CELL:ACTION[@N]` list (each value as
/// validate_inject).  Throws std::invalid_argument on malformed input.
std::map<std::size_t, std::string> parse_inject_spec(const std::string& spec,
                                                     bool allow_worker_die = false);

/// Runs the campaign under process isolation.  Uses options.manifest_path /
/// resume / progress / cache exactly like run_campaign (the cache pointer is
/// only consulted for *restored* cells; workers open their own cache on
/// sup.cache_dir).  Returns with result.interrupted set when a drain signal
/// stopped the run early; quarantined cells leave the run degraded but
/// complete.  Throws std::invalid_argument for malformed specs.
CampaignResult run_supervised_campaign(const CampaignSpec& spec,
                                       const CampaignOptions& options,
                                       const SupervisorOptions& sup);

// ----------------------------------------------------------- shard protocol

/// One worker's result for one cell, shipped through a shard-result file.
struct ShardResult {
  std::size_t cell_index = 0;
  bool from_cache = false;
  double wall_ms = 0.0;
  CellStats stats;
};

/// Why a shard result was rejected.  `Truncated`: the bytes end before the
/// record's final checksum line is complete — a short read or fragmented
/// delivery lost the tail.  `Corrupt`: the shard is structurally complete
/// but wrong — bad magic/fields or a failed whole-record checksum.  Over a
/// remote transport the distinction is diagnostic: truncation points at
/// delivery, corruption at the bytes.  Each rejection bumps the matching
/// obs counter (`shard.truncated` / `shard.corrupt`).
enum class ShardError : std::uint8_t { None, Truncated, Corrupt };

const char* to_string(ShardError error) noexcept;

/// Renders/parses the shard-result file format (versioned, ends with the
/// cell record's whole-record checksum; docs/ROBUSTNESS.md).  parse returns
/// std::nullopt on any malformed input, never throws on corrupt bytes;
/// \p error (when non-null) reports the truncated-vs-corrupt taxonomy.
std::string render_shard_result(const ShardResult& result,
                                const std::string& canonical_key);
std::optional<ShardResult> parse_shard_result(const std::string& data,
                                              ShardError* error = nullptr);

/// Worker side of the protocol (the `feastc campaign exec-cell` body):
/// executes cell \p cell_index of \p spec (cache on \p cache_dir unless
/// empty), writes the shard result atomically to \p out_path and returns 0.
/// On failure writes the reason to \p err and returns 1.  \p inject is the
/// poison action to honor before executing ("" = none); \p faults is a
/// fault-plan spec (check/fault.hpp grammar) armed for the cell's duration
/// ("" = none).
int run_worker_cell(const CampaignSpec& spec, std::size_t cell_index,
                    const std::string& out_path, const std::string& cache_dir,
                    const std::string& inject, const std::string& faults,
                    std::ostream& err);

}  // namespace feast::supervise
