#include "supervise/supervisor.hpp"

#include <poll.h>

#include <csignal>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/cache.hpp"
#include "check/fault.hpp"
#include "obs/obs.hpp"
#include "supervise/dispatcher.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace feast::supervise {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const char* to_string(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::None: return "";
    case ErrorKind::Timeout: return "timeout";
    case ErrorKind::Crash: return "crash";
    case ErrorKind::Signal: return "signal";
    case ErrorKind::Oom: return "oom";
    case ErrorKind::Io: return "io";
    case ErrorKind::Net: return "net";
  }
  return "?";
}

ErrorKind error_kind_from_string(const std::string& name) noexcept {
  if (name.empty()) return ErrorKind::None;
  if (name == "timeout") return ErrorKind::Timeout;
  if (name == "crash") return ErrorKind::Crash;
  if (name == "signal") return ErrorKind::Signal;
  if (name == "oom") return ErrorKind::Oom;
  if (name == "net") return ErrorKind::Net;
  return ErrorKind::Io;
}

double backoff_delay_ms(const BackoffPolicy& policy, std::size_t cell_index,
                        int attempt) {
  const int n = attempt < 1 ? 1 : attempt;
  double delay = policy.base_ms * std::pow(2.0, n - 1);
  if (!(delay < policy.cap_ms)) delay = policy.cap_ms;
  // Jitter stream: independent of the batch's sample streams (distinct
  // leading path element) and fully determined by (seed, cell, attempt).
  Pcg32 rng(seed_for(policy.seed,
                     {0x5355504552ULL /* "SUPER" */, cell_index,
                      static_cast<std::uint64_t>(n)}));
  return delay * rng.uniform_real(0.75, 1.25);
}

namespace {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

void validate_inject(const std::string& value, bool allow_worker_die) {
  const std::size_t at = value.find('@');
  const std::string action = value.substr(0, at);
  if (action != "hang" && action != "crash" && action != "signal" &&
      !(allow_worker_die && action == "worker-die")) {
    throw std::invalid_argument(
        std::string("inject action must be hang|crash|signal") +
        (allow_worker_die ? "|worker-die" : "") + ", got '" + action + "'");
  }
  // The N of `@N`: a plain decimal integer >= 1.
  const std::string n = at == std::string::npos ? "1" : value.substr(at + 1);
  if (n.empty() || n.size() > 9 ||
      n.find_first_not_of("0123456789") != std::string::npos || std::stoi(n) < 1) {
    throw std::invalid_argument("inject attempt must be an integer >= 1, got '" +
                                value + "'");
  }
}

std::map<std::size_t, std::string> parse_inject_spec(const std::string& spec,
                                                     bool allow_worker_die) {
  std::map<std::size_t, std::string> inject;
  for (const std::string& rule : split(spec, ',')) {
    const std::string trimmed = trim(rule);
    if (trimmed.empty()) continue;
    const std::size_t colon = trimmed.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument(
          "inject rule must be CELL:ACTION[@ATTEMPT], got '" + trimmed + "'");
    }
    const std::string cell = trim(trimmed.substr(0, colon));
    if (cell.empty() || cell.size() > 18 ||
        cell.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument("inject rule cell must be a number in '" +
                                  trimmed + "'");
    }
    const std::string value = trim(trimmed.substr(colon + 1));
    validate_inject(value, allow_worker_die);
    inject[std::stoull(cell)] = value;
  }
  return inject;
}

// --------------------------------------------------------- shard protocol

std::string render_shard_result(const ShardResult& result,
                                const std::string& canonical_key) {
  std::ostringstream out;
  out << "feast-shard v1\n";
  out << "cell " << result.cell_index << "\n";
  out << "origin " << (result.from_cache ? "cached" : "computed") << "\n";
  out << "wall_ms " << format_compact(result.wall_ms, 17) << "\n";
  // The payload reuses the cache record format — stats at full precision
  // with the whole-record checksum line, so a torn shard reads as corrupt.
  write_cell_record(out,
                    canonical_key.empty() ? "cell:" + std::to_string(result.cell_index)
                                          : canonical_key,
                    result.stats);
  return out.str();
}

const char* to_string(ShardError error) noexcept {
  switch (error) {
    case ShardError::None: return "";
    case ShardError::Truncated: return "truncated";
    case ShardError::Corrupt: return "corrupt";
  }
  return "?";
}

namespace {

/// Rejects \p data with the \p why taxonomy: bumps the matching obs counter
/// and reports the classification through \p error.
std::nullopt_t reject_shard(ShardError why, ShardError* error) {
  obs::count(why == ShardError::Truncated ? obs::Counter::ShardTruncated
                                          : obs::Counter::ShardCorrupt);
  if (error != nullptr) *error = why;
  return std::nullopt;
}

}  // namespace

std::optional<ShardResult> parse_shard_result(const std::string& data,
                                              ShardError* error) {
  if (error != nullptr) *error = ShardError::None;
  std::istringstream in(data);
  // Reads the next header line, which must start with \p prefix, leaving
  // the rest in `value`.  Running out of bytes — or a final line without
  // its newline — is truncation; a complete line with the wrong shape is
  // corruption.
  std::string value;
  ShardError why = ShardError::None;
  const auto field = [&](const std::string& prefix) {
    if (!std::getline(in, value) || in.eof()) {
      why = ShardError::Truncated;
    } else if (value.rfind(prefix, 0) != 0) {
      why = ShardError::Corrupt;
    } else {
      value.erase(0, prefix.size());
    }
    return why == ShardError::None;
  };
  if (!field("feast-shard v1")) return reject_shard(why, error);
  if (!value.empty()) return reject_shard(ShardError::Corrupt, error);
  ShardResult result;
  try {
    if (!field("cell ")) return reject_shard(why, error);
    result.cell_index = std::stoull(value);
    if (!field("origin ")) return reject_shard(why, error);
    if (value != "computed" && value != "cached") {
      return reject_shard(ShardError::Corrupt, error);
    }
    result.from_cache = value == "cached";
    if (!field("wall_ms ")) return reject_shard(why, error);
    result.wall_ms = std::stod(value);
  } catch (const std::exception&) {
    return reject_shard(ShardError::Corrupt, error);
  }
  const std::string record((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  RecordError record_error = RecordError::None;
  CellStats stats;
  if (!read_cell_record(record, stats, &record_error).has_value()) {
    return reject_shard(record_error == RecordError::Truncated
                            ? ShardError::Truncated
                            : ShardError::Corrupt,
                        error);
  }
  result.stats = stats;
  return result;
}

// ------------------------------------------------------------ worker side

int run_worker_cell(const CampaignSpec& spec, std::size_t cell_index,
                    const std::string& out_path, const std::string& cache_dir,
                    const std::string& inject, const std::string& faults,
                    std::ostream& err) {
  if (inject == "hang") {
    // Poison action for watchdog tests: wedge until killed.  Sleep in a
    // loop (not one long sleep) so a SIGTERM-ignoring hang stays wedged
    // through EINTR too.
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (inject == "crash") {
    err << "exec-cell: injected crash" << std::endl;
    return 1;
  }
  if (inject == "signal") {
    // SIGUSR1: default disposition terminates, is never sent by the
    // watchdog (SIGTERM/SIGKILL) and does not trip sanitizer abort hooks.
    std::raise(SIGUSR1);
  }
  if (!inject.empty()) {
    err << "exec-cell: unknown inject action '" << inject << "'" << std::endl;
    return 1;
  }

  std::vector<Strategy> strategies;
  std::vector<PlannedCell> plan;
  try {
    strategies.reserve(spec.strategies.size());
    for (const std::string& s : spec.strategies) {
      strategies.push_back(parse_strategy_spec(s));
    }
    plan = plan_cells(spec, strategies);
  } catch (const std::exception& e) {
    err << "exec-cell: bad spec: " << e.what() << std::endl;
    return 1;
  }
  if (cell_index >= plan.size()) {
    err << "exec-cell: cell " << cell_index << " out of range (campaign has "
        << plan.size() << " cells)" << std::endl;
    return 1;
  }

  const PlannedCell& cell = plan[cell_index];
  std::optional<ResultCache> cache;
  if (!cache_dir.empty()) {
    try {
      cache.emplace(cache_dir);
    } catch (const std::exception& e) {
      err << "exec-cell: cannot open cache: " << e.what() << std::endl;
      return 1;
    }
  }

  // Arm a per-cell fault plan (supervisor-forwarded --faults) inside this
  // worker: the supervisor's own plan does not cross the process boundary.
  std::optional<check::FaultPlan> fault_plan;
  if (!faults.empty()) {
    try {
      fault_plan.emplace(faults);
    } catch (const std::exception& e) {
      err << "exec-cell: bad fault spec: " << e.what() << std::endl;
      return 1;
    }
  }
  check::ScopedFaultPlan scoped_faults(fault_plan ? &*fault_plan : nullptr);

  ShardResult shard;
  shard.cell_index = cell_index;
  const auto start = Clock::now();
  try {
    const ExecutedCell executed = execute_campaign_cell(
        spec, strategies[cell.strategy_index], cell.n_procs, cache ? &*cache : nullptr);
    shard.stats = executed.stats;
    shard.from_cache = executed.from_cache;
  } catch (const std::exception& e) {
    err << "exec-cell: cell " << cell_index << " failed: " << e.what()
        << std::endl;
    return 1;
  }
  shard.wall_ms = ms_since(start);

  std::string error;
  if (!atomic_write_file(out_path, render_shard_result(shard, cell.canonical),
                         &error)) {
    err << "exec-cell: cannot write result: " << error << std::endl;
    return 1;
  }
  return 0;
}

// -------------------------------------------------------- supervisor side

CampaignResult run_supervised_campaign(const CampaignSpec& spec,
                                       const CampaignOptions& options,
                                       const SupervisorOptions& sup) {
  std::vector<Strategy> strategies;
  std::vector<PlannedCell> plan;
  CampaignResult result = plan_campaign(spec, options, strategies, plan);
  if (sup.workers < 1) throw std::invalid_argument("supervise: workers < 1");
  if (sup.max_attempts < 1) throw std::invalid_argument("supervise: max attempts < 1");
  for (const auto& [cell, value] : sup.inject) validate_inject(value);
  for (const auto& [cell, value] : sup.fault_cells) {
    check::FaultPlan probe(value);  // Fail fast on malformed fault specs.
  }

  // The supervisor's own fault sites (spawn/heartbeat inside the worker
  // pool, manifest-write) fire in this process; workers are separate
  // processes and see no plan.
  check::ScopedFaultPlan scoped_faults(spec.context.faults);

  // Scratch directory for shard results, worker logs and (when the caller
  // did not hand us a spec file) the canonical spec workers re-parse.
  const fs::path work_dir =
      !sup.work_dir.empty() ? fs::path(sup.work_dir)
      : !options.manifest_path.empty()
          ? fs::path(options.manifest_path + ".work")
          : fs::path(spec.name + ".feast-work");
  fs::create_directories(work_dir);
  std::string spec_path = sup.spec_path;
  if (spec_path.empty()) {
    spec_path = (work_dir / "spec.feast").string();
    std::string error;
    if (!atomic_write_file(spec_path, spec.canonical_text(), &error)) {
      throw std::runtime_error("supervise: cannot write worker spec: " + error);
    }
  }

  // One client with the seeded backoff: the fair queue is then FIFO with
  // due times.
  DispatcherOptions dispatch;
  dispatch.policy.max_attempts = sup.max_attempts;
  dispatch.policy.backoff = sup.backoff;
  if (dispatch.policy.backoff.seed == 0) dispatch.policy.backoff.seed = spec.batch.seed;
  dispatch.pool.slots = sup.workers;
  dispatch.pool.cell_timeout_s = sup.cell_timeout_s;
  dispatch.pool.term_grace_s = sup.term_grace_s;
  dispatch.pool.memory_limit_mb = sup.memory_limit_mb;
  dispatch.pool.worker_threads = sup.worker_threads;
  dispatch.pool.feastc_path = sup.feastc_path;
  dispatch.pool.cache_dir = sup.cache_dir;
  dispatch.pool.no_cache = sup.no_cache;
  dispatch.pool.work_dir = work_dir.string();
  dispatch.pool.keep_files = sup.keep_work_dir;
  Dispatcher dispatcher(dispatch);

  const auto start = Clock::now();
  refresh_campaign_totals(result, 0.0);
  checkpoint_manifest_file(options.manifest_path, spec, result);

  const std::size_t total = result.cells.size();
  std::size_t finished = total;  // Restored cells count as done.
  const auto per_cell = [](const std::map<std::size_t, std::string>& values,
                           std::size_t cell) {
    const auto it = values.find(cell);
    return it == values.end() ? std::string() : it->second;
  };
  for (std::size_t i = 0; i < total; ++i) {
    if (result.cells[i].state != CellState::Pending) continue;
    // One client, no key: events name the cell by index.
    dispatcher.add({"", "", spec_path, i, per_cell(sup.inject, i),
                    per_cell(sup.fault_cells, i)});
    --finished;
  }

  DrainSignalGuard drain_guard;
  bool draining = false;
  std::vector<pollfd> exit_fds;

  const auto progress_prefix = [&](std::ostream& out) -> std::ostream& {
    return out << "[" << finished << "/" << total << "] ";
  };

  // Counts a cell's terminal row and checkpoints it.
  const auto finish_cell = [&] {
    ++finished;
    refresh_campaign_totals(result, ms_since(start));
    checkpoint_manifest_file(options.manifest_path, spec, result);
  };

  // ------------------------------------------------------- the event loop
  while (true) {
    const auto now = Clock::now();

    if (!draining && drain_guard.signal() != 0) {
      draining = true;
      // Undispatched cells stay Pending in the checkpoint; in-flight
      // workers get the grace window to finish and be harvested, and are
      // killed past it, their cells left Pending and uncharged.
      dispatcher.drain(sup.drain_grace_s);
      if (options.progress != nullptr) {
        *options.progress << "drain: signal " << drain_guard.signal()
                          << " received; waiting up to "
                          << format_compact(sup.drain_grace_s, 1) << " s for "
                          << dispatcher.running() << " running worker(s)" << std::endl;
      }
    }

    for (Dispatcher::Event& event : dispatcher.step(now)) {
      using Kind = Dispatcher::Event::Kind;
      CellOutcome& cell = result.cells[event.cell];
      switch (event.kind) {
        case Kind::Done:
          record_success(cell, event.shard, event.attempts);
          finish_cell();
          if (options.progress != nullptr) {
            progress_prefix(*options.progress)
                << cell.strategy_label << " procs=" << cell.n_procs << " "
                << to_string(cell.state) << " (" << format_compact(cell.wall_ms, 1)
                << " ms, attempt " << cell.attempts << ")" << std::endl;
          }
          break;
        case Kind::Quarantined:
          record_quarantine(cell, event.attempts, event.error_kind,
                            std::move(event.error));
          finish_cell();
          if (options.progress != nullptr) {
            progress_prefix(*options.progress)
                << cell.strategy_label << " procs=" << cell.n_procs
                << " quarantined after " << event.attempts << " attempts ["
                << cell.error_kind << "] — " << cell.error << std::endl;
          }
          break;
        case Kind::Retry:
          if (options.progress != nullptr) {
            progress_prefix(*options.progress)
                << cell.strategy_label << " procs=" << cell.n_procs << " attempt "
                << event.attempts << "/" << sup.max_attempts << " failed ["
                << to_string(event.error_kind) << "], retry in "
                << format_compact(event.delay_ms, 0) << " ms — " << event.error
                << std::endl;
          }
          break;
        case Kind::Requeued:  // Remote leases only.
        case Kind::Released:
          // Released inside the drain window: the cell stays Pending
          // exactly like never-dispatched work.
          break;
      }
    }

    if (dispatcher.idle()) break;
    // Sleep until a worker exits; the 10 ms tick still bounds the wait for
    // due retries, the watchdog and a drain signal.  EINTR and timeouts
    // both fall through to the next tick.
    exit_fds.clear();
    dispatcher.exit_fds(exit_fds);
    ::poll(exit_fds.data(), exit_fds.size(), 10);
  }

  result.interrupted =
      draining && std::any_of(result.cells.begin(), result.cells.end(),
                              [](const CellOutcome& c) {
                                return c.state == CellState::Pending;
                              });

  refresh_campaign_totals(result, ms_since(start));
  checkpoint_manifest_file(options.manifest_path, spec, result);

  if (!sup.keep_work_dir && sup.work_dir.empty() && result.failed == 0 &&
      result.quarantined == 0 && !result.interrupted) {
    // Fully healthy run on a work dir we invented: nothing in it is worth
    // keeping.  Degraded/interrupted runs keep their logs — the manifest
    // error fields reference them.
    std::error_code ec;
    fs::remove_all(work_dir, ec);
  }
  return result;
}

}  // namespace feast::supervise
