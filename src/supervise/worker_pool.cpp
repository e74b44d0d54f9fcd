#include "supervise/worker_pool.hpp"

#include <csignal>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "check/fault.hpp"
#include "obs/obs.hpp"
#include "util/strings.hpp"

namespace feast::supervise {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

/// The last few lines of a worker log, squeezed onto one line ("" when the
/// log is missing or empty).
std::string log_tail(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  while (!data.empty() && (data.back() == '\n' || data.back() == '\r')) {
    data.pop_back();
  }
  if (data.empty()) return {};
  constexpr std::size_t kMaxBytes = 320;
  if (data.size() > kMaxBytes) data.erase(0, data.size() - kMaxBytes);
  std::string tail;
  tail.reserve(data.size());
  for (const char c : data) tail += (c == '\n' || c == '\r') ? ' ' : c;
  return tail;
}

}  // namespace

std::vector<std::string> exec_cell_argv(const ExecCellArgs& args) {
  std::vector<std::string> argv = {args.feastc,
                                   "campaign",
                                   "exec-cell",
                                   args.spec_path,
                                   "--cell",
                                   std::to_string(args.cell),
                                   "--out",
                                   args.out_path,
                                   "--threads",
                                   std::to_string(args.threads)};
  if (args.no_cache) {
    argv.emplace_back("--no-cache");
  } else if (!args.cache_dir.empty()) {
    argv.emplace_back("--cache-dir");
    argv.push_back(args.cache_dir);
  }
  if (!args.inject.empty()) {
    argv.emplace_back("--inject");
    argv.push_back(args.inject);
  }
  if (!args.faults.empty()) {
    argv.emplace_back("--faults");
    argv.push_back(args.faults);
  }
  return argv;
}

AttemptResult decode_attempt(const ExitStatus& status, double timeout_s,
                             bool memory_capped, const std::string& result_path,
                             const std::string& log_path) {
  const auto failed = [&](ErrorKind kind, const std::string& what) {
    const std::string tail = log_tail(log_path);
    return AttemptResult{kind, tail.empty() ? what : what + " — " + tail, {}};
  };
  if (status.timed_out) {
    return failed(ErrorKind::Timeout, "watchdog: exceeded " +
                                          format_compact(timeout_s, 3) +
                                          " s deadline (" + status.describe() + ")");
  }
  if (!status.exited(0)) {
    ErrorKind kind = ErrorKind::Crash;
    if (status.kind == ExitStatus::Kind::Lost) {
      // waitpid could not observe the worker (reaped elsewhere): an
      // infrastructure failure, same bucket as a failed spawn.
      kind = ErrorKind::Io;
    } else if (status.kind == ExitStatus::Kind::Signaled) {
      kind = memory_capped && status.term_signal == SIGKILL ? ErrorKind::Oom
                                                            : ErrorKind::Signal;
    }
    return failed(kind, "worker " + status.describe());
  }
  std::ifstream in(result_path, std::ios::binary);
  if (!in) return failed(ErrorKind::Io, "worker exited 0 but left no result file");
  return {ErrorKind::None, "",
          std::string(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>())};
}

struct WorkerPool::Lease {
  Subprocess proc;
  std::uint64_t ticket = 0;
  std::size_t cell = 0;
  Clock::time_point started;
  std::string result_path;
  std::string log_path;
  obs::Sink* sink = nullptr;  ///< Captured at spawn for the attempt span.
  std::uint64_t span_start_ns = 0;
};

WorkerPool::WorkerPool(WorkerPoolOptions options) : options_(std::move(options)) {
  if (options_.slots < 1) throw std::invalid_argument("worker pool: slots < 1");
  if (options_.work_dir.empty()) {
    throw std::invalid_argument("worker pool: work_dir required");
  }
  fs::create_directories(options_.work_dir);
  feastc_ = options_.feastc_path.empty() ? self_exe_path() : options_.feastc_path;
  leases_.reserve(static_cast<std::size_t>(options_.slots));
}

WorkerPool::~WorkerPool() {
  // Never leak an unsupervised process: a pool owner unwinding through an
  // exception (or just exiting) takes its leases down with it.
  kill_all(/*grace_s=*/1.0);
}

std::size_t WorkerPool::running() const noexcept { return leases_.size(); }

std::size_t WorkerPool::free_slots() const noexcept {
  return static_cast<std::size_t>(options_.slots) - running();
}

void WorkerPool::exit_fds(std::vector<pollfd>& out) const {
  for (const Lease& lease : leases_) {
    if (lease.proc.exit_fd() >= 0) out.push_back({lease.proc.exit_fd(), POLLIN, 0});
  }
}

std::uint64_t WorkerPool::submit(const std::string& spec_path,
                                 std::size_t cell_index, const std::string& inject,
                                 const std::string& faults) {
  if (free_slots() == 0) throw std::runtime_error("worker pool: no free slot");

  obs::count(obs::Counter::SuperviseSpawn);
  if (const auto fault = check::fire(check::FaultSite::SuperviseSpawn)) {
    if (*fault == check::FaultAction::Die) std::_Exit(check::kFaultExitCode);
    throw std::runtime_error("injected spawn failure");
  }

  Lease lease;
  lease.ticket = next_ticket_++;
  lease.cell = cell_index;
  const fs::path stem = fs::path(options_.work_dir) /
                        ("lease-" + std::to_string(lease.ticket) + ".cell-" +
                         std::to_string(cell_index));
  lease.result_path = stem.string() + ".result";
  lease.log_path = stem.string() + ".log";
  std::error_code ec;
  fs::remove(lease.result_path, ec);  // Never harvest a stale shard.

  SubprocessOptions opts;
  opts.stdout_path = lease.log_path;
  opts.stderr_path = "+stdout";
  opts.memory_limit_bytes = options_.memory_limit_mb << 20;
  // Own process group: a terminal Ctrl-C or a SIGTERM aimed at the owner
  // must reach only the owner (which drains), never the workers — otherwise
  // every in-flight attempt harvests as a signal death and gets charged.
  opts.new_process_group = true;
  try {
    lease.proc = Subprocess::spawn(
        exec_cell_argv({feastc_, spec_path, cell_index, lease.result_path,
                        options_.worker_threads, options_.cache_dir,
                        options_.no_cache, inject, faults}),
        opts);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("spawn failed: ") + e.what());
  }
  lease.started = Clock::now();
  if ((lease.sink = obs::active()) != nullptr) {
    lease.span_start_ns = obs::detail::now_ns(*lease.sink);
  }
  const std::uint64_t ticket = lease.ticket;
  leases_.push_back(std::move(lease));
  return ticket;
}

WorkerOutcome WorkerPool::harvest(Lease& lease) {
  if (lease.sink != nullptr) {
    obs::detail::record_span(*lease.sink, obs::Span::SuperviseAttempt,
                             lease.span_start_ns);
  }
  WorkerOutcome outcome;
  outcome.ticket = lease.ticket;

  if (const auto fault = check::fire(check::FaultSite::SuperviseHeartbeat)) {
    if (*fault == check::FaultAction::Die) std::_Exit(check::kFaultExitCode);
    // Any other action: the heartbeat "lost" this worker — discard its
    // result exactly as if the watchdog had killed it.
    outcome.kind = ErrorKind::Timeout;
    outcome.error = "injected heartbeat fault: attempt discarded";
    return outcome;
  }
  static_cast<AttemptResult&>(outcome) =
      decode_attempt(lease.proc.status(), options_.cell_timeout_s,
                     options_.memory_limit_mb > 0, lease.result_path,
                     lease.log_path);
  if (!outcome.ok()) return outcome;
  ShardError shard_error = ShardError::None;
  const std::optional<ShardResult> shard =
      parse_shard_result(outcome.result, &shard_error);
  if (!shard.has_value() || shard->cell_index != lease.cell) {
    outcome.kind = ErrorKind::Io;
    outcome.error =
        "worker result unreadable (" +
        std::string(shard.has_value() ? "wrong cell" : to_string(shard_error)) +
        "): " + lease.result_path;
    return outcome;
  }
  outcome.shard = *shard;
  if (!options_.keep_files) {
    std::error_code ec;
    fs::remove(lease.result_path, ec);
    fs::remove(lease.log_path, ec);
  }
  return outcome;
}

std::vector<WorkerOutcome> WorkerPool::poll() {
  std::vector<WorkerOutcome> outcomes;
  for (auto it = leases_.begin(); it != leases_.end();) {
    Lease& lease = *it;
    bool done = lease.proc.poll();
    if (!done && options_.cell_timeout_s > 0.0 &&
        std::chrono::duration<double>(Clock::now() - lease.started).count() >
            options_.cell_timeout_s) {
      obs::count(obs::Counter::SuperviseKill);
      lease.proc.kill_and_reap(options_.term_grace_s);
      done = true;
    }
    if (!done) {
      ++it;
      continue;
    }
    outcomes.push_back(harvest(lease));
    it = leases_.erase(it);
  }
  return outcomes;
}

void WorkerPool::kill_all(double grace_s) {
  for (Lease& lease : leases_) {
    obs::count(obs::Counter::SuperviseKill);
    lease.proc.kill_and_reap(grace_s);
    std::error_code ec;
    fs::remove(lease.result_path, ec);
    if (!options_.keep_files) fs::remove(lease.log_path, ec);
  }
  leases_.clear();
}

}  // namespace feast::supervise
