/// \file worker_pool.hpp
/// \brief Leased `exec-cell` worker subprocesses, and the one attempt path.
///
/// Every executor that runs a cell out of process — the supervised
/// campaign runner, the `feastc serve` daemon's local workers and the
/// remote `feastc worker` — runs it as one `feastc campaign exec-cell`
/// attempt.  This header holds that attempt path once: exec_cell_argv()
/// builds the command line, decode_attempt() turns a finished attempt's
/// exit status, result file and log into the error taxonomy, and
/// WorkerPool owns the spawn, watchdog, harvest and drain-kill of
/// concurrent attempts.  submit() spawns into a free slot and returns a
/// ticket; poll() harvests finished (or watchdog-killed) leases without
/// blocking.  The pool reports one attempt's outcome; what a failure
/// means is the attempt ledger's call (attempts.hpp).
///
/// Two fault sites (check/fault.hpp) fire inside the pool:
/// `supervise-spawn` before each spawn (die kills the pool's owner, any
/// other action fails the spawn as `io`) and `supervise-heartbeat` on each
/// harvest (die kills the owner, any other action discards the attempt as
/// a `timeout`).
///
/// The destructor kills and reaps every outstanding lease: a pool owner
/// that dies, drains or unwinds through an exception never leaks a worker
/// process.
#pragma once

#include <poll.h>

#include <cstdint>
#include <string>
#include <vector>

#include "supervise/subprocess.hpp"
#include "supervise/supervisor.hpp"

namespace feast::supervise {

/// The command line of one `feastc campaign exec-cell` attempt.
struct ExecCellArgs {
  std::string feastc;     ///< Worker binary.
  std::string spec_path;  ///< Campaign spec the worker re-parses.
  std::size_t cell = 0;
  std::string out_path;   ///< Where the worker publishes its shard.
  unsigned threads = 1;
  std::string cache_dir;  ///< "" = worker default.
  bool no_cache = false;
  std::string inject;  ///< Poison action already resolved for this attempt.
  std::string faults;  ///< Fault plan armed inside the worker ("" = none).
};

std::vector<std::string> exec_cell_argv(const ExecCellArgs& args);

/// What one finished attempt decodes to.
struct AttemptResult {
  ErrorKind kind = ErrorKind::None;
  std::string error;   ///< Detail with the worker log's tail (failures).
  std::string result;  ///< The result file's bytes, unparsed (success).

  bool ok() const noexcept { return kind == ErrorKind::None; }
};

/// Decodes one finished attempt: \p status (a watchdog kill carries
/// timed_out; \p timeout_s is the deadline it enforced), the result file at
/// \p result_path and the log at \p log_path.  \p memory_capped classifies
/// a SIGKILL as `oom`, since under RLIMIT_AS that is how the kernel refuses
/// an allocation.
AttemptResult decode_attempt(const ExitStatus& status, double timeout_s,
                             bool memory_capped, const std::string& result_path,
                             const std::string& log_path);

/// Pool-construction knobs (per-lease knobs ride on submit()).
struct WorkerPoolOptions {
  int slots = 2;                ///< Concurrent leases.
  double cell_timeout_s = 0.0;  ///< Watchdog deadline per lease (0 = off).
  double term_grace_s = 2.0;    ///< SIGTERM → SIGKILL escalation window.
  std::uint64_t memory_limit_mb = 0;  ///< RLIMIT_AS per worker (0 = off).
  unsigned worker_threads = 1;        ///< --threads given to each worker.
  /// Worker binary; empty resolves /proc/self/exe (correct when the caller
  /// is feastc itself; tests pass their configured binary).
  std::string feastc_path;
  std::string cache_dir;  ///< Forwarded to workers ("" = worker default).
  bool no_cache = false;
  /// Scratch directory for shard results + worker logs.  Required.
  std::string work_dir;
  /// Keep a healthy lease's shard and log too (`--keep-work`).  Failed
  /// leases always keep theirs: the error detail points at them.
  bool keep_files = false;
};

/// One harvested lease: its decoded attempt plus, when ok(), the parsed
/// shard.
struct WorkerOutcome : AttemptResult {
  std::uint64_t ticket = 0;
  ShardResult shard;
};

/// Fixed-capacity pool of supervised worker subprocesses.  Single-owner:
/// not thread-safe (its owners drive it from one event loop).
class WorkerPool {
 public:
  explicit WorkerPool(WorkerPoolOptions options);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t running() const noexcept;
  std::size_t free_slots() const noexcept;
  /// Appends a POLLIN entry for each running lease's exit fd: poll() on
  /// them wakes when a worker finishes, and the next poll() of the pool
  /// reaps it.
  void exit_fds(std::vector<pollfd>& out) const;

  /// Leases a free slot to one `exec-cell` attempt on cell \p cell_index of
  /// the campaign spec at \p spec_path (\p inject is the poison action to
  /// forward, \p faults the fault plan to arm in the worker; "" = none).
  /// Returns a nonzero ticket the eventual WorkerOutcome echoes back.
  /// Throws std::runtime_error, its message ready for the attempt's error
  /// detail, when the pool is full or the spawn fails — callers gate on
  /// free_slots().
  std::uint64_t submit(const std::string& spec_path, std::size_t cell_index,
                       const std::string& inject = "",
                       const std::string& faults = "");

  /// Non-blocking harvest: reaps every finished lease, watchdog-kills every
  /// overrun one, and returns their outcomes (possibly empty).
  std::vector<WorkerOutcome> poll();

  /// Kills (SIGTERM → \p grace_s → SIGKILL) and discards every outstanding
  /// lease without producing outcomes — the drain path.
  void kill_all(double grace_s);

 private:
  struct Lease;

  WorkerOutcome harvest(Lease& lease);

  WorkerPoolOptions options_;
  std::string feastc_;
  std::uint64_t next_ticket_ = 1;
  std::vector<Lease> leases_;
};

}  // namespace feast::supervise
