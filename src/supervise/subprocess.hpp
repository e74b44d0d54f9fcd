/// \file subprocess.hpp
/// \brief Portable fork/exec subprocess wrapper with watchdog semantics.
///
/// `Subprocess` spawns an argv (no shell) with optional stdout/stderr
/// redirection and rlimit caps, and decodes the wait status properly:
/// `WIFEXITED` vs `WIFSIGNALED` are distinct outcomes (`ExitStatus::Kind`),
/// so a worker that was SIGKILLed is never confused with one that exited
/// with an error code — the misclassification the old `std::system`-based
/// torture driver suffered.
///
/// The watchdog pattern lives in `kill_and_reap`: SIGTERM, a bounded grace
/// period, then SIGKILL escalation, always ending in a reaped child (no
/// zombies).  `run_command` composes spawn + deadline + escalation for
/// one-shot callers (the torture driver).  DrainSignalGuard is the
/// SIGINT/SIGTERM hook through which the owners of long-lived children (the
/// supervisor and the serve daemon) learn to drain.
///
/// Fork safety: the parent may own a running thread pool, so the child
/// executes only async-signal-safe calls (dup2/setpgid/setrlimit/execvp/
/// _exit) between fork() and execvp().
#pragma once

#include <signal.h>
#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace feast::supervise {

/// Decoded wait status of a finished child.
struct ExitStatus {
  enum class Kind : std::uint8_t {
    None,      ///< Not finished (or never spawned).
    Exited,    ///< WIFEXITED: normal termination, exit_code valid.
    Signaled,  ///< WIFSIGNALED: killed by a signal, term_signal valid.
    Lost,      ///< waitpid failed (reaped elsewhere / SIGCHLD ignored).
  };

  Kind kind = Kind::None;
  int exit_code = 0;    ///< WEXITSTATUS when kind == Exited.
  int term_signal = 0;  ///< WTERMSIG when kind == Signaled.
  bool timed_out = false;  ///< The caller killed it for missing a deadline.

  bool exited(int code) const noexcept {
    return kind == Kind::Exited && exit_code == code;
  }
  bool success() const noexcept { return exited(0) && !timed_out; }

  /// "exit 3" | "signal 9 (SIGKILL)" | "timeout (signal 9)" | "not run".
  std::string describe() const;
};

/// Spawn-time knobs.
struct SubprocessOptions {
  /// Redirect stdout to this file (truncated); empty inherits the parent's.
  std::string stdout_path;
  /// Redirect stderr: empty inherits, "+stdout" duplicates onto stdout's
  /// target (the common capture-both-into-one-log case).
  std::string stderr_path;
  /// RLIMIT_CPU in seconds (0 = unlimited): a hard cap on runaway spins
  /// that even a wedged watchdog cannot miss.
  unsigned cpu_limit_s = 0;
  /// RLIMIT_AS in bytes (0 = unlimited): allocation failures in the child
  /// surface as bad_alloc/SIGKILL instead of driving the host to OOM.
  std::uint64_t memory_limit_bytes = 0;
  /// setpgid(0, 0) in the child: terminal-generated signals (Ctrl-C's
  /// SIGINT) then reach only the parent, which owns the child's fate — the
  /// supervisor uses this so a drain never looks like worker signal deaths.
  bool new_process_group = false;
};

/// One spawned child process.  Movable, not copyable; the destructor of a
/// still-running child SIGKILLs and reaps it (a supervisor must never leak
/// an unsupervised process).
class Subprocess {
 public:
  Subprocess() = default;
  ~Subprocess();
  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  /// fork+execvp of \p argv (argv[0] is the binary; PATH is searched).
  /// Throws std::runtime_error when the fork fails or the exec fails to
  /// launch (exec failure is reported via a CLOEXEC pipe, so "binary not
  /// found" is a throw here, not a confusing child exit code).
  static Subprocess spawn(const std::vector<std::string>& argv,
                          const SubprocessOptions& options = {});

  pid_t pid() const noexcept { return pid_; }
  bool spawned() const noexcept { return pid_ > 0; }

  /// Non-blocking: reaps and returns true when the child has finished
  /// (status() becomes valid).  False while it is still running.
  bool poll();

  /// Blocks until the child finishes; returns the decoded status.
  ExitStatus wait();

  /// Polls until the child finishes or \p seconds elapse.  Returns the
  /// status on completion, std::nullopt on timeout (child still running).
  std::optional<ExitStatus> wait_for(double seconds);

  /// Sends \p sig to the child (no-op once reaped).
  void send_signal(int sig) noexcept;

  /// Watchdog escalation: SIGTERM, up to \p term_grace_s for a clean exit,
  /// then SIGKILL + blocking reap.  The returned status has timed_out set.
  ExitStatus kill_and_reap(double term_grace_s);

  /// The decoded status once poll()/wait() observed the exit.
  const ExitStatus& status() const noexcept { return status_; }

 private:
  void reap_blocking();

  pid_t pid_ = -1;
  ExitStatus status_;
};

/// Runs \p argv to completion with a wall-clock deadline: spawn, wait up
/// to \p timeout_s (0 = forever), SIGTERM→SIGKILL escalation on overrun.
/// Never throws on spawn failure — that is folded into the returned status
/// (Kind::None) with \p error filled when non-null.
ExitStatus run_command(const std::vector<std::string>& argv,
                       const SubprocessOptions& options, double timeout_s,
                       std::string* error = nullptr);

/// Installs SIGINT/SIGTERM handlers that only record the signal, for the
/// guard's lifetime, and restores the previous dispositions afterwards (the
/// CLI's own handlers, or the default, must win again once the owner has
/// returned).  The supervisor and the serve daemon poll signal() between
/// ticks to start their drain.
class DrainSignalGuard {
 public:
  DrainSignalGuard();
  ~DrainSignalGuard();
  DrainSignalGuard(const DrainSignalGuard&) = delete;
  DrainSignalGuard& operator=(const DrainSignalGuard&) = delete;

  /// The drain signal received so far (0 = none).
  int signal() const noexcept;

 private:
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

/// Absolute path of the running executable (/proc/self/exe); falls back to
/// "feastc" (PATH lookup) when unreadable.  The supervisor and the serve
/// daemon both use this to re-spawn themselves as `exec-cell` workers.
std::string self_exe_path();

}  // namespace feast::supervise
