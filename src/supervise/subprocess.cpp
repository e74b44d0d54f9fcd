#include "supervise/subprocess.hpp"

#include <fcntl.h>
#include <signal.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace feast::supervise {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Async-signal-safe best effort: open a redirect target in the child.
/// Returns the fd or -1 (the child then reports the failure via exec_errno).
int open_redirect(const char* path) {
  return ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
}

ExitStatus decode_wait_status(int wait_status) {
  ExitStatus status;
  if (WIFEXITED(wait_status)) {
    status.kind = ExitStatus::Kind::Exited;
    status.exit_code = WEXITSTATUS(wait_status);
  } else if (WIFSIGNALED(wait_status)) {
    status.kind = ExitStatus::Kind::Signaled;
    status.term_signal = WTERMSIG(wait_status);
  }
  return status;
}

}  // namespace

std::string ExitStatus::describe() const {
  switch (kind) {
    case Kind::None:
      return "not run";
    case Kind::Exited:
      return (timed_out ? "timeout (exit " : "exit ") + std::to_string(exit_code) +
             (timed_out ? ")" : "");
    case Kind::Signaled: {
      const char* name = ::strsignal(term_signal);
      std::string text = (timed_out ? "timeout (signal " : "signal ") +
                         std::to_string(term_signal);
      if (name != nullptr) text += std::string(" ") + name;
      return text + (timed_out ? ")" : "");
    }
    case Kind::Lost:
      return timed_out ? "timeout (lost: waitpid failed)" : "lost: waitpid failed";
  }
  return "?";
}

Subprocess::~Subprocess() {
  if (spawned() && status_.kind == ExitStatus::Kind::None) {
    ::kill(pid_, SIGKILL);
    reap_blocking();
  }
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(other.pid_), status_(other.status_) {
  other.pid_ = -1;
  other.status_ = ExitStatus{};
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    if (spawned() && status_.kind == ExitStatus::Kind::None) {
      ::kill(pid_, SIGKILL);
      reap_blocking();
    }
    pid_ = other.pid_;
    status_ = other.status_;
    other.pid_ = -1;
    other.status_ = ExitStatus{};
  }
  return *this;
}

Subprocess Subprocess::spawn(const std::vector<std::string>& argv,
                             const SubprocessOptions& options) {
  if (argv.empty()) throw std::runtime_error("subprocess: empty argv");

  // argv for execvp, valid until fork() in this frame.
  std::vector<char*> exec_argv;
  exec_argv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) exec_argv.push_back(const_cast<char*>(arg.c_str()));
  exec_argv.push_back(nullptr);

  // CLOEXEC pipe: a successful exec closes it silently; an exec/setup
  // failure writes errno, so the parent can throw with the real cause
  // instead of inventing an exit-code convention.
  int err_pipe[2];
  if (::pipe(err_pipe) != 0) {
    throw std::runtime_error(std::string("subprocess: pipe: ") + std::strerror(errno));
  }
  ::fcntl(err_pipe[1], F_SETFD, FD_CLOEXEC);

  const pid_t pid = ::fork();
  if (pid < 0) {
    const int saved = errno;
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    throw std::runtime_error(std::string("subprocess: fork: ") + std::strerror(saved));
  }

  if (pid == 0) {
    // Child: async-signal-safe calls only (the parent may be multithreaded).
    ::close(err_pipe[0]);
    int exec_errno = 0;
    if (options.new_process_group && ::setpgid(0, 0) != 0) exec_errno = errno;
    if (!options.stdout_path.empty()) {
      const int fd = open_redirect(options.stdout_path.c_str());
      if (fd < 0 || ::dup2(fd, STDOUT_FILENO) < 0) exec_errno = errno;
      if (fd >= 0) ::close(fd);
    }
    if (exec_errno == 0 && !options.stderr_path.empty()) {
      if (options.stderr_path == "+stdout") {
        if (::dup2(STDOUT_FILENO, STDERR_FILENO) < 0) exec_errno = errno;
      } else {
        const int fd = open_redirect(options.stderr_path.c_str());
        if (fd < 0 || ::dup2(fd, STDERR_FILENO) < 0) exec_errno = errno;
        if (fd >= 0) ::close(fd);
      }
    }
    if (exec_errno == 0 && options.cpu_limit_s > 0) {
      struct rlimit limit;
      limit.rlim_cur = options.cpu_limit_s;
      limit.rlim_max = options.cpu_limit_s + 1;  // SIGXCPU, then hard SIGKILL.
      if (::setrlimit(RLIMIT_CPU, &limit) != 0) exec_errno = errno;
    }
    if (exec_errno == 0 && options.memory_limit_bytes > 0) {
      struct rlimit limit;
      limit.rlim_cur = options.memory_limit_bytes;
      limit.rlim_max = options.memory_limit_bytes;
      if (::setrlimit(RLIMIT_AS, &limit) != 0) exec_errno = errno;
    }
    if (exec_errno == 0) {
      ::execvp(exec_argv[0], exec_argv.data());
      exec_errno = errno;
    }
    (void)!::write(err_pipe[1], &exec_errno, sizeof exec_errno);
    ::_exit(127);
  }

  // Parent.
  ::close(err_pipe[1]);
  int exec_errno = 0;
  ssize_t n;
  do {
    n = ::read(err_pipe[0], &exec_errno, sizeof exec_errno);
  } while (n < 0 && errno == EINTR);
  ::close(err_pipe[0]);
  if (n > 0) {
    // The child never ran the target; reap it and report the real cause.
    int ignored;
    ::waitpid(pid, &ignored, 0);
    throw std::runtime_error("subprocess: cannot exec '" + argv[0] +
                             "': " + std::strerror(exec_errno));
  }

  Subprocess child;
  child.pid_ = pid;
  return child;
}

void Subprocess::reap_blocking() {
  int wait_status = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &wait_status, 0);
  } while (r < 0 && errno == EINTR);
  const bool timed_out = status_.timed_out;
  if (r == pid_) {
    status_ = decode_wait_status(wait_status);
  } else if (r < 0) {
    // ECHILD and friends: the child is unobservable (reaped elsewhere, or
    // SIGCHLD is SIG_IGN in the hosting process).  Record a terminal
    // status so callers never treat this slot as still running.
    status_ = ExitStatus{};
    status_.kind = ExitStatus::Kind::Lost;
  }
  status_.timed_out = timed_out;
}

bool Subprocess::poll() {
  if (!spawned()) return false;
  if (status_.kind != ExitStatus::Kind::None) return true;
  int wait_status = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &wait_status, WNOHANG);
  } while (r < 0 && errno == EINTR);
  if (r == 0) return false;
  const bool timed_out = status_.timed_out;
  if (r == pid_) {
    status_ = decode_wait_status(wait_status);
  } else {
    // waitpid failed (see reap_blocking): synthesize a terminal status
    // instead of reporting "still running" forever.
    status_ = ExitStatus{};
    status_.kind = ExitStatus::Kind::Lost;
  }
  status_.timed_out = timed_out;
  return true;
}

ExitStatus Subprocess::wait() {
  if (spawned() && status_.kind == ExitStatus::Kind::None) reap_blocking();
  return status_;
}

std::optional<ExitStatus> Subprocess::wait_for(double seconds) {
  const auto start = Clock::now();
  while (!poll()) {
    if (seconds_since(start) >= seconds) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return status_;
}

void Subprocess::send_signal(int sig) noexcept {
  if (spawned() && status_.kind == ExitStatus::Kind::None) ::kill(pid_, sig);
}

ExitStatus Subprocess::kill_and_reap(double term_grace_s) {
  if (!spawned()) return status_;
  if (status_.kind != ExitStatus::Kind::None) return status_;
  status_.timed_out = true;
  send_signal(SIGTERM);
  if (wait_for(term_grace_s)) return status_;
  send_signal(SIGKILL);
  reap_blocking();
  return status_;
}

namespace {

// Set from the SIGINT/SIGTERM handler (async-signal-safe by construction).
volatile std::sig_atomic_t g_drain_signal = 0;

void drain_handler(int sig) { g_drain_signal = sig; }

}  // namespace

DrainSignalGuard::DrainSignalGuard() {
  g_drain_signal = 0;
  struct sigaction action {};
  action.sa_handler = drain_handler;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, &old_int_);
  sigaction(SIGTERM, &action, &old_term_);
}

DrainSignalGuard::~DrainSignalGuard() {
  sigaction(SIGINT, &old_int_, nullptr);
  sigaction(SIGTERM, &old_term_, nullptr);
}

int DrainSignalGuard::signal() const noexcept {
  return static_cast<int>(g_drain_signal);
}

std::string self_exe_path() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n <= 0) return "feastc";  // PATH lookup as a last resort.
  buffer[n] = '\0';
  return buffer;
}

ExitStatus run_command(const std::vector<std::string>& argv,
                       const SubprocessOptions& options, double timeout_s,
                       std::string* error) {
  try {
    Subprocess child = Subprocess::spawn(argv, options);
    if (timeout_s <= 0.0) return child.wait();
    if (auto status = child.wait_for(timeout_s)) return *status;
    return child.kill_and_reap(/*term_grace_s=*/2.0);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return ExitStatus{};
  }
}

}  // namespace feast::supervise
