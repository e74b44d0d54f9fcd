#include "serve/remote_worker.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <thread>

#include "campaign/cache.hpp"
#include "check/fault.hpp"
#include "serve/client.hpp"
#include "supervise/worker_pool.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

namespace feast::serve {

namespace fs = std::filesystem;

namespace {

/// Sleeps \p ms in small slices so a stop request lands promptly.
void stoppable_sleep(double ms, const std::atomic<bool>* stop) {
  using namespace std::chrono;
  auto remaining = duration<double, std::milli>(ms);
  while (remaining.count() > 0.0) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) return;
    const auto slice = remaining.count() > 50.0
                           ? duration<double, std::milli>(50.0)
                           : remaining;
    std::this_thread::sleep_for(slice);
    remaining -= slice;
  }
}

bool stopped(const std::atomic<bool>* stop) {
  return stop != nullptr && stop->load(std::memory_order_acquire);
}

double json_num(const JsonValue& root, const char* key, double fallback) {
  const JsonValue* v = root.find(key);
  return (v != nullptr && v->type == JsonValue::Type::Number) ? v->number
                                                              : fallback;
}

/// One leased cell as handed out by /v1/worker/lease.
struct Lease {
  std::string token;
  std::size_t cell = 0;
  std::string spec;
  std::string inject;
  double timeout_s = 0.0;
  unsigned threads = 1;
};

}  // namespace

int run_remote_worker(const RemoteWorkerOptions& options,
                      const std::atomic<bool>* stop,
                      RemoteWorkerStats* stats) {
  RemoteWorkerStats local_stats;
  RemoteWorkerStats& st = (stats != nullptr) ? *stats : local_stats;
  const std::string name =
      options.name.empty() ? "worker-" + std::to_string(::getpid())
                           : options.name;
  if (options.work_dir.empty()) {
    if (options.log != nullptr) *options.log << "worker: --work-dir required\n";
    return 1;
  }
  fs::create_directories(options.work_dir);
  const std::string feastc = options.feastc_path.empty()
                                 ? supervise::self_exe_path()
                                 : options.feastc_path;
  const auto log_line = [&](const std::string& line) {
    if (options.log != nullptr) {
      *options.log << "worker " << name << ": " << line << std::endl;
    }
  };

  std::string worker_id;
  int registrations = 0;
  double poll_ms = static_cast<double>(options.poll_ms);

  // Registers (or re-registers) with a deterministic backoff between
  // attempts; returns false when the reconnect budget is spent.
  const auto register_self = [&]() -> bool {
    for (int attempt = 1;; ++attempt) {
      if (stopped(stop)) return false;
      if (options.max_reconnects > 0 && registrations > 0 &&
          static_cast<int>(st.reconnects) >= options.max_reconnects) {
        log_line("reconnect budget spent, giving up");
        return false;
      }
      const std::string body = "{\"name\": \"" + json_escape(name) +
                               "\", \"slots\": " +
                               std::to_string(options.slots) + "}";
      const HttpReply reply =
          http_request(options.host, options.port, "POST",
                       "/v1/worker/register", body, name,
                       options.request_timeout_s);
      if (reply.status == 200) {
        try {
          const JsonValue root = parse_json(reply.body);
          worker_id = root.string_or("worker");
          poll_ms = json_num(root, "poll_ms", poll_ms);
        } catch (const std::exception&) {
          worker_id.clear();
        }
        if (!worker_id.empty()) {
          if (registrations > 0) ++st.reconnects;
          ++registrations;
          log_line("registered as " + worker_id);
          return true;
        }
      }
      if (reply.status == 503 || reply.status == 429) {
        // Draining or overloaded: honor the hint, keep trying.
        stoppable_sleep(reply.retry_after_s > 0 ? reply.retry_after_s * 1000.0
                                                : poll_ms,
                        stop);
        continue;
      }
      if (reply.status >= 400) {
        log_line("registration rejected (" + std::to_string(reply.status) +
                 "), giving up");
        return false;
      }
      // Transport failure: the daemon is down or partitioned away.  The
      // delay is replayable — same (seed, attempt) → same sleep.
      const double delay =
          supervise::backoff_delay_ms(options.backoff, /*cell_index=*/0,
                                      attempt);
      log_line("connect failed (" + reply.error + "), retrying in " +
               std::to_string(static_cast<int>(delay)) + " ms");
      stoppable_sleep(delay, stop);
      if (options.max_reconnects > 0 &&
          attempt >= options.max_reconnects && registrations == 0) {
        log_line("daemon unreachable, giving up");
        return false;
      }
    }
  };

  // Executes one leased cell through the same exec-cell argv and attempt
  // decoder as the local WorkerPool.  A healthy result ships the shard
  // file's bytes unparsed: the daemon classifies torn frames as `net`.
  const auto execute = [&](const Lease& lease) -> supervise::AttemptResult {
    const std::string spec_hash = hash_hex(fnv1a64(lease.spec));
    const fs::path spec_path =
        fs::path(options.work_dir) / (spec_hash + ".spec");
    std::string error;
    if (!atomic_write_file(spec_path, lease.spec, &error)) {
      return {supervise::ErrorKind::Io, "cannot write spec file: " + error, {}};
    }
    const fs::path stem = fs::path(options.work_dir) /
                          ("lease-" + lease.token + ".cell-" +
                           std::to_string(lease.cell));
    const std::string result_path = stem.string() + ".result";
    const std::string log_path = stem.string() + ".log";
    std::error_code ec;
    fs::remove(result_path, ec);

    supervise::SubprocessOptions sub;
    sub.stdout_path = log_path;
    sub.stderr_path = "+stdout";
    sub.new_process_group = true;
    double timeout_s = lease.timeout_s;
    if (options.subprocess_timeout_s > 0.0 &&
        (timeout_s <= 0.0 || options.subprocess_timeout_s < timeout_s)) {
      timeout_s = options.subprocess_timeout_s;
    }
    std::string spawn_error;
    const supervise::ExitStatus status = supervise::run_command(
        supervise::exec_cell_argv({feastc, spec_path.string(), lease.cell,
                                   result_path, lease.threads, options.cache_dir,
                                   options.no_cache, lease.inject, ""}),
        sub, timeout_s, &spawn_error);
    if (status.kind == supervise::ExitStatus::Kind::None) {
      return {supervise::ErrorKind::Io, "spawn failed: " + spawn_error, {}};
    }
    supervise::AttemptResult report = supervise::decode_attempt(
        status, timeout_s, /*memory_capped=*/false, result_path, log_path);
    if (report.ok()) {
      fs::remove(result_path, ec);
      fs::remove(log_path, ec);
    }
    return report;
  };

  if (!register_self()) return stopped(stop) ? 0 : 1;

  while (!stopped(stop)) {
    if (check::fire(check::FaultSite::WorkerReconnect)) {
      // Injected registration loss: forget who we are mid-loop, exactly as
      // if the daemon restarted under us.
      log_line("injected fault (worker-reconnect): dropping registration");
      worker_id.clear();
      if (!register_self()) return stopped(stop) ? 0 : 1;
      continue;
    }
    const HttpReply reply = http_request(
        options.host, options.port, "POST", "/v1/worker/lease",
        "{\"worker\": \"" + json_escape(worker_id) + "\"}", name,
        options.request_timeout_s);
    if (!reply.ok()) {
      log_line("lease poll failed (" + reply.error + "), reconnecting");
      if (!register_self()) return stopped(stop) ? 0 : 1;
      continue;
    }
    if (reply.status == 404) {
      // The daemon forgot us (restart, heartbeat sweep): new incarnation.
      if (!register_self()) return stopped(stop) ? 0 : 1;
      continue;
    }
    if (reply.status == 503 || reply.status == 429) {
      stoppable_sleep(reply.retry_after_s > 0 ? reply.retry_after_s * 1000.0
                                              : poll_ms,
                      stop);
      continue;
    }
    if (reply.status != 200) {
      log_line("lease poll rejected (" + std::to_string(reply.status) + ")");
      stoppable_sleep(poll_ms, stop);
      continue;
    }
    Lease lease;
    try {
      const JsonValue root = parse_json(reply.body);
      if (const JsonValue* idle = root.find("idle");
          idle != nullptr && idle->type == JsonValue::Type::Bool &&
          idle->boolean) {
        stoppable_sleep(poll_ms, stop);
        continue;
      }
      lease.token = root.string_or("lease");
      lease.spec = root.string_or("spec");
      lease.inject = root.string_or("inject");
      lease.cell = static_cast<std::size_t>(json_num(root, "cell", 0.0));
      lease.timeout_s = json_num(root, "timeout_s", 0.0);
      lease.threads = static_cast<unsigned>(
          json_num(root, "threads", static_cast<double>(options.threads)));
    } catch (const std::exception& e) {
      log_line(std::string("malformed lease body: ") + e.what());
      stoppable_sleep(poll_ms, stop);
      continue;
    }
    if (lease.token.empty() || lease.spec.empty()) {
      stoppable_sleep(poll_ms, stop);
      continue;
    }
    ++st.leases;

    if (lease.inject == "worker-die" ||
        lease.inject.rfind("worker-die@", 0) == 0) {
      // The poison mechanism: this worker dies *holding* the lease, so the
      // daemon's failure detector — not a polite error report — must notice.
      log_line("injected worker-die on cell " + std::to_string(lease.cell));
      if (options.allow_process_exit) std::_Exit(check::kFaultExitCode);
      return check::kFaultExitCode;
    }

    const supervise::AttemptResult report = execute(lease);
    std::string body = "{\"worker\": \"" + json_escape(worker_id) +
                       "\", \"lease\": \"" + json_escape(lease.token) + "\"";
    if (report.ok()) {
      body += ", \"ok\": true, \"shard\": \"" + json_escape(report.result) + "\"";
      ++st.cells_ok;
    } else {
      const std::string kind = supervise::to_string(report.kind);
      body += ", \"ok\": false, \"kind\": \"" + kind + "\", \"error\": \"" +
              json_escape(report.error) + "\"";
      ++st.cells_failed;
      log_line("cell " + std::to_string(lease.cell) + " failed [" + kind + "] " +
               report.error);
    }
    body += "}";
    const int posts = check::fire(check::FaultSite::WorkerResultDup) ? 2 : 1;
    bool delivered = false;
    for (int i = 0; i < posts; ++i) {
      const HttpReply post = http_request(options.host, options.port, "POST",
                                          "/v1/worker/result", body, name,
                                          options.request_timeout_s);
      if (post.ok()) {
        delivered = true;
        // 410 means the daemon expired the lease and moved on — the duplicate
        // or late result is dropped by design, nothing to do here.
      }
    }
    if (!delivered) {
      // The daemon will requeue the cell when the lease deadline passes;
      // all we can do is come back with a fresh registration.
      log_line("result delivery failed, reconnecting");
      if (!register_self()) return stopped(stop) ? 0 : 1;
    }
    if (options.max_cells > 0 &&
        st.cells_ok + st.cells_failed >= options.max_cells) {
      log_line("max-cells reached, exiting");
      return 0;
    }
  }
  return 0;
}

}  // namespace feast::serve
