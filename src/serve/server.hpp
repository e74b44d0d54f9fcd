/// \file server.hpp
/// \brief The `feastc serve` daemon: a long-lived, cache-deduplicated
///        evaluation service over HTTP/1.1 + JSON.
///
/// The daemon accepts cell and campaign requests on a TCP socket, folds
/// them onto the existing content-addressed cell cache, and dispatches
/// misses to supervised `feastc campaign exec-cell` worker subprocesses
/// through supervise::Dispatcher (local pool slots and remote leases;
/// shard-result files are the wire format between daemon and worker).  The
/// core loop is a single-threaded poll() reactor — accept → parse → dedup →
/// dispatch → harvest → reply — shaped like a request→batch→worker
/// translation loop:
///
///   * **Dedup/batching** — every request resolves to cell jobs keyed by
///     the cell's canonical cache identity; concurrent requests for the
///     same cell share one computation, and finished cells are memoized
///     for the daemon's lifetime (on top of the on-disk cache).
///   * **Admission control** — a bounded queue of not-yet-running cells;
///     requests that would grow it past --max-queue are shed with 429.
///   * **Fairness** — queued cells drain round-robin across clients
///     (X-Feast-Client header, else anonymous), so one bulk submitter
///     cannot starve interactive users.
///   * **Drain** — SIGTERM/SIGINT stop accepting, give in-flight workers
///     a grace window, checkpoint campaign manifests (resumable exactly
///     like a supervised run) and exit 130.
///
/// Endpoints, protocol and knobs: docs/SERVE.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "serve/http.hpp"

namespace feast::serve {

/// Daemon configuration (CLI flags map 1:1; docs/SERVE.md).
struct ServeOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0: ephemeral, report via Server::port().

  int workers = 2;              ///< Local worker subprocesses (0 = none:
                                ///< remote-only daemon, cells wait for
                                ///< registered `feastc worker` peers).
  int max_queue = 64;           ///< Queued (not running) cells before 429.
  int max_connections = 128;    ///< Concurrent sockets before 503-and-close.
  int max_attempts = 3;         ///< Worker attempts before a cell fails.
  double cell_timeout_s = 0.0;  ///< Watchdog deadline per attempt (0 = off).
  double term_grace_s = 2.0;    ///< SIGTERM → SIGKILL escalation window.
  double drain_grace_s = 10.0;  ///< Drain: wait for in-flight workers.
  double header_timeout_s = 5.0;  ///< Full request must arrive within this
                                  ///< (the slow-loris guard).
  double idle_timeout_s = 60.0;   ///< Keep-alive connections idle longer
                                  ///< than this are closed.
  std::uint64_t memory_limit_mb = 0;  ///< RLIMIT_AS per worker (0 = off).
  unsigned worker_threads = 1;        ///< --threads given to each worker.

  std::string work_dir;    ///< Spec files, manifests, shard scratch.  Required.
  std::string cache_dir;   ///< Cell cache ("" = .feast-cache default).
  bool no_cache = false;
  std::string feastc_path;  ///< Worker binary ("" = /proc/self/exe).

  // ---- Distributed worker fabric (docs/SERVE.md, "Distributed workers").
  double heartbeat_timeout_s = 15.0;  ///< Idle remote worker with no poll
                                      ///< for this long is declared lost.
  double lease_timeout_s = 0.0;  ///< Per-lease deadline before the cell is
                                 ///< requeued uncharged (0 = auto: from
                                 ///< cell_timeout_s + grace, else 60 s).
  int poison_worker_deaths = 2;  ///< Distinct workers dead while holding a
                                 ///< cell before it is quarantined as `net`
                                 ///< cross-worker poison.
  int retry_after_s = 1;  ///< Retry-After hint on 429/503 replies.

  HttpLimits http;          ///< Header/body byte caps.
  std::ostream* log = nullptr;  ///< Progress/diagnostic lines when set.
};

/// Monotonic counters + instantaneous gauges, snapshotted by stats().
struct ServeStatsSnapshot {
  std::uint64_t accepted = 0;      ///< Connections accepted.
  std::uint64_t requests = 0;      ///< Requests fully parsed.
  std::uint64_t parse_errors = 0;  ///< Requests rejected by the parser.
  std::uint64_t shed = 0;          ///< Requests shed by admission control.
  std::uint64_t dedup_hits = 0;    ///< Cells coalesced onto existing jobs.
  std::uint64_t cache_hits = 0;    ///< Cells served from the on-disk cache.
  std::uint64_t dispatched = 0;    ///< Worker leases issued.
  std::uint64_t completed = 0;     ///< Cells that reached a healthy result.
  std::uint64_t failed = 0;        ///< Cells that spent their retry budget.
  std::uint64_t replies = 0;       ///< Responses enqueued.
  std::uint64_t disconnects = 0;   ///< Clients gone before their reply.
  std::uint64_t workers_lost = 0;  ///< Remote workers declared lost.
  std::uint64_t requeued = 0;      ///< Cells requeued uncharged after a
                                   ///< worker loss or lease expiry.
  std::size_t queue_depth = 0;     ///< Cells queued, not yet running.
  std::size_t running = 0;         ///< Leased workers right now (local).
  std::size_t remote_workers = 0;  ///< Registered remote workers right now.
  std::size_t remote_leases = 0;   ///< Cells leased to remote workers now.
  std::size_t connections = 0;     ///< Open sockets right now.
};

/// The daemon.  start() binds, run() serves until stopped or drained.
/// request_stop()/request_drain() are safe from other threads (tests and
/// the bench run the server on a background thread).
class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens.  Throws std::runtime_error on failure.
  void start();

  /// The bound port (valid after start()).
  std::uint16_t port() const noexcept;

  /// Serves until request_stop() (returns 0) or a drain — SIGTERM/SIGINT
  /// or request_drain() (returns 130, the supervised-drain exit code; all
  /// campaign manifests are resumable checkpoints).
  int run();

  void request_stop() noexcept { stop_.store(true, std::memory_order_release); }
  void request_drain() noexcept { drain_.store(true, std::memory_order_release); }

  ServeStatsSnapshot stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_{false};
};

}  // namespace feast::serve
