#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>

#include <array>
#include <chrono>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "check/fault.hpp"
#include "obs/obs.hpp"
#include "supervise/dispatcher.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"
#include "util/net.hpp"

namespace feast::serve {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

// ------------------------------------------------------------ small helpers

std::string error_body(const std::string& message, const std::string& kind = "") {
  std::string out = "{\"error\": \"" + json_escape(message) + "\"";
  if (!kind.empty()) out += ", \"error_kind\": \"" + json_escape(kind) + "\"";
  out += "}\n";
  return out;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Closes the \p span that \p sink has had open since \p start_ns, if any.
void end_span(obs::Sink*& sink, obs::Span span, std::uint64_t start_ns) {
  if (sink == nullptr) return;
  obs::detail::record_span(*sink, span, start_ns);
  sink = nullptr;
}

// --------------------------------------------------------------- the model

/// One open client connection.
struct Conn {
  net::Socket sock;
  std::uint64_t id = 0;
  HttpRequestParser parser;
  std::string outbox;
  std::size_t out_off = 0;
  bool close_after_write = false;
  bool waiting = false;     ///< Request handled, reply pending on a job.
  bool slow_loris = false;  ///< Fault-injected: reject with 408 on first bytes.
  bool has_partial = false; ///< A request is arriving but incomplete.
  bool doomed = false;      ///< Torn down; erased at end of tick (never
                            ///< mid-callback — callers hold references).
  Clock::time_point last_activity = Clock::now();
  Clock::time_point request_start = Clock::now();  ///< First byte of request.
  std::string client = "anon";
  obs::Sink* sink = nullptr;  ///< Captured per request for the request span.
  std::uint64_t span_start_ns = 0;

  explicit Conn(HttpLimits limits) : parser(limits) {}
};

/// A campaign waiting on one cell job: which campaign, which row.
struct CampaignLink {
  std::uint64_t campaign = 0;
  std::size_t pos = 0;
};

/// One deduplicated unit of work: a cell, keyed by its canonical cache
/// identity (all requests for the same bytes share this object).
struct CellJob {
  enum class State { Pending, Done, Failed };

  std::string key;
  std::size_t cell_index = 0;
  std::string canonical;
  std::string inject;
  State state = State::Pending;          ///< Pending: the dispatcher's unit.
  int attempts = 0;                      ///< Charged attempts once terminal.
  supervise::ShardResult shard;          ///< Valid once Done.
  supervise::ErrorKind kind = supervise::ErrorKind::None;
  std::string error;                     ///< Valid once Failed.
  std::vector<std::uint64_t> waiters;    ///< Conns wanting a /v1/cell reply.
  std::vector<CampaignLink> campaigns;   ///< Campaigns wanting this cell.
  obs::Sink* sink = nullptr;             ///< Dispatch span: enqueue → terminal.
  std::uint64_t span_start_ns = 0;
  obs::Sink* lease_sink = nullptr;       ///< serve/lease span: grant → settle.
  std::uint64_t lease_span_start_ns = 0;

  bool terminal() const noexcept {
    return state == State::Done || state == State::Failed;
  }
};

/// One registered remote worker (a `feastc worker` process on some host).
struct RemoteWorker {
  std::string id;    ///< Daemon-assigned token; the worker echoes it back.
  std::string name;  ///< Operator-chosen identity; poison counts names.
  int slots = 1;
  Clock::time_point last_seen = Clock::now();
  std::uint64_t cells_ok = 0;
  /// Failure tallies indexed by supervise::ErrorKind (None..Net).
  std::array<std::uint64_t, 7> errors{};
};

/// One submitted campaign, resolved cell by cell.
struct CampaignJob {
  std::uint64_t id = 0;
  CampaignSpec spec;
  CampaignResult result;
  std::string manifest_path;
  std::size_t outstanding = 0;  ///< Cells not yet terminal.
  std::vector<std::uint64_t> waiters;
  Clock::time_point started = Clock::now();
};

// Lifetime bounds on the daemon's memo maps.  Terminal cell jobs and spec
// files are cheap to recreate (the persistent result cache still answers
// repeats), so a long-lived daemon evicts the oldest beyond these caps
// instead of growing without bound.
constexpr std::size_t kMaxTerminalMemo = 4096;
constexpr std::size_t kMaxSpecMemo = 512;

// Serve retries a failed attempt at once: a request is waiting on it.
constexpr supervise::BackoffPolicy kNoBackoff{0.0, 0.0, 0};

}  // namespace

// ------------------------------------------------------------------- Impl

struct Server::Impl {
  explicit Impl(ServeOptions options, Server& owner)
      : opt(std::move(options)), server(owner) {}

  ServeOptions opt;
  Server& server;
  net::TcpListener listener;
  std::optional<ResultCache> cache;
  /// The fair queue (one client per X-Feast-Client), the local pool and
  /// the remote lease table.
  std::optional<supervise::Dispatcher> dispatcher;

  std::map<std::uint64_t, Conn> conns;
  std::map<std::string, CellJob> jobs;  ///< Keyed by dedup key; Done memoized.
  std::map<std::uint64_t, CampaignJob> campaigns;
  std::map<std::string, std::uint64_t> campaign_by_hash;  ///< In-flight only.
  std::map<std::string, std::string> spec_paths;          ///< spec hash → file.
  std::deque<std::string> memo_order;  ///< Terminal job keys, oldest first.
  std::deque<std::string> spec_order;  ///< Spec memo keys, oldest first.
  std::deque<std::uint64_t> pump_queue;  ///< Conns with pipelined bytes to
                                         ///< re-parse after their reply.

  // The remote worker fabric: registered `feastc worker` peers by id, and
  // the name → id map that makes a re-registration replace (and implicitly
  // declare dead) the previous incarnation of the same name.
  std::map<std::string, RemoteWorker> workers;
  std::map<std::string, std::string> worker_ids;  ///< name → id.

  std::uint64_t next_conn_id = 1;
  std::uint64_t next_campaign_id = 1;
  std::uint64_t next_worker_id = 1;
  bool draining = false;

  // Monotonic counters + gauges (atomic: stats() reads cross-thread).
  std::atomic<std::uint64_t> accepted{0}, requests{0}, parse_errors{0}, shed{0},
      dedup_hits{0}, cache_hits{0}, dispatched{0}, completed{0}, failed{0},
      replies{0}, disconnects{0}, workers_lost{0}, requeued{0};
  std::atomic<std::size_t> gauge_queue{0}, gauge_running{0}, gauge_conns{0},
      gauge_workers{0}, gauge_leases{0};

  // ------------------------------------------------------------- plumbing
  void log_line(const std::string& line) {
    if (opt.log != nullptr) *opt.log << "serve: " << line << std::endl;
  }

  /// Writes (once) the canonical spec file workers re-parse; returns its path.
  std::string spec_file_for(const std::string& spec_hash,
                            const std::string& canonical_text) {
    auto it = spec_paths.find(spec_hash);
    if (it != spec_paths.end()) return it->second;
    const std::string path =
        (fs::path(opt.work_dir) / (spec_hash + ".spec")).string();
    std::string error;
    if (!atomic_write_file(path, canonical_text, &error)) {
      throw std::runtime_error("serve: cannot write spec file: " + error);
    }
    spec_paths.emplace(spec_hash, path);
    spec_order.push_back(spec_hash);
    // Only the memo is bounded; the file itself stays on disk, since queued
    // jobs hold their own copies of the path.  An evicted spec is simply
    // rewritten on its next submission.
    while (spec_order.size() > kMaxSpecMemo) {
      spec_paths.erase(spec_order.front());
      spec_order.pop_front();
    }
    return path;
  }

  // --------------------------------------------------------------- replies

  /// Enqueues a response on \p conn_id's outbox.  Honors the injected
  /// client-disconnect fault (the connection is torn down instead) and
  /// tolerates the client having already gone away.
  void enqueue_reply(std::uint64_t conn_id, int status,
                     const std::string& content_type, const std::string& body,
                     const std::vector<std::pair<std::string, std::string>>&
                         extra_headers = {}) {
    const auto it = conns.find(conn_id);
    if (it == conns.end() || it->second.doomed) {
      disconnects.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::ServeDisconnect);
      return;
    }
    Conn& conn = it->second;
    if (check::fire(check::FaultSite::ServeClientDisconnect)) {
      // The armed occurrence simulates the client hanging up right before
      // its reply.  Erasing the Conn here would free memory our synchronous
      // callers (read_conn, the poll loop) still hold references into, so
      // only mark it doomed; the reactor reaps it at the end of the tick.
      disconnects.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::ServeDisconnect);
      conn.doomed = true;
      conn.waiting = false;
      conn.has_partial = false;
      conn.outbox.clear();
      conn.out_off = 0;
      ::shutdown(conn.sock.fd(), SHUT_RDWR);
      return;
    }
    conn.outbox += render_http_response(status, content_type, body,
                                        !conn.close_after_write, extra_headers);
    replies.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::ServeReply);
    end_span(conn.sink, obs::Span::ServeRequest, conn.span_start_ns);
    conn.waiting = false;
    conn.parser.reset();
    // Bytes pipelined behind this reply may already hold a complete next
    // request; the pump drains them (worklist, not recursion).
    if (!conn.close_after_write) pump_queue.push_back(conn.id);
    flush_conn(conn);
  }

  void reply_json(std::uint64_t conn_id, int status, const std::string& body) {
    enqueue_reply(conn_id, status, "application/json", body);
  }

  /// 429/503 admission replies: same as reply_json plus the Retry-After
  /// hint that `feastc submit` and remote workers fold into their backoff.
  void reply_busy(std::uint64_t conn_id, int status, const std::string& body) {
    enqueue_reply(conn_id, status, "application/json", body,
                  {{"Retry-After", std::to_string(opt.retry_after_s)}});
  }

  /// Answers \p conn_id with terminal \p job: 200 and its stats when Done,
  /// else 500 carrying the quarantine taxonomy.
  void reply_cell(std::uint64_t conn_id, const CellJob& job) {
    if (job.state != CellJob::State::Done) {
      reply_json(conn_id, 500, error_body(job.error, supervise::to_string(job.kind)));
      return;
    }
    std::ostringstream out;
    out << "{\"cell\": " << job.cell_index << ", \"state\": \""
        << (job.shard.from_cache ? "cached" : "computed")
        << "\", \"wall_ms\": " << json_number(job.shard.wall_ms)
        << ", \"attempts\": " << job.attempts << ",\n     ";
    write_stats_json(out, job.shard.stats);
    out << "}\n";
    reply_json(conn_id, 200, out.str());
  }

  /// Builds the status-JSON view of one campaign job.
  Manifest manifest_view(CampaignJob& campaign) {
    refresh_campaign_totals(campaign.result,
                            seconds_since(campaign.started) * 1000.0);
    Manifest manifest;
    manifest.version = 2;
    manifest.name = campaign.result.name;
    manifest.spec_hash_hex = campaign.result.spec_hash_hex;
    manifest.spec_text = campaign.spec.canonical_text();
    manifest.samples = campaign.result.samples;
    manifest.cells = campaign.result.cells;
    manifest.wall_ms = campaign.result.wall_ms;
    manifest.computed = campaign.result.computed;
    manifest.cached = campaign.result.cached;
    manifest.failed = campaign.result.failed;
    manifest.quarantined = campaign.result.quarantined;
    return manifest;
  }

  void checkpoint(CampaignJob& campaign) {
    refresh_campaign_totals(campaign.result,
                            seconds_since(campaign.started) * 1000.0);
    checkpoint_manifest_file(campaign.manifest_path, campaign.spec,
                             campaign.result);
  }

  /// Replies to a finished campaign's waiters and retires the job.
  void finish_campaign(std::uint64_t campaign_id) {
    const auto it = campaigns.find(campaign_id);
    if (it == campaigns.end()) return;
    CampaignJob& campaign = it->second;
    checkpoint(campaign);
    std::ostringstream body;
    write_manifest_status_json(body, manifest_view(campaign));
    for (const std::uint64_t waiter : campaign.waiters) {
      reply_json(waiter, 200, body.str());
    }
    log_line("campaign " + campaign.result.spec_hash_hex + " finished (" +
             std::to_string(campaign.result.computed) + " computed, " +
             std::to_string(campaign.result.cached) + " cached, " +
             std::to_string(campaign.result.quarantined) + " quarantined)");
    // Injected campaigns never enter the share map; only drop the entry
    // when it actually points at this campaign.
    if (const auto hit = campaign_by_hash.find(campaign.result.spec_hash_hex);
        hit != campaign_by_hash.end() && hit->second == campaign_id) {
      campaign_by_hash.erase(hit);
    }
    campaigns.erase(it);
  }

  /// Records \p job reaching a terminal state and evicts the oldest
  /// memoized terminal jobs beyond the cap — never the one just noted,
  /// whose reference callers still hold.  Evicted results are not lost:
  /// the persistent cell cache still answers repeats.
  void note_terminal(const CellJob& job) {
    memo_order.push_back(job.key);
    while (memo_order.size() > kMaxTerminalMemo) {
      const std::string key = std::move(memo_order.front());
      memo_order.pop_front();
      if (key == job.key) continue;
      const auto it = jobs.find(key);
      if (it != jobs.end() && it->second.terminal() &&
          it->second.waiters.empty() && it->second.campaigns.empty()) {
        jobs.erase(it);
      }
    }
  }

  /// Applies a terminal cell job to every waiter: single-cell replies and
  /// campaign rows, checkpointing and finishing campaigns as they complete.
  void settle_job(CellJob& job) {
    end_span(job.sink, obs::Span::ServeDispatch, job.span_start_ns);
    for (const std::uint64_t waiter : job.waiters) reply_cell(waiter, job);
    job.waiters.clear();
    std::vector<CampaignLink> links;
    links.swap(job.campaigns);
    for (const CampaignLink& link : links) {
      const auto it = campaigns.find(link.campaign);
      if (it == campaigns.end()) continue;
      CampaignJob& campaign = it->second;
      CellOutcome& cell = campaign.result.cells[link.pos];
      apply_job_to_cell(job, cell);
      checkpoint(campaign);
      if (--campaign.outstanding == 0) finish_campaign(link.campaign);
    }
    note_terminal(job);
  }

  static void apply_job_to_cell(const CellJob& job, CellOutcome& cell) {
    if (job.state == CellJob::State::Done) {
      supervise::record_success(cell, job.shard, job.attempts);
    } else {
      supervise::record_quarantine(cell, job.attempts, job.kind, job.error);
    }
  }

  // ------------------------------------------------------------ dispatching

  /// One dispatcher tick: harvest, spawn, expire.  A lost lease reported
  /// here is one whose deadline passed, which takes its worker down.
  void step() {
    const std::uint64_t spawned = dispatcher->spawned();
    for (supervise::Dispatcher::Event& event : dispatcher->step()) {
      if (!event.worker.empty()) drop_worker(event.worker, "lease deadline missed");
      on_event(std::move(event));
    }
    if (const std::uint64_t n = dispatcher->spawned() - spawned; n > 0) {
      dispatched.fetch_add(n, std::memory_order_relaxed);
      obs::count(obs::Counter::ServeDispatch, n);
    }
  }

  void on_events(std::vector<supervise::Dispatcher::Event> events) {
    for (supervise::Dispatcher::Event& event : events) on_event(std::move(event));
  }

  /// Applies what the dispatcher decided for a job: settle it Done or
  /// Failed, log an uncharged requeue, or (drain) turn it away.  Retries
  /// need nothing: serve's zero backoff makes them due at once.
  void on_event(supervise::Dispatcher::Event event) {
    using Kind = supervise::Dispatcher::Event::Kind;
    if (!event.worker.empty()) requeued.fetch_add(1, std::memory_order_relaxed);
    CellJob& job = jobs.at(event.key);  // Pending jobs are never evicted.
    end_span(job.lease_sink, obs::Span::ServeLease, job.lease_span_start_ns);
    const std::string cell = "cell " + std::to_string(job.cell_index);
    switch (event.kind) {
      case Kind::Done:
        job.state = CellJob::State::Done;
        job.attempts = event.attempts;
        job.shard = std::move(event.shard);
        completed.fetch_add(1, std::memory_order_relaxed);
        settle_job(job);
        break;
      case Kind::Quarantined:
        log_line(cell + " quarantined after " + std::to_string(event.attempts) +
                 " attempts [" + supervise::to_string(event.error_kind) + "] — " +
                 event.error);
        job.state = CellJob::State::Failed;
        job.attempts = event.attempts;
        job.kind = event.error_kind;
        job.error = std::move(event.error);
        failed.fetch_add(1, std::memory_order_relaxed);
        settle_job(job);
        break;
      case Kind::Requeued:
        log_line(cell + " requeued uncharged (" + event.error + ")");
        break;
      case Kind::Retry:
        break;
      case Kind::Released:  // Drain: the campaign rows stay Pending.
        turn_away(job.waiters);
        job.campaigns.clear();
        break;
    }
  }

  void turn_away(std::vector<std::uint64_t>& waiters) {
    for (const std::uint64_t waiter : waiters) {
      reply_json(waiter, 503, error_body("draining: resubmit after restart"));
    }
    waiters.clear();
  }

  // ------------------------------------------------------ remote worker fabric

  /// Deregisters \p worker_id (a no-op once it is gone) and requeues every
  /// cell it held.  By value: callers may pass a reference into the
  /// registry this erases.
  void drop_worker(std::string worker_id, const std::string& why) {
    const auto it = workers.find(worker_id);
    if (it == workers.end()) return;
    const std::string name = it->second.name;
    const auto name_it = worker_ids.find(name);
    if (name_it != worker_ids.end() && name_it->second == worker_id) {
      worker_ids.erase(name_it);
    }
    workers.erase(it);
    workers_lost.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::ServeWorkerLost);
    log_line("worker '" + name + "' lost (" + why + ")");
    on_events(dispatcher->lost(worker_id, why));
  }

  /// Idle workers that stopped polling are dropped on heartbeat age (a
  /// worker holding a lease is judged by the lease deadline instead).
  void sweep_heartbeats() {
    std::vector<std::string> lost;
    for (const auto& [worker_id, worker] : workers) {
      if (dispatcher->leases(worker_id) == 0 &&
          seconds_since(worker.last_seen) > opt.heartbeat_timeout_s) {
        lost.push_back(worker_id);
      }
    }
    for (const std::string& worker_id : lost) {
      drop_worker(worker_id, "heartbeat missed");
    }
  }

  // ------------------------------------------------------- request handling

  /// Resolves one cell of one spec to a job, creating/attaching as needed.
  /// Returns the terminal job if it can be answered right now (cache hit or
  /// memoized), nullptr when the caller was attached as a waiter, or throws
  /// AdmissionShed when the queue is full.
  struct AdmissionShed {};

  CellJob& resolve_cell(const std::string& spec_hash, const std::string& spec_path,
                        const PlannedCell& cell, const std::string& inject,
                        const std::string& client) {
    std::string key = cell.canonical.empty()
                          ? spec_hash + ":" + std::to_string(cell.index)
                          : cell.canonical;
    if (!inject.empty()) key += "#inject=" + inject;
    auto it = jobs.find(key);
    if (it != jobs.end() && it->second.state == CellJob::State::Failed) {
      // A memoized failure is a verdict on past attempts, not on the bytes:
      // a resubmission evicts it and retries with a fresh budget.  (This
      // also keeps the campaign admission pre-count honest — it already
      // treats Failed jobs as new work.)
      jobs.erase(it);
      it = jobs.end();
    }
    if (it != jobs.end()) {
      dedup_hits.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::ServeDedup);
      return it->second;
    }
    if (dispatcher->queued() >= static_cast<std::size_t>(opt.max_queue)) {
      throw AdmissionShed{};
    }
    CellJob& job = jobs[key];
    job.key = key;
    job.cell_index = cell.index;
    job.canonical = cell.canonical;
    job.inject = inject;
    if ((job.sink = obs::active()) != nullptr) {
      job.span_start_ns = obs::detail::now_ns(*job.sink);
    }
    // The cache consult: a stored record resolves the job without a worker.
    // Inject jobs skip it — their point is to exercise the worker path.
    if (cache.has_value() && !cell.canonical.empty() && inject.empty()) {
      CellStats stats;
      if (cache->lookup(cell.canonical, stats)) {
        job.state = CellJob::State::Done;
        job.shard.cell_index = cell.index;
        job.shard.from_cache = true;
        job.shard.stats = stats;
        cache_hits.fetch_add(1, std::memory_order_relaxed);
        obs::count(obs::Counter::CacheHit);
        end_span(job.sink, obs::Span::ServeDispatch, job.span_start_ns);
        note_terminal(job);
        return job;
      }
      obs::count(obs::Counter::CacheMiss);
    }
    dispatcher->add({key, client, spec_path, cell.index, inject, ""});
    return job;
  }

  /// Parses a request's spec text and plans its cells; a bad spec is
  /// answered 400 and returns false.
  bool parse_spec(Conn& conn, const std::string& text, CampaignSpec& spec,
                  std::vector<Strategy>& strategies,
                  std::vector<PlannedCell>& plan) {
    try {
      std::istringstream in(text);
      spec = CampaignSpec::parse(in);
      for (const std::string& s : spec.strategies) {
        strategies.push_back(parse_strategy_spec(s));
      }
      plan = plan_cells(spec, strategies);
      return true;
    } catch (const std::exception& e) {
      reply_json(conn.id, 400, error_body(std::string("bad spec: ") + e.what()));
      return false;
    }
  }

  void handle_cell_request(Conn& conn, const JsonValue& root) {
    const JsonValue* spec_value = root.find("spec");
    const JsonValue* cell_value = root.find("cell");
    if (spec_value == nullptr || spec_value->type != JsonValue::Type::String ||
        cell_value == nullptr || cell_value->type != JsonValue::Type::Number) {
      reply_json(conn.id, 400,
                 error_body("body wants {\"spec\": \"...\", \"cell\": N}"));
      return;
    }
    std::string inject;
    if (const JsonValue* inject_value = root.find("inject")) {
      try {
        if (inject_value->type != JsonValue::Type::String) {
          throw std::invalid_argument("inject wants a string");
        }
        supervise::validate_inject(inject_value->string, /*allow_worker_die=*/true);
      } catch (const std::invalid_argument& e) {
        reply_json(conn.id, 400, error_body(e.what()));
        return;
      }
      inject = inject_value->string;
    }

    CampaignSpec spec;
    std::vector<Strategy> strategies;
    std::vector<PlannedCell> plan;
    if (!parse_spec(conn, spec_value->string, spec, strategies, plan)) return;
    // Validate in double space before any cast: an untrusted value like
    // 1e300 or 0.5 must never reach the double→size_t conversion (UB when
    // out of range, silent truncation when fractional).
    const double cell_number = cell_value->number;
    if (!std::isfinite(cell_number) || cell_number < 0.0 ||
        cell_number != std::floor(cell_number) ||
        cell_number >= static_cast<double>(plan.size())) {
      reply_json(conn.id, 400,
                 error_body("cell out of range (campaign has " +
                            std::to_string(plan.size()) + " cells)"));
      return;
    }
    const std::size_t index = static_cast<std::size_t>(cell_number);
    const std::string spec_hash = hash_hex(fnv1a64(spec.canonical_text()));
    const std::string spec_path = spec_file_for(spec_hash, spec.canonical_text());

    try {
      CellJob& job =
          resolve_cell(spec_hash, spec_path, plan[index], inject, conn.client);
      if (job.terminal()) {
        reply_cell(conn.id, job);
      } else {
        job.waiters.push_back(conn.id);
        conn.waiting = true;
      }
    } catch (const AdmissionShed&) {
      shed.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::ServeShed);
      reply_busy(conn.id, 429, error_body("queue full, retry later"));
    }
  }

  void handle_campaign_request(Conn& conn, const JsonValue& root) {
    const JsonValue* spec_value = root.find("spec");
    if (spec_value == nullptr || spec_value->type != JsonValue::Type::String) {
      reply_json(conn.id, 400, error_body("body wants {\"spec\": \"...\"}"));
      return;
    }
    std::map<std::size_t, std::string> injects;
    if (const JsonValue* inject_value = root.find("inject")) {
      try {
        if (inject_value->type != JsonValue::Type::String) {
          throw std::invalid_argument("inject wants a string");
        }
        injects = supervise::parse_inject_spec(inject_value->string,
                                               /*allow_worker_die=*/true);
      } catch (const std::invalid_argument& e) {
        reply_json(conn.id, 400, error_body(e.what()));
        return;
      }
    }
    CampaignSpec spec;
    std::vector<Strategy> strategies;
    std::vector<PlannedCell> plan;
    if (!parse_spec(conn, spec_value->string, spec, strategies, plan)) return;
    const std::string spec_hash = hash_hex(fnv1a64(spec.canonical_text()));

    // A campaign of the same spec already in flight: share it.  Injected
    // campaigns are never shared — their point is the fault, not the result.
    if (const auto it = campaign_by_hash.find(spec_hash);
        injects.empty() && it != campaign_by_hash.end()) {
      dedup_hits.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::ServeDedup);
      campaigns[it->second].waiters.push_back(conn.id);
      conn.waiting = true;
      return;
    }

    const std::string spec_path = spec_file_for(spec_hash, spec.canonical_text());
    CampaignJob campaign;
    campaign.id = next_campaign_id++;
    campaign.spec = spec;
    campaign.manifest_path =
        (fs::path(opt.work_dir) / (spec_hash + ".manifest.json")).string();
    campaign.result.name = spec.name;
    campaign.result.spec_hash_hex = spec_hash;
    campaign.result.samples = spec.batch.samples;
    campaign.result.cells = plan_outcomes(spec, strategies, plan);
    // Resume semantics across daemon restarts: finished cells of a previous
    // submission of this spec are restored from its manifest checkpoint.
    restore_finished_cells(campaign.manifest_path, spec_hash,
                           campaign.result.cells);

    // Count how many *new* jobs this submission would enqueue, so admission
    // control sheds the whole request before creating any state.
    std::size_t new_jobs = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (campaign.result.cells[i].state != CellState::Pending) continue;
      std::string key = plan[i].canonical.empty()
                            ? spec_hash + ":" + std::to_string(i)
                            : plan[i].canonical;
      if (const auto inj = injects.find(i); inj != injects.end()) {
        key += "#inject=" + inj->second;
      }
      const auto it = jobs.find(key);
      if (it == jobs.end() || it->second.state == CellJob::State::Failed) {
        ++new_jobs;
      }
    }
    if (dispatcher->queued() + new_jobs > static_cast<std::size_t>(opt.max_queue)) {
      shed.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::ServeShed);
      reply_busy(conn.id, 429,
                 error_body("queue full (" + std::to_string(new_jobs) +
                            " new cells), retry later"));
      return;
    }

    const std::uint64_t campaign_id = campaign.id;
    campaign.waiters.push_back(conn.id);
    auto [cit, inserted] = campaigns.emplace(campaign_id, std::move(campaign));
    if (injects.empty()) campaign_by_hash.emplace(spec_hash, campaign_id);
    CampaignJob& job = cit->second;

    for (std::size_t i = 0; i < plan.size(); ++i) {
      CellOutcome& cell = job.result.cells[i];
      if (cell.state != CellState::Pending) continue;
      std::string inject;
      if (const auto inj = injects.find(i); inj != injects.end()) {
        inject = inj->second;
      }
      // Admission was pre-checked above; resolve_cell cannot shed here
      // except under a racing queue, in which case the cell is quarantined
      // as shed rather than failing the whole submission.
      try {
        CellJob& cell_job =
            resolve_cell(spec_hash, spec_path, plan[i], inject, conn.client);
        if (cell_job.terminal()) {
          apply_job_to_cell(cell_job, cell);
        } else {
          cell_job.campaigns.push_back({campaign_id, i});
          ++job.outstanding;
        }
      } catch (const AdmissionShed&) {
        supervise::record_quarantine(cell, 0, supervise::ErrorKind::Io,
                                     "shed by admission control");
      }
    }
    checkpoint(job);
    log_line("campaign " + spec_hash + " accepted (" +
             std::to_string(job.outstanding) + " cells outstanding)");
    if (job.outstanding == 0) {
      finish_campaign(campaign_id);
    } else {
      conn.waiting = true;
    }
  }

  // ---- /v1/worker/*: the lease protocol spoken by `feastc worker` peers.

  void handle_worker_register(Conn& conn, const JsonValue& root) {
    const JsonValue* name_value = root.find("name");
    if (name_value == nullptr || name_value->type != JsonValue::Type::String ||
        name_value->string.empty() || name_value->string.size() > 64) {
      reply_json(conn.id, 400,
                 error_body("body wants {\"name\": \"...\"} (1..64 chars)"));
      return;
    }
    int slots = 1;
    if (const JsonValue* slots_value = root.find("slots")) {
      if (slots_value->type != JsonValue::Type::Number ||
          !std::isfinite(slots_value->number) || slots_value->number < 1.0 ||
          slots_value->number > 64.0 ||
          slots_value->number != std::floor(slots_value->number)) {
        reply_json(conn.id, 400, error_body("slots wants an integer in 1..64"));
        return;
      }
      slots = static_cast<int>(slots_value->number);
    }
    const std::string name = name_value->string;
    // A returning name is a new incarnation of the same worker: the previous
    // registration is dead by definition, its leases requeue uncharged, and
    // its death is charged to the poison tally of any cell it held.
    if (const auto it = worker_ids.find(name); it != worker_ids.end()) {
      drop_worker(it->second, "replaced by re-registration");
    }
    RemoteWorker worker;
    worker.id = "w" + std::to_string(next_worker_id++);
    worker.name = name;
    worker.slots = slots;
    worker.last_seen = Clock::now();
    const std::string id = worker.id;
    worker_ids[name] = id;
    workers.emplace(id, std::move(worker));
    obs::count(obs::Counter::ServeWorkerRegister);
    log_line("worker '" + name + "' registered as " + id + " (" +
             std::to_string(slots) + " slot(s))");
    reply_json(conn.id, 200,
               "{\"worker\": \"" + id + "\", \"poll_ms\": 50, "
               "\"lease_timeout_s\": " + json_number(dispatcher->lease_timeout_s()) +
               ", \"heartbeat_timeout_s\": " +
               json_number(opt.heartbeat_timeout_s) + "}\n");
  }

  void handle_worker_lease(Conn& conn, const JsonValue& root) {
    const JsonValue* worker_value = root.find("worker");
    if (worker_value == nullptr ||
        worker_value->type != JsonValue::Type::String) {
      reply_json(conn.id, 400, error_body("body wants {\"worker\": \"...\"}"));
      return;
    }
    const auto it = workers.find(worker_value->string);
    if (it == workers.end()) {
      reply_json(conn.id, 404, error_body("unknown worker (re-register)"));
      return;
    }
    RemoteWorker& worker = it->second;
    worker.last_seen = Clock::now();  // The lease poll doubles as heartbeat.
    std::optional<supervise::Dispatcher::Lease> lease;
    if (dispatcher->leases(worker.id) < static_cast<std::size_t>(worker.slots)) {
      lease = dispatcher->lease(worker.id, worker.name);
    }
    if (!lease) {
      reply_json(conn.id, 200, "{\"idle\": true, \"poll_ms\": 50}\n");
      return;
    }
    CellJob& job = jobs.at(lease->unit.key);
    std::ifstream spec_in(lease->unit.spec_path, std::ios::binary);
    std::ostringstream spec_text;
    spec_text << spec_in.rdbuf();
    if (!spec_in) {
      supervise::WorkerOutcome unreadable;
      unreadable.kind = supervise::ErrorKind::Io;
      unreadable.error = "cannot read spec file " + lease->unit.spec_path;
      on_event(*dispatcher->settle(lease->token, std::move(unreadable)));
      reply_json(conn.id, 200, "{\"idle\": true, \"poll_ms\": 50}\n");
      return;
    }
    if ((job.lease_sink = obs::active()) != nullptr) {
      job.lease_span_start_ns = obs::detail::now_ns(*job.lease_sink);
    }
    dispatched.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::ServeDispatch);
    obs::count(obs::Counter::ServeWorkerLease);
    std::string body = "{\"lease\": \"" + lease->token +
                       "\", \"cell\": " + std::to_string(lease->unit.cell) +
                       ", \"spec\": \"" + json_escape(spec_text.str()) + "\"";
    if (!lease->inject.empty()) {
      body += ", \"inject\": \"" + json_escape(lease->inject) + "\"";
    }
    body += ", \"timeout_s\": " + json_number(opt.cell_timeout_s) +
            ", \"threads\": " + std::to_string(opt.worker_threads) + "}\n";
    reply_json(conn.id, 200, body);
  }

  void handle_worker_result(Conn& conn, const JsonValue& root) {
    const JsonValue* worker_value = root.find("worker");
    const JsonValue* lease_value = root.find("lease");
    const JsonValue* ok_value = root.find("ok");
    if (worker_value == nullptr ||
        worker_value->type != JsonValue::Type::String ||
        lease_value == nullptr || lease_value->type != JsonValue::Type::String ||
        ok_value == nullptr || ok_value->type != JsonValue::Type::Bool) {
      reply_json(conn.id, 400,
                 error_body("body wants {\"worker\", \"lease\", \"ok\", ...}"));
      return;
    }
    const auto worker_it = workers.find(worker_value->string);
    if (worker_it == workers.end()) {
      reply_json(conn.id, 404, error_body("unknown worker (re-register)"));
      return;
    }
    RemoteWorker& worker = worker_it->second;
    worker.last_seen = Clock::now();
    const std::string& token = lease_value->string;
    const supervise::Dispatcher::Lease* lease = dispatcher->leased(token, worker.id);
    if (lease == nullptr) {
      // Duplicate delivery, or a lease the sweep already expired: the
      // result is no longer wanted.  410 keeps the settle at-most-once.
      reply_json(conn.id, 410, error_body("lease expired or already settled"));
      return;
    }
    CellJob& job = jobs.at(lease->unit.key);
    obs::count(obs::Counter::ServeWorkerResult);
    supervise::WorkerOutcome outcome;
    if (ok_value->boolean) {
      const JsonValue* shard_value = root.find("shard");
      if (shard_value == nullptr ||
          shard_value->type != JsonValue::Type::String) {
        reply_json(conn.id, 400,
                   error_body("ok result wants {\"shard\": \"...\"}"));
        return;
      }
      supervise::ShardError shard_error = supervise::ShardError::None;
      const auto shard =
          supervise::parse_shard_result(shard_value->string, &shard_error);
      if (!shard.has_value() || shard->cell_index != lease->unit.cell) {
        // A frame torn or corrupted in flight is a network-domain failure,
        // charged like any other failed attempt — the next lease retries.
        const std::string why =
            !shard.has_value()
                ? (shard_error == supervise::ShardError::Truncated
                       ? "truncated shard frame"
                       : "corrupt shard frame")
                : "shard for the wrong cell";
        ++worker.errors[static_cast<std::size_t>(supervise::ErrorKind::Net)];
        outcome.kind = supervise::ErrorKind::Net;
        outcome.error = why + " over the wire from worker '" + worker.name + "'";
        on_event(*dispatcher->settle(token, std::move(outcome)));
        reply_json(conn.id, 400, error_body(why, "net"));
        return;
      }
      ++worker.cells_ok;
      // Remote results feed the same persistent cache as local harvests.
      if (cache.has_value() && !job.canonical.empty() && job.inject.empty()) {
        cache->store(job.canonical, shard->stats);
      }
      outcome.shard = *shard;
      on_event(*dispatcher->settle(token, std::move(outcome)));
      reply_json(conn.id, 200, "{\"accepted\": true}\n");
      return;
    }
    // Worker-observed failure (timeout/crash/signal/oom/io on its side):
    // charged against the cell's retry budget exactly as a local harvest.
    outcome.kind = supervise::error_kind_from_string(root.string_or("kind"));
    // A failure report without a kind is still a failure: charge it as `io`.
    if (outcome.ok()) outcome.kind = supervise::ErrorKind::Io;
    outcome.error = "worker '" + worker.name +
                    "': " + root.string_or("error", "worker-reported failure");
    ++worker.errors[static_cast<std::size_t>(outcome.kind)];
    on_event(*dispatcher->settle(token, std::move(outcome)));
    reply_json(conn.id, 200, "{\"accepted\": true}\n");
  }

  std::string status_body() {
    std::string out = "{\n  \"server\": {";
    const ServeStatsSnapshot snapshot = snapshot_stats();
    out += "\"accepted\": " + std::to_string(snapshot.accepted);
    out += ", \"requests\": " + std::to_string(snapshot.requests);
    out += ", \"parse_errors\": " + std::to_string(snapshot.parse_errors);
    out += ", \"shed\": " + std::to_string(snapshot.shed);
    out += ", \"dedup_hits\": " + std::to_string(snapshot.dedup_hits);
    out += ", \"cache_hits\": " + std::to_string(snapshot.cache_hits);
    out += ", \"dispatched\": " + std::to_string(snapshot.dispatched);
    out += ", \"completed\": " + std::to_string(snapshot.completed);
    out += ", \"failed\": " + std::to_string(snapshot.failed);
    out += ", \"replies\": " + std::to_string(snapshot.replies);
    out += ", \"disconnects\": " + std::to_string(snapshot.disconnects);
    out += ", \"queue_depth\": " + std::to_string(dispatcher->queued());
    out += ", \"clients\": " + std::to_string(dispatcher->clients());
    out += ", \"running\": " + std::to_string(dispatcher->running());
    out += ", \"connections\": " + std::to_string(conns.size());
    out += ", \"draining\": ";
    out += draining ? "true" : "false";
    out += ", \"workers_lost\": " + std::to_string(snapshot.workers_lost);
    out += ", \"requeued\": " + std::to_string(snapshot.requeued);
    out += ", \"remote_workers\": " + std::to_string(workers.size());
    out += ", \"remote_leases\": " + std::to_string(dispatcher->leases());
    out += "},\n  \"workers\": [\n";
    bool first_worker = true;
    if (opt.workers > 0) {
      out += "    {\"name\": \"local\", \"kind\": \"local\", \"slots\": " +
             std::to_string(opt.workers) + ", \"leases\": " +
             std::to_string(dispatcher->running()) + "}";
      first_worker = false;
    }
    for (const auto& [id, worker] : workers) {
      if (!first_worker) out += ",\n";
      first_worker = false;
      out += "    {\"name\": \"" + json_escape(worker.name) + "\", \"id\": \"" +
             worker.id + "\", \"kind\": \"remote\", \"slots\": " +
             std::to_string(worker.slots) + ", \"leases\": " +
             std::to_string(dispatcher->leases(id)) + ", \"heartbeat_age_s\": " +
             json_number(seconds_since(worker.last_seen)) +
             ", \"completed\": " + std::to_string(worker.cells_ok) +
             ", \"errors\": {";
      bool first_kind = true;
      for (std::size_t k = 1; k < worker.errors.size(); ++k) {
        if (!first_kind) out += ", ";
        first_kind = false;
        out += "\"";
        out += supervise::to_string(static_cast<supervise::ErrorKind>(k));
        out += "\": " + std::to_string(worker.errors[k]);
      }
      out += "}}";
    }
    out += "\n  ],\n  \"campaigns\": [\n";
    bool first = true;
    for (auto& [id, campaign] : campaigns) {
      if (!first) out += ",\n";
      first = false;
      std::ostringstream body;
      write_manifest_status_json(body, manifest_view(campaign));
      out += body.str();
    }
    out += "  ]\n}\n";
    return out;
  }

  void handle_request(Conn& conn) {
    requests.fetch_add(1, std::memory_order_relaxed);
    if ((conn.sink = obs::active()) != nullptr) {
      conn.span_start_ns = obs::detail::now_ns(*conn.sink);
    }
    const HttpRequest& request = conn.parser.request();
    const std::string& client_header = request.header("x-feast-client");
    conn.client = client_header.empty() ? "anon" : client_header;
    if (request.header("connection") == "close" ||
        (request.version == "HTTP/1.0" &&
         request.header("connection") != "keep-alive")) {
      conn.close_after_write = true;
    }
    const std::string path = request.path();

    if (path == "/healthz") {
      if (request.method != "GET") {
        enqueue_reply(conn.id, 405, "text/plain", "method not allowed\n");
        return;
      }
      enqueue_reply(conn.id, 200, "text/plain", draining ? "draining\n" : "ok\n");
      return;
    }
    if (path == "/v1/status") {
      if (request.method != "GET") {
        reply_json(conn.id, 405, error_body("method not allowed"));
        return;
      }
      reply_json(conn.id, 200, status_body());
      return;
    }
    if (path == "/v1/cell" || path == "/v1/campaign" ||
        path == "/v1/worker/register" || path == "/v1/worker/lease" ||
        path == "/v1/worker/result") {
      if (request.method != "POST") {
        reply_json(conn.id, 405, error_body("method not allowed"));
        return;
      }
      if (draining) {
        reply_busy(conn.id, 503, error_body("draining"));
        return;
      }
      JsonValue root;
      try {
        // Untrusted bytes: tight nesting and byte budgets on top of the
        // transport-level body cap.
        JsonLimits limits;
        limits.max_depth = 32;
        limits.max_bytes = opt.http.max_body_bytes;
        root = parse_json(request.body, limits);
      } catch (const std::exception& e) {
        parse_errors.fetch_add(1, std::memory_order_relaxed);
        obs::count(obs::Counter::ServeParseError);
        reply_json(conn.id, 400, error_body(std::string("bad json: ") + e.what()));
        return;
      }
      if (root.type != JsonValue::Type::Object) {
        parse_errors.fetch_add(1, std::memory_order_relaxed);
        obs::count(obs::Counter::ServeParseError);
        reply_json(conn.id, 400, error_body("body must be a JSON object"));
        return;
      }
      if (path == "/v1/cell") {
        handle_cell_request(conn, root);
      } else if (path == "/v1/campaign") {
        handle_campaign_request(conn, root);
      } else if (path == "/v1/worker/register") {
        handle_worker_register(conn, root);
      } else if (path == "/v1/worker/lease") {
        handle_worker_lease(conn, root);
      } else {
        handle_worker_result(conn, root);
      }
      return;
    }
    reply_json(conn.id, 404, error_body("no such endpoint: " + path));
  }

  // ----------------------------------------------------------- connections

  void close_conn(std::map<std::uint64_t, Conn>::iterator it) {
    conns.erase(it);
  }

  /// True when the connection should be torn down after this read pass.
  bool read_conn(Conn& conn) {
    for (;;) {
      if (conn.doomed) return true;
      std::string bytes;
      const int rc = net::read_available(conn.sock.fd(), bytes);
      if (rc == -1) break;  // Would block: drained the readable data.
      if (rc == 0 || rc == -2) {
        // EOF or hard error.  A client that leaves mid-request or while a
        // reply is pending is a disconnect worth counting.
        if (conn.waiting || conn.has_partial) {
          disconnects.fetch_add(1, std::memory_order_relaxed);
          obs::count(obs::Counter::ServeDisconnect);
        }
        return true;
      }
      conn.last_activity = Clock::now();
      if (conn.slow_loris) {
        // Fault-injected slow-loris client: its header deadline is treated
        // as already expired — reject and close without parsing.
        conn.close_after_write = true;
        enqueue_reply(conn.id, 408, "text/plain", "request timeout\n");
        return conn.doomed;
      }
      if (conn.waiting) {
        // One request in flight per connection: retain pipelined bytes in
        // the parser; the reply path re-drives it over them.  A client that
        // floods while its reply is pending is cut off, not buffered
        // forever.
        conn.parser.feed(bytes);
        if (conn.parser.buffered() >
            opt.http.max_header_bytes + opt.http.max_body_bytes) {
          parse_errors.fetch_add(1, std::memory_order_relaxed);
          obs::count(obs::Counter::ServeParseError);
          return true;
        }
        continue;
      }
      if (!conn.has_partial) {
        conn.has_partial = true;
        conn.request_start = Clock::now();
      }
      if (on_parse(conn, conn.parser.feed(bytes)) && conn.doomed) return true;
    }
    return false;
  }

  /// Acts on a parser status: handles a complete request, or answers a
  /// malformed one and closes after the reply.  False while incomplete.
  bool on_parse(Conn& conn, HttpRequestParser::Status status) {
    if (status == HttpRequestParser::Status::NeedMore) return false;
    conn.has_partial = false;
    if (status == HttpRequestParser::Status::Done) {
      handle_request(conn);
      return true;
    }
    parse_errors.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::ServeParseError);
    conn.close_after_write = true;
    enqueue_reply(conn.id, conn.parser.error_status(), "text/plain",
                  conn.parser.error() + "\n");
    return true;
  }

  /// Re-drives parsers over bytes that were pipelined behind a reply: each
  /// entry is a connection whose parser may already hold a complete
  /// request.  A worklist rather than recursion — handling a request can
  /// answer it immediately, which re-arms the parser and pushes the
  /// connection back here for the next buffered request.
  void pump() {
    while (!pump_queue.empty()) {
      const std::uint64_t id = pump_queue.front();
      pump_queue.pop_front();
      const auto it = conns.find(id);
      if (it == conns.end()) continue;
      Conn& conn = it->second;
      if (conn.waiting || conn.doomed || conn.close_after_write) continue;
      if (!on_parse(conn, conn.parser.drive()) && conn.parser.buffered() > 0) {
        // A pipelined request arrived incomplete: arm the partial-request
        // deadline so the slow-loris sweep applies to it too.
        conn.has_partial = true;
        conn.request_start = Clock::now();
      }
    }
  }

  /// Pushes outbox bytes; returns true when the conn should close.
  bool flush_conn(Conn& conn) {
    if (conn.doomed) return true;
    while (conn.out_off < conn.outbox.size()) {
      const ssize_t n = ::send(conn.sock.fd(), conn.outbox.data() + conn.out_off,
                               conn.outbox.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      if (n < 0 && errno == EINTR) continue;
      return true;  // Broken pipe: the client is gone.
    }
    if (conn.out_off > 0) {
      conn.outbox.erase(0, conn.out_off);
      conn.out_off = 0;
    }
    // Close only once the pending reply (if any) has been produced *and*
    // flushed — a waiting request's connection must survive until its job
    // resolves even under Connection: close.
    return conn.close_after_write && conn.outbox.empty() && !conn.waiting;
  }

  void accept_ready() {
    for (;;) {
      net::Socket sock = listener.accept();
      if (!sock.valid()) return;
      accepted.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::ServeAccept);
      const std::uint64_t id = next_conn_id++;
      auto [it, inserted] = conns.emplace(id, Conn(opt.http));
      Conn& conn = it->second;
      conn.sock = std::move(sock);
      conn.id = id;
      if (conns.size() > static_cast<std::size_t>(opt.max_connections)) {
        conn.close_after_write = true;
        enqueue_reply(id, 503, "text/plain", "too many connections\n",
                      {{"Retry-After", std::to_string(opt.retry_after_s)}});
        continue;
      }
      if (check::fire(check::FaultSite::ServeSlowLoris)) {
        conn.slow_loris = true;
      }
    }
  }

  void sweep_timeouts() {
    const auto now = Clock::now();
    std::vector<std::uint64_t> expired_partial;
    std::vector<std::uint64_t> expired_idle;
    for (auto& [id, conn] : conns) {
      if (conn.has_partial &&
          std::chrono::duration<double>(now - conn.request_start).count() >
              opt.header_timeout_s) {
        expired_partial.push_back(id);
      } else if (!conn.waiting && !conn.has_partial && conn.outbox.empty() &&
                 std::chrono::duration<double>(now - conn.last_activity).count() >
                     opt.idle_timeout_s) {
        expired_idle.push_back(id);
      }
    }
    for (const std::uint64_t id : expired_partial) {
      // The slow-loris guard proper: a request that dribbles in slower than
      // the header deadline is rejected, freeing its connection slot.
      const auto it = conns.find(id);
      if (it == conns.end()) continue;
      it->second.close_after_write = true;
      it->second.has_partial = false;
      enqueue_reply(id, 408, "text/plain", "request timeout\n");
    }
    for (const std::uint64_t id : expired_idle) {
      const auto it = conns.find(id);
      if (it != conns.end()) close_conn(it);
    }
  }

  /// Erases connections doomed mid-callback, once no caller can still hold
  /// a reference into them (end of tick).
  void reap_doomed() {
    for (auto it = conns.begin(); it != conns.end();) {
      it = it->second.doomed ? conns.erase(it) : std::next(it);
    }
  }

  void update_gauges() {
    gauge_queue.store(dispatcher->queued(), std::memory_order_relaxed);
    gauge_running.store(dispatcher->running(), std::memory_order_relaxed);
    gauge_conns.store(conns.size(), std::memory_order_relaxed);
    gauge_workers.store(workers.size(), std::memory_order_relaxed);
    gauge_leases.store(dispatcher->leases(), std::memory_order_relaxed);
  }

  ServeStatsSnapshot snapshot_stats() const {
    ServeStatsSnapshot s;
    s.accepted = accepted.load(std::memory_order_relaxed);
    s.requests = requests.load(std::memory_order_relaxed);
    s.parse_errors = parse_errors.load(std::memory_order_relaxed);
    s.shed = shed.load(std::memory_order_relaxed);
    s.dedup_hits = dedup_hits.load(std::memory_order_relaxed);
    s.cache_hits = cache_hits.load(std::memory_order_relaxed);
    s.dispatched = dispatched.load(std::memory_order_relaxed);
    s.completed = completed.load(std::memory_order_relaxed);
    s.failed = failed.load(std::memory_order_relaxed);
    s.replies = replies.load(std::memory_order_relaxed);
    s.disconnects = disconnects.load(std::memory_order_relaxed);
    s.workers_lost = workers_lost.load(std::memory_order_relaxed);
    s.requeued = requeued.load(std::memory_order_relaxed);
    s.queue_depth = gauge_queue.load(std::memory_order_relaxed);
    s.running = gauge_running.load(std::memory_order_relaxed);
    s.remote_workers = gauge_workers.load(std::memory_order_relaxed);
    s.remote_leases = gauge_leases.load(std::memory_order_relaxed);
    s.connections = gauge_conns.load(std::memory_order_relaxed);
    return s;
  }

  // ------------------------------------------------------------- the drain

  void begin_drain() {
    draining = true;
    listener.close();
    // Queued work and remote leases (cut loose uncharged) are abandoned:
    // their waiters get 503 now, their campaign cells stay Pending in the
    // checkpoint so a resubmission after restart picks them up — the
    // supervisor's drain contract.  Local workers get the grace window.
    on_events(dispatcher->drain(opt.drain_grace_s));
    workers.clear();
    worker_ids.clear();
    for (auto& [id, campaign] : campaigns) {
      checkpoint(campaign);
      turn_away(campaign.waiters);
    }
    log_line("drain: stopped accepting; waiting up to " +
             std::to_string(opt.drain_grace_s) + " s for " +
             std::to_string(dispatcher->running()) + " worker(s)");
  }

  /// Kills running workers (a drain's stragglers stay Pending, uncharged),
  /// checkpoints every campaign and flushes and closes every connection.
  void shut_down(const std::string& why) {
    dispatcher->kill_all(1.0);
    for (auto& [id, campaign] : campaigns) checkpoint(campaign);
    for (auto& [id, conn] : conns) flush_conn(conn);
    conns.clear();
    listener.close();
    log_line(why);
  }
};

// ------------------------------------------------------------------ Server

Server::Server(ServeOptions options)
    : impl_(std::make_unique<Impl>(std::move(options), *this)) {}

Server::~Server() = default;

void Server::start() {
  ServeOptions& opt = impl_->opt;
  if (opt.work_dir.empty()) throw std::runtime_error("serve: --work-dir required");
  if (opt.workers < 0) throw std::runtime_error("serve: workers < 0");
  if (opt.max_queue < 1) throw std::runtime_error("serve: max-queue < 1");
  if (opt.max_attempts < 1) throw std::runtime_error("serve: max-attempts < 1");
  if (opt.heartbeat_timeout_s <= 0.0) {
    throw std::runtime_error("serve: heartbeat-timeout <= 0");
  }
  if (opt.poison_worker_deaths < 1) {
    throw std::runtime_error("serve: poison-deaths < 1");
  }
  if (opt.retry_after_s < 0) throw std::runtime_error("serve: retry-after < 0");
  fs::create_directories(opt.work_dir);
  // One cache directory for the daemon's own lookups and its workers.
  const std::string cache_dir =
      opt.no_cache ? "" : opt.cache_dir.empty() ? ".feast-cache" : opt.cache_dir;
  if (!cache_dir.empty()) impl_->cache.emplace(cache_dir);
  supervise::DispatcherOptions dispatch;
  dispatch.policy = {opt.max_attempts, kNoBackoff, opt.poison_worker_deaths};
  dispatch.pool.slots = opt.workers;
  dispatch.pool.cell_timeout_s = opt.cell_timeout_s;
  dispatch.pool.term_grace_s = opt.term_grace_s;
  dispatch.pool.memory_limit_mb = opt.memory_limit_mb;
  dispatch.pool.worker_threads = opt.worker_threads;
  dispatch.pool.feastc_path = opt.feastc_path;
  dispatch.pool.cache_dir = cache_dir;
  dispatch.pool.no_cache = opt.no_cache;
  dispatch.pool.work_dir = (fs::path(opt.work_dir) / "shards").string();
  dispatch.lease_timeout_s = opt.lease_timeout_s;
  impl_->dispatcher.emplace(std::move(dispatch));
  impl_->listener = net::TcpListener::bind_and_listen(opt.host, opt.port);
}

std::uint16_t Server::port() const noexcept { return impl_->listener.port(); }

int Server::run() {
  Impl& impl = *impl_;
  if (!impl.listener.valid()) start();
  supervise::DrainSignalGuard signals;
  bool drained = false;
  while (true) {
    // Assemble this tick's poll set: listener + every connection.
    std::vector<pollfd> pfds;
    std::vector<std::uint64_t> pfd_conn;
    pfds.reserve(impl.conns.size() + 1);
    if (impl.listener.valid()) {
      pfds.push_back({impl.listener.fd(), POLLIN, 0});
      pfd_conn.push_back(0);
    }
    for (auto& [id, conn] : impl.conns) {
      short events = POLLIN;
      if (!conn.outbox.empty()) events |= POLLOUT;
      pfds.push_back({conn.sock.fd(), events, 0});
      pfd_conn.push_back(id);
    }
    const int rc = ::poll(pfds.data(), pfds.size(), 20);
    (void)rc;  // EINTR and timeouts both fall through to the tick body.

    std::vector<std::uint64_t> closing;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfd_conn[i] == 0) {
        if ((pfds[i].revents & POLLIN) != 0) impl.accept_ready();
        continue;
      }
      const auto it = impl.conns.find(pfd_conn[i]);
      if (it == impl.conns.end()) continue;
      Conn& conn = it->second;
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (impl.read_conn(conn)) {
          closing.push_back(conn.id);
          continue;
        }
      }
      if (!conn.outbox.empty() || conn.close_after_write) {
        if (impl.flush_conn(conn)) closing.push_back(conn.id);
      }
    }
    for (const std::uint64_t id : closing) {
      const auto it = impl.conns.find(id);
      if (it != impl.conns.end()) impl.close_conn(it);
    }

    impl.step();
    impl.pump();
    impl.sweep_heartbeats();
    impl.sweep_timeouts();
    impl.reap_doomed();
    impl.update_gauges();

    const bool stop_requested = stop_.load(std::memory_order_acquire);
    const bool drain_requested =
        drain_.load(std::memory_order_acquire) || signals.signal() != 0;
    if (!impl.draining && drain_requested) {
      impl.begin_drain();
      drained = true;
    }
    if (impl.draining && impl.dispatcher->running() == 0) {
      // Every local worker was harvested, or killed past the grace window.
      impl.shut_down("drain: checkpointed, exiting 130");
      return drained ? 130 : 0;
    }
    if (stop_requested && !impl.draining) {
      impl.shut_down("stopped");
      return 0;
    }
  }
}

ServeStatsSnapshot Server::stats() const { return impl_->snapshot_stats(); }

}  // namespace feast::serve
