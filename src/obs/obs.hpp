/// \file obs.hpp
/// \brief Low-overhead observability: scoped spans, named counters, and
///        two exporters (aggregate tables, Chrome trace_event JSON).
///
/// Everything funnels through one process-wide `Sink*` held in an atomic:
/// when no sink is installed, a SpanScope or count() is a single relaxed
/// atomic load and a branch — tens of ns at worst, no allocation, no
/// clock read — so instrumentation can stay compiled into hot paths
/// permanently (bench/perf_obs.cpp reports that cost as advisory output
/// and gates only the enabled-sink overhead).
/// When a sink is installed, every thread records into its own
/// ThreadBuffer (registered with the sink on first use, cached in TLS),
/// so recording never takes a lock after the first event per thread.
///
/// Aggregation is merge-at-export: Sink::report() and
/// write_chrome_trace() walk all thread buffers under the sink's mutex,
/// and every individual record takes its buffer's own (uncontended in
/// steady state) mutex — so a straggler thread closing its last span
/// while the driver exports serializes instead of racing; anything it
/// records after the snapshot is simply not included.  Drivers should
/// still join their parallel work first so the export is complete.
///
/// Span taxonomy and counter catalogue: docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace feast::obs {

/// The fixed span taxonomy.  Spans nest (Schedule contains SchedPrepare
/// and SchedPlace; CellRun contains everything per-sample), so totals of
/// nested spans are included in their parents'.
enum class Span : std::uint8_t {
  Generate,     ///< Random-graph generation (one sample).
  Distribute,   ///< Deadline distribution (one run).
  Validate,     ///< Assignment + schedule validation (one run).
  Schedule,     ///< List scheduling, whole run (either core).
  SchedPrepare, ///< Fast core: arena bind, CSR hoist, priority sort.
  SchedPlace,   ///< Fast core: the placement loop.
  Stats,        ///< Lateness/measure extraction (one run).
  CellRun,      ///< One experiment cell (a full batch of samples).
  CacheLookup,  ///< Cell-cache consult.
  CacheStore,   ///< Cell-cache store.
  PoolTask,     ///< One thread-pool task execution.
  SuperviseAttempt,  ///< One worker-subprocess attempt (spawn → harvest).
  ServeRequest,      ///< Serve: one HTTP request, accept-parse → reply.
  ServeDispatch,     ///< Serve: one cell job, enqueue → terminal state.
  ExactSolve,        ///< One exact branch-and-bound solve (src/exact).
  SchedBatch,        ///< One BatchScheduler::run over a graph batch.
  ServeLease,        ///< Serve: one remote-worker lease, grant → settle.
};
inline constexpr std::size_t kSpanCount = 17;

/// Named event counters for decisions that have no duration.
enum class Counter : std::uint8_t {
  CacheHit,     ///< Cell served from the result cache.
  CacheMiss,    ///< Cell cache consulted without a usable record.
  CacheStore,   ///< Cell result written to the cache.
  CacheCorrupt, ///< Cell-cache record failed parse/checksum (read as miss).
  ReadyPush,    ///< Fast core: subtask entered the ready bitset.
  BusGapProbe,  ///< Fast core: bus/link/processor timeline gap query.
  BusReserve,   ///< Fast core: timeline reservation committed.
  PoolSleep,    ///< Pool: worker went idle (counted when it next starts a task).
  SuperviseSpawn,       ///< Supervisor: worker subprocess spawned.
  SuperviseRetry,       ///< Attempt ledger: failed attempt requeued (backoff).
  SuperviseKill,        ///< Supervisor: watchdog SIGTERM/SIGKILL issued.
  SuperviseQuarantine,  ///< Attempt ledger: cell quarantined (budget or poison).
  ShardCorrupt,    ///< Shard result rejected: checksum/field corruption.
  ShardTruncated,  ///< Shard result rejected: short read / missing tail.
  ServeAccept,     ///< Serve: TCP connection accepted.
  ServeParseError, ///< Serve: request rejected by the HTTP/JSON parser.
  ServeShed,       ///< Serve: admission control returned 429.
  ServeDedup,      ///< Serve: request coalesced onto an in-flight cell.
  ServeDispatch,   ///< Serve: cell handed to a leased worker.
  ServeReply,      ///< Serve: response written back to a client.
  ServeDisconnect, ///< Serve: client went away before its reply.
  ExactNode,       ///< Exact oracle: search-tree nodes expanded.
  ExactPruned,     ///< Exact oracle: branches cut by bounds or dominance.
  ServeWorkerRegister, ///< Serve: remote worker registered (or re-registered).
  ServeWorkerLease,    ///< Serve: cell leased to a remote worker.
  ServeWorkerResult,   ///< Serve: remote worker result frame accepted.
  ServeWorkerLost,     ///< Serve: remote worker declared lost (heartbeat or
                       ///< lease deadline missed; its cells requeue uncharged).
  DistIterations,  ///< Slicing: critical paths sliced (one per iteration).
  DistLbGroups,    ///< Slicing: lb-group DP sweeps in the critical-path search.
  DistDpCells,     ///< Slicing: DP cells the critical-path search initialized.
  DistRegroups,    ///< Slicing: searches that formed their lb groups from scratch.
};
inline constexpr std::size_t kCounterCount = 31;

const char* to_string(Span span) noexcept;
const char* to_string(Counter counter) noexcept;

class Sink;

namespace detail {

/// Per-(thread, sink) recording buffer.  Owned by the Sink; written by
/// exactly one thread under `mutex`, which exports also take — so a late
/// record and a concurrent export serialize instead of racing.
struct ThreadBuffer {
  std::mutex mutex;  ///< Guards every field below against a concurrent export.
  std::uint64_t span_count[kSpanCount] = {};
  std::uint64_t span_total_ns[kSpanCount] = {};
  std::vector<std::uint64_t> durations_ns[kSpanCount];  ///< For p95.
  std::uint64_t counters[kCounterCount] = {};

  struct Event {
    std::uint8_t span = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
  };
  std::vector<Event> events;  ///< Only filled when the sink captures events.

  std::uint32_t tid = 0;  ///< Process-unique recording-thread number.
  std::string label;      ///< From set_thread_label(), may be empty.
};

extern std::atomic<Sink*> g_active;

/// The calling thread's buffer in \p sink (registered on first use).
ThreadBuffer& buffer_for(Sink& sink);

/// Nanoseconds since \p sink's epoch.
std::uint64_t now_ns(const Sink& sink) noexcept;

/// Closes a span: aggregates and (when capturing) appends a trace event.
void record_span(Sink& sink, Span span, std::uint64_t start_ns) noexcept;

}  // namespace detail

/// The installed process-wide sink, or nullptr when observability is off.
inline Sink* active() noexcept {
  return detail::g_active.load(std::memory_order_acquire);
}

/// Merged aggregates of one sink: per-span count/total/mean/p95 and
/// counter totals, in enum order, zero entries omitted.
struct Report {
  struct SpanRow {
    Span span = Span::Generate;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double mean_us = 0.0;
    double p95_us = 0.0;
  };
  struct CounterRow {
    Counter counter = Counter::CacheHit;
    std::uint64_t value = 0;
  };
  std::vector<SpanRow> spans;
  std::vector<CounterRow> counters;

  /// Sum of total_ms over \p which (absent spans contribute 0).
  double total_ms(std::initializer_list<Span> which) const noexcept;

  /// Count of one counter (0 when absent).
  std::uint64_t counter_value(Counter counter) const noexcept;

  /// Renders the per-phase table and the counter table.
  void print(std::ostream& out) const;
};

/// Collects spans and counters from every recording thread.  Construct,
/// install with ScopedSink (or pass explicitly via RunContext::sink),
/// run the workload, then export with report()/write_chrome_trace().
/// Must outlive its installation and any recording; not copyable.  The
/// destructor waits for every SinkHold on it to end.
class Sink {
 public:
  /// \p capture_events additionally records every span as a timestamped
  /// event for the Chrome trace exporter (more memory: one 24-byte event
  /// per span instance).
  explicit Sink(bool capture_events = false);
  ~Sink();
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  bool captures_events() const noexcept { return capture_events_; }

  /// Merged aggregates.  Requires quiescence: no thread may be recording
  /// into this sink concurrently.
  Report report() const;

  /// Chrome trace_event JSON ("X" complete events, µs timestamps), one
  /// row per recording thread — loadable in chrome://tracing and
  /// ui.perfetto.dev.  Requires capture_events and quiescence.
  void write_chrome_trace(std::ostream& out) const;

 private:
  friend detail::ThreadBuffer& detail::buffer_for(Sink& sink);
  friend std::uint64_t detail::now_ns(const Sink& sink) noexcept;
  friend void detail::record_span(Sink& sink, Span span,
                                  std::uint64_t start_ns) noexcept;

  friend class SinkHold;

  mutable std::mutex mutex_;  ///< Guards buffers_ and holds_.
  std::vector<std::unique_ptr<detail::ThreadBuffer>> buffers_;
  unsigned holds_ = 0;                ///< Live SinkHolds on this sink.
  std::condition_variable released_;  ///< Signalled when holds_ drops to 0.
  std::uint64_t id_;  ///< Process-unique, for TLS cache invalidation.
  std::chrono::steady_clock::time_point epoch_;
  bool capture_events_;
};

/// Installs \p sink as the process-wide active sink for the scope's
/// lifetime and restores the previous sink on destruction.
class ScopedSink {
 public:
  explicit ScopedSink(Sink& sink) noexcept;
  ~ScopedSink();
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  Sink* previous_;
};

/// Keeps the active sink, captured once at construction, alive until the
/// hold ends: ~Sink waits for every hold.  For a span that closes after the
/// code it times has woken the sink's owner, such as a pool task whose body
/// signals the thread that frees the sink; declare the hold before the span
/// and record the span into sink().  A null check when no sink is active.
class SinkHold {
 public:
  SinkHold() noexcept : sink_(detail::g_active.load(std::memory_order_relaxed)) {
    if (sink_ != nullptr) hold();
  }
  ~SinkHold() {
    if (sink_ != nullptr) release();
  }
  SinkHold(const SinkHold&) = delete;
  SinkHold& operator=(const SinkHold&) = delete;

  Sink* sink() const noexcept { return sink_; }

 private:
  void hold() noexcept;
  void release() noexcept;

  Sink* sink_;
};

/// Names the calling thread in reports and traces (e.g. "pool-worker-3").
/// Applies to buffers the thread registers after the call.
void set_thread_label(std::string label);

/// Bumps \p counter by \p n on \p sink; no-op when \p sink is nullptr.
inline void count_on(Sink* sink, Counter counter, std::uint64_t n = 1) noexcept {
  if (sink == nullptr) return;
  detail::ThreadBuffer& buffer = detail::buffer_for(*sink);
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.counters[static_cast<std::size_t>(counter)] += n;
}

/// Bumps \p counter on the active sink; a single relaxed atomic load and
/// a branch when observability is off.
inline void count(Counter counter, std::uint64_t n = 1) noexcept {
  count_on(detail::g_active.load(std::memory_order_relaxed), counter, n);
}

/// RAII scoped span: reads the clock on entry and exit and records the
/// duration into the sink captured at construction.  When that sink is
/// null (observability off) both ends are a null check.
class SpanScope {
 public:
  /// Records against the active sink (captured once, at entry).
  explicit SpanScope(Span span) noexcept
      : SpanScope(detail::g_active.load(std::memory_order_relaxed), span) {}

  /// Records against \p sink (e.g. RunContext::sink); null disables.
  SpanScope(Sink* sink, Span span) noexcept : sink_(sink), span_(span) {
    if (sink_ != nullptr) start_ns_ = detail::now_ns(*sink_);
  }

  ~SpanScope() {
    if (sink_ != nullptr) detail::record_span(*sink_, span_, start_ns_);
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Sink* sink_;
  Span span_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace feast::obs
