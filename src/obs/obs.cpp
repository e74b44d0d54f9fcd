#include "obs/obs.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "util/table.hpp"

namespace feast::obs {

const char* to_string(Span span) noexcept {
  switch (span) {
    case Span::Generate: return "generate";
    case Span::Distribute: return "distribute";
    case Span::Validate: return "validate";
    case Span::Schedule: return "schedule";
    case Span::SchedPrepare: return "sched/prepare";
    case Span::SchedPlace: return "sched/place";
    case Span::Stats: return "stats";
    case Span::CellRun: return "cell-run";
    case Span::CacheLookup: return "cache/lookup";
    case Span::CacheStore: return "cache/store";
    case Span::PoolTask: return "pool/task";
    case Span::SuperviseAttempt: return "supervise/attempt";
    case Span::ServeRequest: return "serve/request";
    case Span::ServeDispatch: return "serve/dispatch";
    case Span::ExactSolve: return "exact/solve";
    case Span::SchedBatch: return "sched/batch";
    case Span::ServeLease: return "serve/lease";
  }
  return "?";
}

const char* to_string(Counter counter) noexcept {
  switch (counter) {
    case Counter::CacheHit: return "cache.hit";
    case Counter::CacheMiss: return "cache.miss";
    case Counter::CacheStore: return "cache.store";
    case Counter::CacheCorrupt: return "cache.corrupt";
    case Counter::ReadyPush: return "sched.ready_push";
    case Counter::BusGapProbe: return "sched.gap_probe";
    case Counter::BusReserve: return "sched.reserve";
    case Counter::PoolSleep: return "pool.sleep";
    case Counter::SuperviseSpawn: return "supervise.spawn";
    case Counter::SuperviseRetry: return "supervise.retry";
    case Counter::SuperviseKill: return "supervise.kill";
    case Counter::SuperviseQuarantine: return "supervise.quarantine";
    case Counter::ShardCorrupt: return "shard.corrupt";
    case Counter::ShardTruncated: return "shard.truncated";
    case Counter::ServeAccept: return "serve.accept";
    case Counter::ServeParseError: return "serve.parse_error";
    case Counter::ServeShed: return "serve.shed";
    case Counter::ServeDedup: return "serve.dedup";
    case Counter::ServeDispatch: return "serve.dispatch";
    case Counter::ServeReply: return "serve.reply";
    case Counter::ServeDisconnect: return "serve.disconnect";
    case Counter::ExactNode: return "exact.nodes";
    case Counter::ExactPruned: return "exact.pruned";
    case Counter::ServeWorkerRegister: return "serve.worker.register";
    case Counter::ServeWorkerLease: return "serve.worker.lease";
    case Counter::ServeWorkerResult: return "serve.worker.result";
    case Counter::ServeWorkerLost: return "serve.worker.lost";
    case Counter::DistIterations: return "dist.iterations";
    case Counter::DistLbGroups: return "dist.lb_groups";
    case Counter::DistDpCells: return "dist.dp_cells";
    case Counter::DistRegroups: return "dist.regroups";
  }
  return "?";
}

namespace detail {

std::atomic<Sink*> g_active{nullptr};

namespace {

std::atomic<std::uint64_t> g_next_sink_id{1};
std::atomic<std::uint32_t> g_next_thread_id{1};

thread_local std::uint32_t tl_thread_id = 0;
thread_local std::string tl_thread_label;

/// One-entry (sink id → buffer) cache: every recording after the first
/// per (thread, sink) is lock-free.  Sink ids are process-unique and
/// never reused, so a stale entry can only miss, never alias.
struct TlsCache {
  std::uint64_t sink_id = 0;
  ThreadBuffer* buffer = nullptr;
};
thread_local TlsCache tl_cache;

std::uint32_t this_thread_id() noexcept {
  if (tl_thread_id == 0) {
    tl_thread_id = g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  }
  return tl_thread_id;
}

}  // namespace

ThreadBuffer& buffer_for(Sink& sink) {
  if (tl_cache.sink_id == sink.id_) return *tl_cache.buffer;
  const std::uint32_t tid = this_thread_id();
  std::lock_guard<std::mutex> lock(sink.mutex_);
  for (const auto& existing : sink.buffers_) {
    if (existing->tid == tid) {
      tl_cache = {sink.id_, existing.get()};
      return *existing;
    }
  }
  sink.buffers_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer& buffer = *sink.buffers_.back();
  buffer.tid = tid;
  buffer.label = tl_thread_label;
  tl_cache = {sink.id_, &buffer};
  return buffer;
}

std::uint64_t now_ns(const Sink& sink) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - sink.epoch_)
          .count());
}

void record_span(Sink& sink, Span span, std::uint64_t start_ns) noexcept {
  const std::uint64_t end_ns = now_ns(sink);
  const std::uint64_t dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  ThreadBuffer& buffer = buffer_for(sink);
  std::lock_guard<std::mutex> lock(buffer.mutex);
  const auto s = static_cast<std::size_t>(span);
  ++buffer.span_count[s];
  buffer.span_total_ns[s] += dur_ns;
  buffer.durations_ns[s].push_back(dur_ns);
  if (sink.capture_events_) {
    buffer.events.push_back({static_cast<std::uint8_t>(span), start_ns, dur_ns});
  }
}

}  // namespace detail

Sink::Sink(bool capture_events)
    : id_(detail::g_next_sink_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()),
      capture_events_(capture_events) {}

Sink::~Sink() {
  // Safety net for a sink destroyed while still installed; correct code
  // uninstalls first (ScopedSink) and quiesces recording threads.
  Sink* self = this;
  detail::g_active.compare_exchange_strong(self, nullptr,
                                           std::memory_order_acq_rel);
  std::unique_lock<std::mutex> lock(mutex_);
  released_.wait(lock, [this] { return holds_ == 0; });
}

Report Sink::report() const {
  Report report;
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> merged;
  for (std::size_t s = 0; s < kSpanCount; ++s) {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    merged.clear();
    for (const auto& buffer : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      count += buffer->span_count[s];
      total_ns += buffer->span_total_ns[s];
      merged.insert(merged.end(), buffer->durations_ns[s].begin(),
                    buffer->durations_ns[s].end());
    }
    if (count == 0) continue;
    Report::SpanRow row;
    row.span = static_cast<Span>(s);
    row.count = count;
    row.total_ms = static_cast<double>(total_ns) / 1e6;
    row.mean_us = static_cast<double>(total_ns) / 1e3 / static_cast<double>(count);
    // Nearest-rank p95 over the merged per-instance durations.
    const std::size_t rank = (merged.size() * 95 + 99) / 100;
    const std::size_t index = rank > 0 ? rank - 1 : 0;
    std::nth_element(merged.begin(),
                     merged.begin() + static_cast<std::ptrdiff_t>(index),
                     merged.end());
    row.p95_us = static_cast<double>(merged[index]) / 1e3;
    report.spans.push_back(row);
  }
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    std::uint64_t value = 0;
    for (const auto& buffer : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      value += buffer->counters[c];
    }
    if (value == 0) continue;
    report.counters.push_back({static_cast<Counter>(c), value});
  }
  return report;
}

double Report::total_ms(std::initializer_list<Span> which) const noexcept {
  double total = 0.0;
  for (const Span span : which) {
    for (const SpanRow& row : spans) {
      if (row.span == span) total += row.total_ms;
    }
  }
  return total;
}

std::uint64_t Report::counter_value(Counter counter) const noexcept {
  for (const CounterRow& row : counters) {
    if (row.counter == counter) return row.value;
  }
  return 0;
}

namespace {

std::string fixed(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", precision, value);
  return buffer;
}

/// Minimal string escaping for trace JSON (names are identifiers or
/// short user labels, but stay safe anyway).
std::string trace_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

}  // namespace

void Report::print(std::ostream& out) const {
  out << "per-phase timing (nested spans also count toward their parents)\n";
  TextTable table;
  table.set_header({"span", "count", "total ms", "mean us", "p95 us"});
  for (const SpanRow& row : spans) {
    table.add_row({to_string(row.span), std::to_string(row.count),
                   fixed(row.total_ms, 3), fixed(row.mean_us, 2),
                   fixed(row.p95_us, 2)});
  }
  table.render(out);
  if (counters.empty()) return;
  out << "\ncounters\n";
  TextTable counter_table;
  counter_table.set_header({"counter", "count"});
  for (const CounterRow& row : counters) {
    counter_table.add_row({to_string(row.counter), std::to_string(row.value)});
  }
  counter_table.render(out);
}

void Sink::write_chrome_trace(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  const auto comma = [&] {
    out << (first ? "\n" : ",\n");
    first = false;
  };
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    const std::string name =
        buffer->label.empty() ? "thread-" + std::to_string(buffer->tid)
                              : buffer->label;
    comma();
    out << " {\"ph\": \"M\", \"pid\": 1, \"tid\": " << buffer->tid
        << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
        << trace_escape(name) << "\"}}";
    for (const detail::ThreadBuffer::Event& event : buffer->events) {
      comma();
      // trace_event timestamps are microseconds.
      out << " {\"ph\": \"X\", \"pid\": 1, \"tid\": " << buffer->tid
          << ", \"name\": \"" << to_string(static_cast<Span>(event.span))
          << "\", \"ts\": " << fixed(static_cast<double>(event.start_ns) / 1e3, 3)
          << ", \"dur\": " << fixed(static_cast<double>(event.dur_ns) / 1e3, 3)
          << "}";
    }
  }
  out << "\n]}\n";
}

ScopedSink::ScopedSink(Sink& sink) noexcept
    : previous_(detail::g_active.exchange(&sink, std::memory_order_acq_rel)) {}

ScopedSink::~ScopedSink() {
  detail::g_active.store(previous_, std::memory_order_release);
}

void SinkHold::hold() noexcept {
  std::lock_guard<std::mutex> lock(sink_->mutex_);
  ++sink_->holds_;
}

void SinkHold::release() noexcept {
  // Notified under the lock: ~Sink cannot pass its wait, and free the
  // condition variable, before this unlocks.
  std::lock_guard<std::mutex> lock(sink_->mutex_);
  if (--sink_->holds_ == 0) sink_->released_.notify_all();
}

void set_thread_label(std::string label) {
  detail::tl_thread_label = std::move(label);
}

}  // namespace feast::obs
