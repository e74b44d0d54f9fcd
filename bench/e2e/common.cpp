#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/distribution_validate.hpp"
#include "sched/batch.hpp"
#include "sched/lateness.hpp"
#include "sched/schedule_validate.hpp"
#include "taskgraph/generator.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace e2e {

using namespace feast;

// ------------------------------------------------------------------ timing

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

double quantile_of(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  return quantile(std::move(sample), q);
}

void Slices::report(Outcome& out) const {
  out.set("work_per_s", work / wall_s);
  out.set("cpu_ms_per_work", cpu_s * 1e3 / work);
}

namespace {

/// Keys the calibration loop sorts, and its time on the reference machine
/// (4 shared vCPUs of an Intel Xeon VM, in its faster state).
constexpr std::size_t kCalibrationKeys = std::size_t{1} << 15;
constexpr double kReferenceLoopS = 2.0e-3;

std::atomic<std::uint64_t> g_calibration_sink{0};

/// Sorts a fixed pseudo-random array three times and returns the median
/// time.  Loads, stores and unpredictable branches track the speed of the
/// code under test far better than a pure arithmetic chain does, which
/// misses a busy sibling hyperthread; the median drops one preemption.
/// Run on one thread, it tracks the three-thread cell pipeline as well as
/// any parallel variant tried.
double calibration_loop_s() {
  static std::vector<std::uint32_t> keys(kCalibrationKeys);
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t x = 88172645463325252ULL;  // xorshift64
    for (std::uint32_t& key : keys) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      key = static_cast<std::uint32_t>(x);
    }
    const auto started = Clock::now();
    std::sort(keys.begin(), keys.end());
    times.push_back(seconds_since(started));
    g_calibration_sink.fetch_add(keys[keys.size() / 2], std::memory_order_relaxed);
  }
  return quantile_of(times, 0.5);
}

}  // namespace

double machine_speed() { return kReferenceLoopS / calibration_loop_s(); }

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

double rusage_cpu_s(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime);
}

}  // namespace

double cpu_self_s() { return rusage_cpu_s(RUSAGE_SELF); }

double cpu_children_s() { return rusage_cpu_s(RUSAGE_CHILDREN); }

double cpu_of_pid_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // The command name may hold spaces; the fields after it are plain.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 1));
  std::vector<std::string> f;
  for (std::string token; fields >> token;) f.push_back(token);
  // f[0] is field 3 (state); utime, stime, cutime, cstime are fields 14-17.
  if (f.size() < 15) return 0.0;
  double ticks = 0.0;
  for (std::size_t i = 11; i <= 14; ++i) ticks += std::stod(f[i]);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {

double max_rss_mb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

double peak_rss_mb() {
  return std::max(max_rss_mb(RUSAGE_SELF), max_rss_mb(RUSAGE_CHILDREN));
}

double children_peak_rss_mb() { return max_rss_mb(RUSAGE_CHILDREN); }

// ------------------------------------------------------------------- spans

namespace {

std::atomic<std::uint64_t> g_tracer_ids{0};

struct ThreadCache {
  std::uint64_t tracer = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache t_cache;
thread_local std::uint64_t t_open_span = 0;

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()), id_(g_tracer_ids.fetch_add(1) + 1) {}

std::uint64_t Tracer::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
          .count());
}

Tracer::Buffer& Tracer::buffer() {
  if (t_cache.tracer != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->tid = static_cast<std::uint32_t>(buffers_.size());
    buffers_.back()->spans.reserve(1 << 14);
    t_cache.tracer = id_;
    t_cache.buffer = buffers_.back().get();
  }
  return *static_cast<Buffer*>(t_cache.buffer);
}

void Tracer::record(const Span& span) {
  Buffer& b = buffer();
  b.spans.push_back(span);
  b.spans.back().tid = b.tid;
}

std::map<std::string, Tracer::Stats> Tracer::summarize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, const Span*> by_serial;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) by_serial[s.serial] = &s;
  }
  std::map<std::uint64_t, double> child_ms;  // Same-thread child time by parent.
  for (const auto& [serial, s] : by_serial) {
    const auto parent = by_serial.find(s->parent);
    if (parent != by_serial.end() && parent->second->tid == s->tid) {
      child_ms[s->parent] += static_cast<double>(s->end_ns - s->start_ns) * 1e-6;
    }
  }
  std::map<std::string, Stats> out;
  for (const auto& [serial, s] : by_serial) {
    const double ms = static_cast<double>(s->end_ns - s->start_ns) * 1e-6;
    const auto child = child_ms.find(serial);
    const double self = ms - (child == child_ms.end() ? 0.0 : child->second);
    std::vector<std::string> keys{s->name};
    if (*s->tag != '\0') keys.push_back(std::string(s->name) + "/" + s->tag);
    for (const std::string& key : keys) {
      Stats& st = out[key];
      ++st.count;
      st.total_ms += ms;
      st.self_ms += self;
      st.durations_us.push_back(ms * 1e3);
    }
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace '" + path + "'");
  out << "{\"traceEvents\": [\n";
  bool first = true;
  char line[512];
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      std::snprintf(line, sizeof line,
                    "%s{\"name\": \"%s%s%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                    "\"span\": %llu, \"parent\": %llu}}",
                    first ? "" : ",\n", s.name, *s.tag != '\0' ? "/" : "", s.tag,
                    static_cast<unsigned>(s.tid), static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.serial),
                    static_cast<unsigned long long>(s.parent));
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
}

Scope::Scope(Tracer* tracer, const char* name, std::uint64_t id, const char* tag,
             std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.tag = tag;
  span_.id = id;
  span_.serial = tracer_->next_serial();
  span_.parent = parent != 0 ? parent : t_open_span;
  outer_ = t_open_span;
  t_open_span = span_.serial;
  span_.start_ns = tracer_->now_ns();
}

Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->now_ns();
  t_open_span = outer_;
  tracer_->record(span_);
}

// ------------------------------------------------------- the cell pipeline

const char* strategy_tag(const std::string& spec) {
  static std::mutex mutex;
  static std::set<std::string> interned;  // Node-stable: c_str() outlives spans.
  std::string tag = spec;
  std::replace(tag.begin(), tag.end(), ':', '-');
  if (tag == "pure" || tag == "norm") tag += "-ccne";
  std::lock_guard<std::mutex> lock(mutex);
  return interned.insert(std::move(tag)).first->c_str();
}

CellStats run_cell_decomposed(const CellInput& cell, Tracer* tracer, std::uint64_t id) {
  FEAST_REQUIRE(cell.batch.samples >= 1);
  FEAST_REQUIRE(cell.batch.pinned_fraction == 0.0 && !cell.batch.shape_machine);
  FEAST_REQUIRE(cell.context.core == SchedulerCore::Fast);
  const char* tag = cell.tag;
  Scope cell_span(tracer, "cell", id, tag);

  Machine machine;
  machine.n_procs = cell.n_procs;
  machine.time_per_item = cell.batch.time_per_item;
  machine.contention = cell.batch.contention;

  const auto n = static_cast<std::size_t>(cell.batch.samples);
  std::vector<RunResult> results(n);
  const std::uint64_t parent = cell_span.serial();
  parallel_for(n, [&](std::size_t sample) {
    Scope sample_span(tracer, "sample", id, tag, parent);
    Pcg32 rng = [&] {
      Scope s(tracer, "seed", id);
      return Pcg32(seed_for(cell.batch.seed, {0, sample}), /*stream=*/sample);
    }();
    const TaskGraph graph = [&] {
      Scope s(tracer, "generate", id);
      return generate_random_graph(cell.workload, rng);
    }();
    const DeadlineAssignment assignment = [&] {
      Scope s(tracer, "distribute", id, tag);
      return cell.strategy.make(cell.n_procs)->distribute(graph);
    }();
    if (cell.context.validate) {
      Scope s(tracer, "check_assignment", id);
      require_valid(check_assignment_basic(graph, assignment));
    }
    thread_local BatchScheduler scheduler;
    const Schedule* schedule = nullptr;
    {
      Scope s(tracer, "schedule", id);
      schedule = &scheduler.run_one(graph, assignment, machine, cell.context.scheduler);
    }
    if (cell.context.validate) {
      Scope s(tracer, "validate_schedule", id);
      require_valid(validate_schedule(graph, assignment, machine, *schedule,
                                      cell.context.scheduler));
    }
    RunResult& r = results[sample];
    {
      Scope s(tracer, "lateness", id);
      r.lateness = computation_lateness(graph, assignment, *schedule);
      r.end_to_end = end_to_end_lateness(graph, *schedule);
    }
    Scope s(tracer, "result", id);
    r.makespan = schedule->makespan();
    r.utilization = schedule->average_utilization();
    r.min_laxity = assignment.min_laxity(graph);
  });

  // The same reduction, in the same order, as run_custom_cell.
  Scope aggregate(tracer, "aggregate", id);
  RunningStats max_lateness;
  RunningStats end_to_end;
  RunningStats makespan;
  RunningStats min_laxity;
  std::size_t infeasible = 0;
  for (const RunResult& r : results) {
    max_lateness.add(r.lateness.max_lateness);
    end_to_end.add(r.end_to_end);
    makespan.add(r.makespan);
    min_laxity.add(r.min_laxity);
    if (!r.lateness.feasible()) ++infeasible;
  }
  CellStats stats;
  stats.max_lateness = max_lateness.summary();
  stats.end_to_end = end_to_end.summary();
  stats.makespan = makespan.summary();
  stats.min_laxity = min_laxity.summary();
  stats.infeasible_runs = infeasible;
  return stats;
}

namespace {

bool same_bits(const StatSummary& a, const StatSummary& b) {
  const double av[] = {a.mean, a.stddev, a.min, a.max, a.ci95_half_width};
  const double bv[] = {b.mean, b.stddev, b.min, b.max, b.ci95_half_width};
  return a.count == b.count && std::memcmp(av, bv, sizeof av) == 0;
}

double total_ms(const std::map<std::string, Tracer::Stats>& stats,
                const std::string& name) {
  const auto it = stats.find(name);
  return it == stats.end() ? 0.0 : it->second.total_ms;
}

/// The taskgraph/core/sched/experiment layer metrics from the spans of
/// run_cell_decomposed calls.
void add_cell_layer_metrics(const Tracer& tracer, Outcome& out) {
  const auto stats = tracer.summarize();
  // Sample time: every sample span plus the per-cell reduction.
  const double sample_ms = total_ms(stats, "sample") + total_ms(stats, "aggregate");
  const auto share = [&](double ms) { return sample_ms > 0.0 ? ms / sample_ms : 0.0; };
  const auto durations = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? std::vector<double>{} : it->second.durations_us;
  };

  const double generate = total_ms(stats, "generate");
  const double distribute = total_ms(stats, "distribute");
  const double check = total_ms(stats, "check_assignment");
  const double schedule = total_ms(stats, "schedule");
  const double validate = total_ms(stats, "validate_schedule");
  const double lateness = total_ms(stats, "lateness");
  const double glue = total_ms(stats, "seed") + total_ms(stats, "result") +
                      total_ms(stats, "aggregate");

  out.set("taskgraph.generate_ms", generate);
  out.set("core.distribute_ms", distribute);
  out.set("core.distribute_share", share(distribute));
  out.set("core.distribute_us_p50", quantile_of(durations("distribute"), 0.50));
  out.set("core.distribute_us_p99", quantile_of(durations("distribute"), 0.99));
  for (const char* tag : {"pure-ccne", "pure-ccaa", "norm-ccaa", "thres", "adapt"}) {
    out.set(std::string("core.distribute_ms.") + tag,
            total_ms(stats, std::string("distribute/") + tag));
  }
  out.set("core.validate_ms", check);
  out.set("sched.schedule_ms", schedule);
  out.set("sched.schedule_us_p50", quantile_of(durations("schedule"), 0.50));
  out.set("sched.validate_ms", validate);
  out.set("sched.validate_share", share(validate));
  out.set("sched.lateness_ms", lateness);
  out.set("experiment.sample_ms", sample_ms);
  out.set("experiment.glue_share", share(glue));
  out.set("experiment.accounted_share",
          share(generate + distribute + check + schedule + validate + lateness + glue));
  out.layers_json = layers_json(stats, sample_ms);
}

}  // namespace

bool same_bits(const CellStats& a, const CellStats& b) {
  return same_bits(a.max_lateness, b.max_lateness) &&
         same_bits(a.end_to_end, b.end_to_end) && same_bits(a.makespan, b.makespan) &&
         same_bits(a.min_laxity, b.min_laxity) && a.infeasible_runs == b.infeasible_runs;
}

double replay_cells(const std::vector<CellInput>& cells, Tracer& tracer, Outcome& out) {
  // Each cell runs untraced and traced back to back, in alternating order,
  // so the machine's drift over the replay cancels out of the overhead.
  double untraced_s = 0.0;
  double untraced_cpu_s = 0.0;
  double traced_s = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellInput& c = cells[i];
    CellStats expected;
    CellStats decomposed;
    for (const bool traced : {i % 2 == 1, i % 2 == 0}) {
      const double cpu_before = cpu_self_s();
      const auto started = Clock::now();
      if (traced) {
        decomposed = run_cell_decomposed(c, &tracer, i + 1);
        traced_s += seconds_since(started);
      } else {
        expected = execute_cell(c.workload, c.strategy, c.n_procs, c.batch, c.context,
                                /*cache=*/nullptr)
                       .stats;
        untraced_s += seconds_since(started);
        untraced_cpu_s += cpu_self_s() - cpu_before;
      }
    }
    ++out.attempted;
    if (!same_bits(decomposed, expected)) {
      out.fail("decomposed pipeline differs from execute_cell on cell " +
               std::to_string(i) + " (" + c.tag + ", " + std::to_string(c.n_procs) +
               " procs)");
    }
  }
  set_trace_overhead(out, untraced_s, traced_s);
  add_cell_layer_metrics(tracer, out);
  return untraced_cpu_s / untraced_s;
}

std::string layers_json(const std::map<std::string, Tracer::Stats>& stats,
                        double denominator_ms) {
  std::string out = "{";
  char buffer[256];
  bool first = true;
  for (const auto& [name, s] : stats) {
    std::snprintf(buffer, sizeof buffer,
                  "%s\n    \"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                  "\"self_ms\": %.6f, \"share\": %.6f}",
                  first ? "" : ",", name.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_ms, s.self_ms,
                  denominator_ms > 0.0 ? s.self_ms / denominator_ms : 0.0);
    out += buffer;
    first = false;
  }
  return out + "\n  }";
}

void set_trace_overhead(Outcome& out, double untraced_s, double traced_s) {
  out.set("e2e.trace_overhead_s", traced_s - untraced_s);
  out.set("e2e.trace_overhead_share", (traced_s - untraced_s) / untraced_s);
  char note[96];
  std::snprintf(note, sizeof note, "traced %.3f s, untraced %.3f s", traced_s,
                untraced_s);
  out.notes.push_back(note);
}

void maybe_write_trace(const Options& options, const Tracer& tracer,
                       const std::string& kind) {
  if (options.out_dir.empty()) return;
  tracer.write_chrome_trace(options.out_dir + "/" + options.workload + "." + kind +
                            ".json");
}

}  // namespace e2e
