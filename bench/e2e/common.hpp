/// \file common.hpp
/// \brief Shared pieces of the end-to-end benchmark program: run options,
///        the outcome every workload returns, benchmark-side spans, process
///        accounting, and the decomposed cell pipeline.
///
/// Every number is measured from outside the program: spans wrap calls
/// into each layer's public functions, CPU and memory come from getrusage
/// and /proc, and subprocess layers are timed around the process boundary.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "experiment/strategy.hpp"
#include "experiment/sweep.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Parsed command line of one run.  Every workload does a fixed amount of
/// work, the same on every commit: the full size measures about 15 s
/// untraced on the reference machine, the smoke size a fraction of a second.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;     ///< Per-layer (traced) run instead of end-to-end.
  bool smoke = false;     ///< Toy sizes, for the ctest smoke run.
  std::string work_dir;   ///< Private work directory of this run (created, removed).
  std::string out_dir;    ///< Results JSON and Chrome trace ("" = none).
  std::string feastc;     ///< The feastc binary workers and daemons run.

  /// \p full at full size, \p toy at smoke size.
  template <typename T>
  T size(T full, T toy) const noexcept {
    return smoke ? toy : full;
  }
  /// How often an untraced run sets up; setup_s is the median.
  int setup_runs() const noexcept { return size(5, 1); }
};

/// What one workload run measured and checked.
struct Outcome {
  std::uint64_t attempted = 0;  ///< Operations attempted.
  std::uint64_t failed = 0;     ///< Failed, refused or check-failed operations.
  std::vector<std::string> problems;  ///< Failed checks, for the log.
  std::map<std::string, double> metrics;
  /// Human-readable facts the metric values depend on (tail percentile and
  /// its sample count, pass counts), printed and written to the results.
  std::vector<std::string> notes;
  /// Per-span aggregates of a traced run: name -> {count, total, self, share}.
  std::string layers_json;

  bool correct() const noexcept { return problems.empty(); }
  void fail(const std::string& what) {
    problems.push_back(what);
    ++failed;
  }
  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// Throughput and CPU cost of the timed work, measured slice by slice: each
/// slice's wall and CPU time is scaled to the reference machine speed
/// measured just before it (machine_speed), then summed.
struct Slices {
  std::size_t count = 0;
  double work = 0.0;    ///< Units of work.
  double wall_s = 0.0;  ///< Scaled wall seconds.
  double cpu_s = 0.0;   ///< Scaled CPU seconds.

  void add(double slice_work, double slice_wall_s, double slice_cpu_s, double speed) {
    ++count;
    work += slice_work;
    wall_s += slice_wall_s * speed;
    cpu_s += slice_cpu_s * speed;
  }
  /// Sets work_per_s (work / wall) and cpu_ms_per_work (CPU / work).
  void report(Outcome& out) const;
};

// ------------------------------------------------------------------ timing

double seconds_between(Clock::time_point from, Clock::time_point to);
double seconds_since(Clock::time_point from);

/// How fast this machine runs code right now, relative to the machine the
/// baseline was recorded on: the reference time of a fixed calibration loop
/// (a sort, no repository code) over its measured time.  A shared machine's
/// speed moves by up to 50% for tens of seconds at a time, and every timing
/// with it; a timing multiplied by the speed measured just before it (a
/// rate divided by it) is steady to a few percent.  Not thread-safe; about
/// 7 ms per call.
double machine_speed();

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile_of(std::vector<double> sample, double q);

/// CPU seconds (user + system) of this process.
double cpu_self_s();
/// CPU seconds of reaped children (and the children they reaped).
double cpu_children_s();
/// CPU seconds of process \p pid and its reaped children, from /proc.
double cpu_of_pid_s(pid_t pid);
/// The larger of this process's and its reaped children's peak RSS, in MB.
double peak_rss_mb();
/// The peak RSS of the largest reaped child (or descendant it reaped), in MB.
double children_peak_rss_mb();

// ------------------------------------------------------------------- spans

/// Benchmark-side spans: name, start, end, thread, parent and a group id
/// shared by the spans of one cell, schedule batch or request.  Spans stay
/// in per-thread memory and are summarized or written as a Chrome trace
/// once the traced work has joined.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    const char* tag = "";  ///< Optional refinement, e.g. the strategy.
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t serial = 0;  ///< Unique, > 0.
    std::uint64_t parent = 0;  ///< Serial of the enclosing span, 0 = none.
    std::uint64_t id = 0;      ///< Group id (cell, batch or request).
    std::uint32_t tid = 0;
  };

  /// Per-name aggregate.  Self time subtracts same-thread children.
  struct Stats {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::vector<double> durations_us;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t now_ns() const noexcept;
  std::uint64_t next_serial() noexcept { return serial_.fetch_add(1) + 1; }
  void record(const Span& span);

  /// Aggregates by span name, and by "name/tag" for tagged spans.
  std::map<std::string, Stats> summarize() const;

  /// Chrome trace_event JSON; one row per recording thread.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t tid = 0;
    std::vector<Span> spans;
  };
  Buffer& buffer();

  Clock::time_point epoch_;
  std::uint64_t id_;
  std::atomic<std::uint64_t> serial_{0};
  mutable std::mutex mutex_;  ///< Guards buffers_.
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a null tracer makes it a no-op.  The parent defaults to the
/// calling thread's innermost open span; pass one explicitly to link work
/// handed to another thread.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t id, const char* tag = "",
        std::uint64_t parent = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t serial() const noexcept { return span_.serial; }

 private:
  Tracer* tracer_;
  Tracer::Span span_;
  std::uint64_t outer_ = 0;
};

// ------------------------------------------------------- the cell pipeline

/// One experiment cell: what execute_cell evaluates.
struct CellInput {
  feast::RandomGraphConfig workload;
  feast::Strategy strategy;
  const char* tag = "";  ///< Strategy key from strategy_tag().
  int n_procs = 2;
  feast::BatchConfig batch;
  feast::RunContext context;
};

/// Span tag of a campaign strategy spec, interned for the process lifetime:
/// "pure" -> "pure-ccne", "norm:ccaa" -> "norm-ccaa", "thres" -> "thres".
const char* strategy_tag(const std::string& spec);

/// Evaluates \p cell through the pipeline's public functions one call at a
/// time — generate_random_graph, Strategy::make + distribute,
/// check_assignment_basic, BatchScheduler::run_one, validate_schedule,
/// computation/end-to-end lateness — under the same parallel_for and with
/// the same seeds as execute_cell, whose CellStats it must equal bit for
/// bit.  With a tracer, each call is a span grouped under \p id.
feast::CellStats run_cell_decomposed(const CellInput& cell, Tracer* tracer,
                                     std::uint64_t id);

/// True when every field of \p a and \p b has the same bits.
bool same_bits(const feast::CellStats& a, const feast::CellStats& b);

/// The traced replay of \p cells: each cell through execute_cell untraced
/// and through run_cell_decomposed traced, whose result must equal
/// execute_cell's bit for bit.  Sets the taskgraph, core, sched and
/// experiment layer metrics, the layer table and the tracing overhead.
/// Returns CPU-seconds per wall-second of the untraced runs.
double replay_cells(const std::vector<CellInput>& cells, Tracer& tracer, Outcome& out);

/// Renders Tracer::summarize() as the results' layer table; shares are
/// self time over \p denominator_ms.
std::string layers_json(const std::map<std::string, Tracer::Stats>& stats,
                        double denominator_ms);

/// Sets e2e.trace_overhead_{s,share}: traced minus untraced wall time of
/// the same work, run interleaved so the machine's drift cancels.
void set_trace_overhead(Outcome& out, double untraced_s, double traced_s);

/// Writes \p tracer's spans as a Chrome trace to
/// <out_dir>/<workload>.<kind>.json, when the run has an output directory.
void maybe_write_trace(const Options& options, const Tracer& tracer,
                       const std::string& kind = "trace");

// -------------------------------------------------------------- workloads

Outcome run_cells_slicing(const Options& options);
Outcome run_sched_replay(const Options& options);
Outcome run_campaign_isolated(const Options& options);
Outcome run_serve_mixed(const Options& options);

}  // namespace e2e
