/// \file perf_obs.cpp
/// \brief Overhead gate for the observability subsystem.
///
/// The list scheduler is permanently instrumented (spans + counters in
/// sched/list_scheduler.cpp), so the cost of that instrumentation with
/// *no sink installed* must stay in the noise.  This bench times the same
/// fig2-sized batch as perf_scheduler on both cores and can compare the
/// fast/reference speedup against the same optional absolute floors as
/// perf_scheduler (--require / --require-cf).  The reference core is
/// uninstrumented, so the speedup is a machine-normalized measure of the
/// instrumented fast core.  The floors are machine-dependent, so CI
/// leaves them off and records the speedups as advisory output.
///
/// The enabled-sink costs (aggregating sink, and capture_events for
/// Chrome traces) are measured in-binary — same machine, same run — and
/// optionally gated with --max-enabled-overhead-pct.  The committed
/// BENCH_scheduler.json baseline is read for the speedup-ratio report in
/// BENCH_obs.json; gating on it (--gate-baseline, margin
/// --max-overhead-pct) is only meaningful when the baseline was recorded
/// on the same machine — cross-machine speedups differ far more than any
/// instrumentation overhead (docs/OBSERVABILITY.md shows the measured
/// same-machine comparison).
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/comm_estimator.hpp"
#include "core/metrics.hpp"
#include "core/slicing.hpp"
#include "obs/obs.hpp"
#include "sched/batch.hpp"
#include "sched/list_scheduler.hpp"
#include "taskgraph/generator.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace feast;

struct Sample {
  TaskGraph graph;
  DeadlineAssignment assignment;
};

std::vector<Sample> make_batch(int samples, std::uint64_t seed) {
  const auto metric = make_pure();
  const auto estimator = make_ccne();
  std::vector<Sample> batch;
  batch.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    Pcg32 rng(seed_for(seed, {static_cast<std::uint64_t>(i)}));
    RandomGraphConfig config;  // fig2 defaults: 40-60 subtasks, MDET
    Sample sample;
    sample.graph = generate_random_graph(config, rng);
    sample.assignment = distribute_deadlines(sample.graph, *metric, *estimator);
    batch.push_back(std::move(sample));
  }
  return batch;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

/// Keeps the makespan checksums observable so the scheduling loops can't
/// be optimized away.
volatile double g_checksum_sink = 0.0;

/// Best-of-\p reps time for one core over the whole batch.
template <typename ScheduleOne>
double time_core(int reps, const ScheduleOne& schedule_one) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    g_checksum_sink = schedule_one();
    best = std::min(best, ms_since(t0));
  }
  return best;
}

struct CoreTimes {
  double ref_ms = 0.0;        ///< Reference core (uninstrumented).
  double fast_disabled_ms = 0.0;  ///< Fast core, no sink installed.
  double fast_enabled_ms = 0.0;   ///< Fast core, aggregating sink.
  double fast_capture_ms = 0.0;   ///< Fast core, event-capturing sink.

  double speedup() const {
    return fast_disabled_ms > 0.0 ? ref_ms / fast_disabled_ms : 0.0;
  }
  double enabled_overhead_pct() const {
    return fast_disabled_ms > 0.0
               ? (fast_enabled_ms / fast_disabled_ms - 1.0) * 100.0
               : 0.0;
  }
  double capture_overhead_pct() const {
    return fast_disabled_ms > 0.0
               ? (fast_capture_ms / fast_disabled_ms - 1.0) * 100.0
               : 0.0;
  }
};

CoreTimes time_batch(const std::vector<Sample>& batch, const Machine& machine,
                     const SchedulerOptions& options, int reps) {
  CoreTimes times;

  times.ref_ms = time_core(reps, [&] {
    double checksum = 0.0;
    for (const Sample& sample : batch) {
      checksum +=
          list_schedule_ref(sample.graph, sample.assignment, machine, options)
              .makespan();
    }
    return checksum;
  });

  // Same entry point perf_scheduler times: the batch scheduler in its
  // steady state (topologies built and selection caches filled on the
  // first rep; best-of-reps takes the warm passes).
  std::vector<const TaskGraph*> graphs;
  std::vector<const DeadlineAssignment*> assignments;
  for (const Sample& sample : batch) {
    graphs.push_back(&sample.graph);
    assignments.push_back(&sample.assignment);
  }
  BatchScheduler batch_sched;
  const auto run_fast = [&] {
    double checksum = 0.0;
    batch_sched.run(graphs.data(), assignments.data(), graphs.size(), machine,
                    options, [&checksum](std::size_t, const Schedule& schedule) {
                      checksum += schedule.makespan();
                    });
    return checksum;
  };

  if (obs::active() != nullptr) {
    std::cerr << "perf_obs: a sink is already installed; timings would lie\n";
    std::exit(1);
  }
  times.fast_disabled_ms = time_core(reps, run_fast);

  {
    obs::Sink sink;
    obs::ScopedSink scoped(sink);
    times.fast_enabled_ms = time_core(reps, run_fast);
  }
  {
    obs::Sink sink(/*capture_events=*/true);
    obs::ScopedSink scoped(sink);
    times.fast_capture_ms = time_core(reps, run_fast);
  }
  return times;
}

/// Reads shared_bus/contention_free speedups from a BENCH_scheduler.json.
bool read_baseline(const std::string& path, double& cf_speedup,
                   double& bus_speedup) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  try {
    const JsonValue root = parse_json(text.str());
    const JsonValue* cf = root.find("contention_free");
    const JsonValue* bus = root.find("shared_bus");
    if (cf == nullptr || bus == nullptr) return false;
    const JsonValue* cf_s = cf->find("speedup");
    const JsonValue* bus_s = bus->find("speedup");
    if (cf_s == nullptr || bus_s == nullptr) return false;
    cf_speedup = cf_s->number;
    bus_speedup = bus_s->number;
    return true;
  } catch (const std::exception& e) {
    std::cerr << "perf_obs: cannot parse " << path << ": " << e.what() << "\n";
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  int samples = 128;
  int reps = 5;
  int procs = 8;
  double require = 0.0;     ///< Shared-bus speedup floor (0 = off).
  double require_cf = 0.0;  ///< Contention-free speedup floor (0 = off).
  double max_enabled_overhead_pct = 0.0;  ///< Enabled-sink ceiling (0 = off).
  double max_overhead_pct = 3.0;          ///< Baseline-ratio margin.
  bool gate_baseline = false;
  std::string baseline_path = "BENCH_scheduler.json";
  std::string out_path = "BENCH_obs.json";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "perf_obs: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--samples") samples = std::stoi(next());
    else if (arg == "--reps") reps = std::stoi(next());
    else if (arg == "--procs") procs = std::stoi(next());
    else if (arg == "--require") require = std::stod(next());
    else if (arg == "--require-cf") require_cf = std::stod(next());
    else if (arg == "--max-enabled-overhead-pct")
      max_enabled_overhead_pct = std::stod(next());
    else if (arg == "--max-overhead-pct") max_overhead_pct = std::stod(next());
    else if (arg == "--gate-baseline") gate_baseline = true;
    else if (arg == "--baseline") baseline_path = next();
    else if (arg == "--out") out_path = next();
    else if (arg == "--quick") { samples = 32; reps = 3; }
    else {
      std::cerr << "usage: perf_obs [--samples N] [--reps N] [--procs N]"
                   " [--require X] [--require-cf Y]"
                   " [--max-enabled-overhead-pct X]"
                   " [--gate-baseline] [--max-overhead-pct X]"
                   " [--baseline FILE] [--out FILE] [--quick]\n";
      return 2;
    }
  }

  std::cout << "perf_obs: generating " << samples << " fig2-sized graphs...\n";
  const std::vector<Sample> batch = make_batch(samples, 42);

  Machine machine;
  machine.n_procs = procs;
  SchedulerOptions options;  // paper defaults: time-driven, EDF, gap-search

  std::cout << "timing contention-free batch (best of " << reps << ")...\n";
  const CoreTimes free_t = time_batch(batch, machine, options, reps);
  machine.contention = CommContention::SharedBus;
  std::cout << "timing shared-bus batch...\n";
  const CoreTimes bus_t = time_batch(batch, machine, options, reps);

  const auto show = [](const char* label, const CoreTimes& t) {
    std::cout << label << ": ref " << t.ref_ms << " ms, fast "
              << t.fast_disabled_ms << " ms (speedup " << t.speedup()
              << "x); sink enabled " << t.fast_enabled_ms << " ms (+"
              << t.enabled_overhead_pct() << "%), capturing " << t.fast_capture_ms
              << " ms (+" << t.capture_overhead_pct() << "%)\n";
  };
  show("contention-free", free_t);
  show("shared-bus     ", bus_t);

  double baseline_cf = 0.0;
  double baseline_bus = 0.0;
  const bool have_baseline = read_baseline(baseline_path, baseline_cf, baseline_bus);

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"obs\",\n"
      << "  \"samples\": " << samples << ",\n"
      << "  \"procs\": " << procs << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"max_overhead_pct\": " << max_overhead_pct << ",\n"
      << "  \"baseline\": {\"path\": \"" << baseline_path
      << "\", \"found\": " << (have_baseline ? "true" : "false")
      << ", \"contention_free_speedup\": " << baseline_cf
      << ", \"shared_bus_speedup\": " << baseline_bus << "},\n"
      << "  \"contention_free\": {\"ref_ms\": " << free_t.ref_ms
      << ", \"fast_disabled_ms\": " << free_t.fast_disabled_ms
      << ", \"fast_enabled_ms\": " << free_t.fast_enabled_ms
      << ", \"fast_capture_ms\": " << free_t.fast_capture_ms
      << ", \"speedup\": " << free_t.speedup()
      << ", \"enabled_overhead_pct\": " << free_t.enabled_overhead_pct() << "},\n"
      << "  \"shared_bus\": {\"ref_ms\": " << bus_t.ref_ms
      << ", \"fast_disabled_ms\": " << bus_t.fast_disabled_ms
      << ", \"fast_enabled_ms\": " << bus_t.fast_enabled_ms
      << ", \"fast_capture_ms\": " << bus_t.fast_capture_ms
      << ", \"speedup\": " << bus_t.speedup()
      << ", \"enabled_overhead_pct\": " << bus_t.enabled_overhead_pct() << "}\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";

  bool ok = true;

  // Primary gate: the instrumented fast core (sinks disabled) must clear
  // the same absolute machine-normalized speedup floors CI applies to
  // perf_scheduler.  Disabled-sink overhead would push it below them.
  if (require > 0.0 && bus_t.speedup() < require) {
    std::cerr << "perf_obs: shared-bus speedup " << bus_t.speedup()
              << "x is below the required " << require << "x\n";
    ok = false;
  }
  if (require_cf > 0.0 && free_t.speedup() < require_cf) {
    std::cerr << "perf_obs: contention-free speedup " << free_t.speedup()
              << "x is below the required " << require_cf << "x\n";
    ok = false;
  }

  // Enabled-sink gate: measured in this binary, so same machine and run.
  const auto gate_enabled = [&](const char* label, const CoreTimes& t) {
    if (max_enabled_overhead_pct <= 0.0) return;
    if (t.enabled_overhead_pct() > max_enabled_overhead_pct) {
      std::cerr << "perf_obs: " << label << " enabled-sink overhead "
                << t.enabled_overhead_pct() << "% exceeds the allowed "
                << max_enabled_overhead_pct << "%\n";
      ok = false;
    }
  };
  gate_enabled("contention-free", free_t);
  gate_enabled("shared-bus", bus_t);

  // Baseline ratio: reported always, gated only on request (the baseline
  // must come from the same machine for the ratio to mean anything).
  if (have_baseline) {
    const double floor = 1.0 - max_overhead_pct / 100.0;
    const auto compare = [&](const char* label, double current, double baseline) {
      if (baseline <= 0.0) return;
      const double ratio = current / baseline;
      std::cout << label << " speedup " << current << "x vs baseline " << baseline
                << "x (ratio " << ratio << ")\n";
      if (gate_baseline && ratio < floor) {
        std::cerr << "perf_obs: " << label
                  << " speedup regressed beyond the allowed " << max_overhead_pct
                  << "% of the baseline\n";
        ok = false;
      }
    };
    compare("contention-free", free_t.speedup(), baseline_cf);
    compare("shared-bus", bus_t.speedup(), baseline_bus);
  } else {
    std::cout << "perf_obs: no baseline at " << baseline_path
              << "; ratio report skipped\n";
  }
  return ok ? 0 : 1;
}
