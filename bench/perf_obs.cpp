/// \file perf_obs.cpp
/// \brief Overhead gate for the observability subsystem.
///
/// The list scheduler is permanently instrumented (spans + counters in
/// sched/list_scheduler.cpp).  This bench times a fig2-sized batch (PURE/CCNE
/// windows) through BatchScheduler three times, with no sink, with an
/// aggregating sink and with an event-capturing sink (Chrome traces), all in
/// one binary and one run, so the overheads compare like with like.
/// --max-enabled-overhead-pct gates the enabled-sink cost against the
/// disabled run.  The disabled-sink cost has no same-run baseline, so it is
/// not gated: the fast/reference speedup (the reference core is
/// uninstrumented) is printed as advisory output, since it varies across
/// machines and runs.  Emits BENCH_obs.json.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/comm_estimator.hpp"
#include "core/metrics.hpp"
#include "core/slicing.hpp"
#include "obs/obs.hpp"
#include "sched/batch.hpp"
#include "sched/list_scheduler.hpp"
#include "taskgraph/generator.hpp"
#include "util/flags.hpp"
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

  // The fast core runs through the batch scheduler in its steady state.
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
  // An untimed pass builds the topologies and fills the selection caches,
  // so every timed pass below is a warm one.  The three sink modes then
  // take turns within each rep, so drift in the machine's speed over the
  // run hits them alike; each keeps its best rep.
  g_checksum_sink = run_fast();
  obs::Sink enabled;
  obs::Sink capturing(/*capture_events=*/true);
  const auto time_with = [&](obs::Sink* sink) {
    std::optional<obs::ScopedSink> scoped;
    if (sink != nullptr) scoped.emplace(*sink);
    return time_core(1, run_fast);
  };
  times.fast_disabled_ms = times.fast_enabled_ms = times.fast_capture_ms = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    times.fast_disabled_ms = std::min(times.fast_disabled_ms, time_with(nullptr));
    times.fast_enabled_ms = std::min(times.fast_enabled_ms, time_with(&enabled));
    times.fast_capture_ms = std::min(times.fast_capture_ms, time_with(&capturing));
  }
  return times;
}

}  // namespace

int main(int argc, char** argv) {
  int samples = 128;
  int reps = 5;
  int procs = 8;
  double max_enabled_overhead_pct = 0.0;  ///< Enabled-sink ceiling (0 = off).
  std::string out_path = "BENCH_obs.json";

  Flags flags;
  flags.number("--samples", "N", "graphs in the batch (default 128)", samples,
               Bound::positive())
      .number("--reps", "N", "timed repetitions, best kept (default 5)", reps,
              Bound::positive())
      .number("--procs", "N", "processors (default 8)", procs, Bound::positive())
      .number("--max-enabled-overhead-pct", "X",
              "enabled-sink overhead ceiling (default 0 = off)",
              max_enabled_overhead_pct, Bound::non_negative())
      .text("--out", "FILE", "JSON output (default BENCH_obs.json)", out_path)
      .action("--quick", "32 samples, 3 reps", [&] {
        samples = 32;
        reps = 3;
      });
  try {
    flags.parse(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const UsageError& e) {
    std::cerr << "perf_obs: " << e.what() << "\nusage: perf_obs [options]\n";
    std::vector<Flags::HelpLine> lines;
    flags.help(lines, 32);
    for (const Flags::HelpLine& line : lines) std::cerr << line.text << "\n";
    return 2;
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

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"obs\",\n"
      << "  \"samples\": " << samples << ",\n"
      << "  \"procs\": " << procs << ",\n"
      << "  \"reps\": " << reps << ",\n"
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

  // The gate: the enabled-sink cost, measured in this binary (same machine,
  // same run) against the disabled-sink timing.
  bool ok = true;
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
  return ok ? 0 : 1;
}
