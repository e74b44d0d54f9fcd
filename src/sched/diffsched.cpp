#include "sched/diffsched.hpp"

#include <array>
#include <ostream>
#include <sstream>

#include "core/comm_estimator.hpp"
#include "core/metrics.hpp"
#include "core/slicing.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/schedule_validate.hpp"
#include "sched/trace.hpp"
#include "taskgraph/generator.hpp"
#include "util/rng.hpp"

namespace feast {

namespace {

constexpr std::uint64_t kDiffStream = 0xD1FFU;

constexpr std::array<ReleasePolicy, 2> kReleases = {ReleasePolicy::TimeDriven,
                                                    ReleasePolicy::Eager};
constexpr std::array<SelectionPolicy, 3> kSelections = {
    SelectionPolicy::Edf, SelectionPolicy::Fifo, SelectionPolicy::StaticLaxity};
constexpr std::array<ProcessorPolicy, 2> kProcessors = {ProcessorPolicy::GapSearch,
                                                        ProcessorPolicy::QueueAtEnd};

/// One randomized workload: graph + windows + machine.
struct Workload {
  TaskGraph graph;
  DeadlineAssignment assignment;
  Machine machine;
  std::string describe;  ///< Reproducer text for failure reports.
};

Workload make_workload(std::uint64_t root, int trial, bool quick) {
  Pcg32 rng(seed_for(root, {kDiffStream, static_cast<std::uint64_t>(trial)}));

  RandomGraphConfig config;
  // Three size classes: small graphs shake out edge cases (joins, single
  // chains) fast; the fig2-sized class exercises the paper's workload.
  const int size_class = quick ? rng.uniform_int(0, 1) : rng.uniform_int(0, 2);
  switch (size_class) {
    case 0:
      config.min_subtasks = 5;
      config.max_subtasks = 14;
      config.min_depth = 2;
      config.max_depth = 5;
      break;
    case 1:
      config.min_subtasks = 15;
      config.max_subtasks = 30;
      config.min_depth = 4;
      config.max_depth = 8;
      break;
    default:
      break;  // paper defaults: 40-60 subtasks, depth 8-12
  }
  const auto scenario = static_cast<ExecSpreadScenario>(rng.uniform_int(0, 2));
  config.set_scenario(scenario);
  constexpr std::array<double, 3> kCcrs = {0.1, 1.0, 5.0};
  constexpr std::array<double, 3> kOlrs = {1.1, 1.5, 3.0};
  config.ccr = kCcrs[rng.uniform_index(kCcrs.size())];
  config.olr = kOlrs[rng.uniform_index(kOlrs.size())];
  if (rng.uniform_int(0, 3) == 0) config.strict_fanin_cap = true;

  Workload w;
  w.graph = generate_random_graph(config, rng);

  w.machine.n_procs = rng.uniform_int(2, quick ? 6 : 16);
  w.machine.contention = static_cast<CommContention>(rng.uniform_int(0, 2));
  if (rng.uniform_int(0, 3) == 0) {
    w.machine.speeds.reserve(static_cast<std::size_t>(w.machine.n_procs));
    for (int p = 0; p < w.machine.n_procs; ++p) {
      w.machine.speeds.push_back(rng.uniform_real(0.5, 2.0));
    }
  }

  // Locality mix: fully relaxed, the paper's partially-pinned middle
  // ground, and fully strict (every subtask pinned — exercises the pinned
  // bypass in both cores).
  constexpr std::array<double, 3> kPinned = {0.0, 0.25, 1.0};
  const double pinned = kPinned[rng.uniform_index(kPinned.size())];
  if (pinned > 0.0) {
    pin_random_fraction(w.graph, pinned, w.machine.n_procs, rng);
  }

  std::unique_ptr<SliceMetric> metric;
  const char* metric_name = "?";
  switch (rng.uniform_int(0, 3)) {
    case 0:
      metric = make_pure();
      metric_name = "pure";
      break;
    case 1:
      metric = make_norm();
      metric_name = "norm";
      break;
    case 2:
      metric = make_thres(1.0);
      metric_name = "thres";
      break;
    default:
      metric = make_adapt(w.machine.n_procs);
      metric_name = "adapt";
      break;
  }
  const bool ccaa = rng.uniform_int(0, 1) == 1;
  const auto estimator = ccaa ? make_ccaa(w.machine.time_per_item) : make_ccne();
  w.assignment = distribute_deadlines(w.graph, *metric, *estimator);

  std::ostringstream os;
  os << "trial " << trial << ": " << w.graph.subtask_count() << " subtasks, "
     << to_string(scenario) << ", ccr=" << config.ccr << ", olr=" << config.olr
     << ", procs=" << w.machine.n_procs
     << (w.machine.homogeneous() ? "" : " (heterogeneous)")
     << ", contention=" << to_string(w.machine.contention) << ", pinned=" << pinned
     << ", metric=" << metric_name << ", estimator=" << (ccaa ? "ccaa" : "ccne");
  w.describe = os.str();
  return w;
}

}  // namespace

DiffSchedResult run_diffsched(const DiffSchedConfig& config, std::ostream* progress) {
  DiffSchedResult result;
  result.combos = static_cast<int>(kReleases.size() * kSelections.size() *
                                   kProcessors.size());
  SchedulerScratch scratch;  // one arena reused across every fast-core run

  auto note = [&result](const std::string& text) {
    ++result.mismatches;
    if (result.first_problem.empty()) result.first_problem = text;
  };

  for (int trial = 0; trial < config.trials; ++trial) {
    const Workload w = make_workload(config.seed, trial, config.quick);

    for (const ReleasePolicy release : kReleases) {
      for (const SelectionPolicy selection : kSelections) {
        for (const ProcessorPolicy processor : kProcessors) {
          const SchedulerOptions options{release, selection, processor};
          const Schedule ref =
              list_schedule_ref(w.graph, w.assignment, w.machine, options);
          ++result.schedules;
          {
            const ScheduleReport report =
                validate_schedule(w.graph, w.assignment, w.machine, ref, options);
            if (!report.ok()) {
              ++result.invalid;
              if (result.first_problem.empty()) {
                result.first_problem = w.describe + ", " + to_string(release) +
                                       "/" + to_string(selection) + "/" +
                                       to_string(processor) +
                                       ": reference schedule invalid: " +
                                       report.to_string();
              }
            }
          }
          const Schedule fast =
              list_schedule(w.graph, w.assignment, w.machine, options, scratch);
          ++result.schedules;

          std::string why;
          if (!schedule_trace_equal(w.graph, ref, fast, &why)) {
            std::ostringstream os;
            os << w.describe << ", " << to_string(release) << "/"
               << to_string(selection) << "/" << to_string(processor) << " (seed "
               << config.seed << "): trace mismatch at " << why;
            note(os.str());
          }
          const ScheduleReport report =
              validate_schedule(w.graph, w.assignment, w.machine, fast, options);
          if (!report.ok()) {
            ++result.invalid;
            if (result.first_problem.empty()) {
              result.first_problem = w.describe + ", " + to_string(release) + "/" +
                                     to_string(selection) + "/" +
                                     to_string(processor) +
                                     ": fast schedule invalid: " + report.to_string();
            }
          }
        }
      }
    }

    ++result.trials;
    if (progress != nullptr && (trial + 1) % 100 == 0) {
      *progress << "  " << (trial + 1) << "/" << config.trials << " trials, "
                << result.schedules << " schedules, " << result.mismatches
                << " mismatches\n";
    }
  }

  if (progress != nullptr) {
    *progress << "diffsched: " << result.trials << " trials x " << result.combos
              << " policy combos x 2 cores (" << result.schedules
              << " schedules): " << result.mismatches << " trace mismatches, "
              << result.invalid << " invalid schedules\n";
    if (!result.first_problem.empty()) {
      *progress << "first problem: " << result.first_problem << "\n";
    }
  }
  return result;
}

}  // namespace feast
