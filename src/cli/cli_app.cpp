#include "cli/cli_app.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "campaign/campaign.hpp"

#include "check/chaos.hpp"
#include "check/fault.hpp"
#include "check/torture.hpp"
#include "core/annotation_io.hpp"
#include "experiment/figures.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"
#include "core/comm_estimator.hpp"
#include "core/demand.hpp"
#include "core/diffdist.hpp"
#include "core/distribution_validate.hpp"
#include "core/metrics.hpp"
#include "core/slicing.hpp"
#include "exact/exact.hpp"
#include "exact/gap.hpp"
#include "serve/client.hpp"
#include "serve/remote_worker.hpp"
#include "serve/server.hpp"
#include "sim/runtime_sim.hpp"
#include "supervise/supervisor.hpp"
#include "sched/diffsched.hpp"
#include "sched/gantt.hpp"
#include "sched/lateness.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/report.hpp"
#include "sched/schedule_validate.hpp"
#include "taskgraph/algorithms.hpp"
#include "taskgraph/dot.hpp"
#include "taskgraph/generator.hpp"
#include "taskgraph/serialize.hpp"
#include "taskgraph/shapes.hpp"
#include "taskgraph/validate.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace feast {

namespace {

/// Exit codes.
constexpr int kOk = 0;
constexpr int kFailure = 1;
constexpr int kUsage = 2;
/// Supervised campaign completed but quarantined poison cells (degraded).
constexpr int kDegraded = 3;
/// A drain signal (SIGINT/SIGTERM) stopped a supervised campaign; the
/// manifest on disk is a resumable checkpoint.  128+SIGINT by convention.
constexpr int kInterrupted = 130;

// Help sections, each a title a row renders under; kSections lists them in
// help order.
const char* const kCommonSection = "common options:";
const char* const kGenerateSection = "generate options:";
const char* const kDistributeSection = "distribute options:";
const char* const kScheduleSection = "schedule options:";
const char* const kSimulateSection = "simulate options (plus the common options):";
const char* const kCampaignSection =
    "campaign subcommands (spec format and manifest schema: docs/CAMPAIGN.md):";
const char* const kSuperviseSection =
    "campaign supervision (docs/ROBUSTNESS.md; exit 3 = completed degraded,\n"
    "130 = drained on SIGINT/SIGTERM with a resumable checkpoint):";
const char* const kExactSection =
    "exact subcommands (search design and bound derivations: docs/EXACT.md):";
const char* const kProfileSection =
    "profile options (span taxonomy: docs/OBSERVABILITY.md):";
const char* const kDiffschedSection =
    "diffsched options (trace contract: docs/SCHEDULER.md):";
const char* const kDiffdistSection =
    "diffdist options (finder contract: docs/ALGORITHM.md):";
const char* const kServeSection =
    "serve options (protocol and endpoints: docs/SERVE.md; exit 130 = drained on\n"
    "SIGINT/SIGTERM with resumable campaign checkpoints):";
const char* const kFabricSection =
    "serve distributed-worker fabric (docs/SERVE.md, \"Distributed workers\"):";
const char* const kSubmitSection =
    "submit options (exit 3 = campaign completed degraded):";
const char* const kWorkerSection =
    "worker options (remote peer of a serve daemon; docs/SERVE.md):";
const char* const kTortureSection = "torture options (protocol: docs/TESTING.md):";
const char* const kChaosSection =
    "chaos options (networked fabric torture; docs/ROBUSTNESS.md):";

const char* const kSections[] = {
    kCommonSection,   kGenerateSection,  kDistributeSection, kScheduleSection,
    kSimulateSection, kCampaignSection,  kSuperviseSection,  kExactSection,
    kProfileSection,  kDiffschedSection, kDiffdistSection,   kServeSection,
    kFabricSection,   kSubmitSection,    kWorkerSection,     kTortureSection,
    kChaosSection,
};

/// Column where a flag's help text starts.
constexpr std::size_t kHelpColumn = 26;

/// `--help` or `-h` where a flag or a verb is expected (not as a flag's
/// value): run_cli prints the command's usage and exits 0.
struct HelpRequest {};

/// One run of a command: the arguments after the command word.  In help
/// mode a command declares its rows and returns before doing anything.
struct Cli {
  std::vector<std::string> args;
  std::istream& in;
  std::ostream& out;
  std::vector<Flags::HelpLine>* help = nullptr;

  /// Applies the arguments to \p flags, plus the unlisted `--help` and
  /// `-h`; in help mode collects its rows instead and returns false.
  bool parse(Flags& flags) {
    if (help != nullptr) {
      flags.help(*help, kHelpColumn);
      return false;
    }
    flags.action("--help", "", [] { throw HelpRequest(); })
        .action("-h", "", [] { throw HelpRequest(); });
    flags.parse(args);
    return true;
  }

  /// Takes the verb of a command with subcommands; \p missing is the
  /// usage error when there is none.
  std::string verb(const char* missing) {
    if (args.empty()) throw UsageError(missing);
    std::string word = args.front();
    args.erase(args.begin());
    if (word == "--help" || word == "-h") throw HelpRequest();
    return word;
  }
};

const std::vector<std::pair<const char*, CommContention>> kContentions{
    {"free", CommContention::ContentionFree},
    {"bus", CommContention::SharedBus},
    {"links", CommContention::PointToPointLinks},
};

const std::vector<std::pair<const char*, ExecSpreadScenario>> kScenarios{
    {"LDET", ExecSpreadScenario::LDET},
    {"MDET", ExecSpreadScenario::MDET},
    {"HDET", ExecSpreadScenario::HDET},
};

/// Parses a --faults spec ("" = none) into \p plan; a malformed spec is a
/// usage error.
void parse_faults_arg(const std::string& spec, std::optional<check::FaultPlan>& plan) {
  if (spec.empty()) return;
  try {
    plan.emplace(spec);
  } catch (const std::invalid_argument& e) {
    throw UsageError(std::string("--faults: ") + e.what());
  }
}

/// The `<graph>` argument of the graph commands: a file, or '-' for stdin.
struct GraphArg {
  std::optional<std::string> path;

  void declare(Flags& flags) {
    flags.section(kCommonSection)
        .note("<graph>", "graph file, or '-' for stdin")
        .positional(path, /*stdin_dash=*/true);
  }

  TaskGraph load(const std::string& command, std::istream& in) const {
    if (!path) throw UsageError(command + ": missing graph argument");
    if (*path == "-") return read_task_graph(in);
    std::ifstream file(*path);
    if (!file) throw std::runtime_error("cannot open '" + *path + "'");
    return read_task_graph(file);
  }
};

/// Distribution-related options shared by distribute/schedule/simulate and
/// exact solve.
struct MetricOptions {
  std::string metric = "pure";
  double delta = 1.0;
  double threshold = 1.25;
  std::string estimator = "ccne";
  int procs = 4;

  void declare(Flags& flags) {
    flags.section(kCommonSection)
        .choice("--metric", "M", "pure | norm | thres | adapt   (default pure)",
                {"pure", "norm", "thres", "adapt"}, metric)
        .number("--delta", "D", "THRES surplus factor          (default 1)", delta)
        .number("--threshold", "F", "threshold factor x MET        (default 1.25)",
                threshold)
        .choice("--estimator", "E", "ccne | ccaa                   (default ccne)",
                {"ccne", "ccaa"}, estimator)
        .number("--procs", "N", "system size                   (default 4)",
                procs, Bound::positive());
  }

  std::unique_ptr<SliceMetric> make_metric() const {
    if (metric == "norm") return make_norm();
    if (metric == "thres") return make_thres(delta, threshold);
    if (metric == "adapt") return make_adapt(procs, threshold);
    return make_pure();
  }

  std::unique_ptr<CommCostEstimator> make_estimator() const {
    return estimator == "ccaa" ? make_ccaa() : make_ccne();
  }
};

/// The contention and release-policy rows schedule and exact solve share.
void declare_policies(Flags& flags, Machine& machine, SchedulerOptions& options) {
  flags.section(kScheduleSection)
      .choice("--contention", "C", "free | bus | links            (default free)",
              kContentions, machine.contention)
      .choice("--release", "R", "time-driven | eager           (default time-driven)",
              {{"time-driven", ReleasePolicy::TimeDriven},
               {"eager", ReleasePolicy::Eager}},
              options.release_policy);
}

/// The watchdog rows `campaign run` and `serve` share (SupervisorOptions
/// and ServeOptions name these fields alike).
template <class WorkerOptions>
void declare_watchdog(Flags& flags, WorkerOptions& options) {
  flags.number("--cell-timeout", "S", "watchdog deadline per attempt  (default 0 = off)",
               options.cell_timeout_s, Bound::non_negative())
      .number("--term-grace", "S", "SIGTERM -> SIGKILL escalation  (default 2)",
              options.term_grace_s, Bound::non_negative())
      .number("--drain-grace", "S", "drain wait for in-flight work  (default 10)",
              options.drain_grace_s, Bound::non_negative());
}

// ----------------------------------------------------------------- generate

int cmd_generate(Cli& cli) {
  std::uint64_t seed = 1;
  std::string shape = "random";
  ExecSpreadScenario scenario = ExecSpreadScenario::MDET;
  RandomGraphConfig config;
  Flags flags("generate");
  flags.section(kGenerateSection)
      .number("--seed", "S", "RNG seed                      (default 1)", seed)
      .choice("--shape", "K",
              "random | chain | in-tree | out-tree | fork-join |\n"
              "diamond                       (default random)",
              {"random", "chain", "in-tree", "out-tree", "fork-join", "diamond"}, shape)
      .choice("--scenario", "X", "LDET | MDET | HDET            (default MDET)",
              kScenarios, scenario)
      .range("--subtasks", "A:B", "subtask-count range           (default 40:60)",
             config.min_subtasks, config.max_subtasks, Bound::positive())
      .range("--depth", "A:B", "level-count range             (default 8:12)",
             config.min_depth, config.max_depth, Bound::positive())
      .number("--ccr", "C", "comm-to-computation ratio     (default 1.0)", config.ccr)
      .number("--olr", "O", "overall laxity ratio          (default 1.5)", config.olr);
  if (!cli.parse(flags)) return kOk;

  config.set_scenario(scenario);
  ShapeConfig shape_config;
  shape_config.exec_spread = config.exec_spread;
  shape_config.ccr = config.ccr;
  shape_config.olr = config.olr;
  Pcg32 rng(seed);
  TaskGraph graph;
  if (shape == "random") graph = generate_random_graph(config, rng);
  else if (shape == "chain") graph = make_chain(20, shape_config, rng);
  else if (shape == "in-tree") graph = make_in_tree(5, 2, shape_config, rng);
  else if (shape == "out-tree") graph = make_out_tree(5, 2, shape_config, rng);
  else if (shape == "fork-join") graph = make_fork_join(3, 5, 2, shape_config, rng);
  else graph = make_diamond(8, shape_config, rng);

  write_task_graph(cli.out, graph);
  return kOk;
}

// --------------------------------------------------------------------- info

int cmd_info(Cli& cli) {
  GraphArg graph_arg;
  Flags flags("info");
  graph_arg.declare(flags);
  if (!cli.parse(flags)) return kOk;

  std::ostream& out = cli.out;
  const TaskGraph graph = graph_arg.load("info", cli.in);
  out << "subtasks:        " << graph.subtask_count() << "\n";
  out << "messages:        " << graph.comm_count() << "\n";
  out << "inputs/outputs:  " << graph.inputs().size() << " / " << graph.outputs().size()
      << "\n";
  out << "depth:           " << depth(graph) << " levels\n";
  out << "workload:        " << format_compact(graph.total_workload(), 3) << "\n";
  out << "mean exec time:  " << format_compact(graph.mean_exec_time(), 3) << "\n";
  out << "critical path:   "
      << format_compact(longest_path_length(graph, computation_cost), 3) << "\n";
  out << "parallelism xi:  " << format_fixed(average_parallelism(graph), 2) << "\n";
  std::size_t pinned = 0;
  for (const NodeId id : graph.computation_nodes()) {
    if (graph.node(id).pinned.valid()) ++pinned;
  }
  out << "pinned subtasks: " << pinned << "\n";

  const ValidationReport report = validate_for_distribution(graph);
  if (report.ok()) {
    out << "validation:      ok (ready for distribution)\n";
    return kOk;
  }
  out << "validation:      FAILED\n" << report.to_string() << "\n";
  return kFailure;
}
// --------------------------------------------------------------- distribute

int cmd_distribute(Cli& cli) {
  GraphArg graph_arg;
  MetricOptions metric_options;
  std::string format = "table";
  std::optional<std::string> windows_out;
  Flags flags("distribute");
  graph_arg.declare(flags);
  metric_options.declare(flags);
  flags.section(kDistributeSection)
      .choice("--format", "F", "table | csv                   (default table)",
              {"table", "csv"}, format)
      .text("--windows-out", "FILE", "also write the windows in the text format",
            windows_out);
  if (!cli.parse(flags)) return kOk;

  std::ostream& out = cli.out;
  const TaskGraph graph = graph_arg.load("distribute", cli.in);
  const auto metric = metric_options.make_metric();
  const auto estimator = metric_options.make_estimator();
  const DeadlineAssignment windows = distribute_deadlines(graph, *metric, *estimator);
  require_valid(check_assignment_basic(graph, windows));

  if (windows_out) {
    std::ofstream file(*windows_out);
    if (!file) throw std::runtime_error("cannot open '" + *windows_out + "'");
    write_assignment(file, graph, windows);
  }

  if (format == "csv") {
    CsvWriter csv(out);
    csv.write_row({"kind", "name", "release", "rel_deadline", "abs_deadline",
                   "laxity", "iteration"});
    for (const NodeId id : graph.all_nodes()) {
      const bool comp = graph.is_computation(id);
      csv.write_row({comp ? "computation" : "communication", graph.node(id).name,
                     format_compact(windows.release(id), 6),
                     format_compact(windows.rel_deadline(id), 6),
                     format_compact(windows.abs_deadline(id), 6),
                     comp ? format_compact(windows.laxity(graph, id), 6) : "",
                     std::to_string(windows.window(id).iteration)});
    }
    return kOk;
  }

  out << "strategy: " << metric->name() << "+" << estimator->name() << "\n";
  out << "critical paths sliced: " << windows.paths().size() << "\n";
  out << "minimum laxity: " << format_fixed(windows.min_laxity(graph), 2) << "\n";
  out << "demand check (" << metric_options.procs << " procs): "
      << analyze_demand(graph, windows, metric_options.procs).to_string() << "\n\n";
  TextTable table;
  table.set_header({"subtask", "release", "abs deadline", "laxity", "iter"});
  for (const NodeId id : graph.computation_nodes()) {
    table.add_row({graph.node(id).name, format_fixed(windows.release(id), 2),
                   format_fixed(windows.abs_deadline(id), 2),
                   format_fixed(windows.laxity(graph, id), 2),
                   std::to_string(windows.window(id).iteration)});
  }
  table.render(out);
  return kOk;
}

// ----------------------------------------------------------------- schedule

int cmd_schedule(Cli& cli) {
  GraphArg graph_arg;
  MetricOptions metric_options;
  Machine machine;
  SchedulerOptions sched_options;
  bool gantt = false;
  bool csv = false;
  bool detailed_report = false;
  std::optional<std::string> windows_path;
  Flags flags("schedule");
  graph_arg.declare(flags);
  metric_options.declare(flags);
  declare_policies(flags, machine, sched_options);
  flags.section(kScheduleSection)
      .text("--windows", "FILE", "use pre-computed windows instead of distributing",
            windows_path)
      .toggle("--gantt", "render an ASCII Gantt chart", gantt)
      .toggle("--csv", "emit the schedule as CSV instead of a summary", csv)
      .toggle("--report", "add distribution/schedule quality reports", detailed_report);
  if (!cli.parse(flags)) return kOk;

  std::ostream& out = cli.out;
  const TaskGraph graph = graph_arg.load("schedule", cli.in);
  machine.n_procs = metric_options.procs;
  const auto metric = metric_options.make_metric();
  const auto estimator = metric_options.make_estimator();
  std::string strategy_label = metric->name() + "+" + estimator->name();
  DeadlineAssignment windows;
  if (windows_path) {
    std::ifstream file(*windows_path);
    if (!file) throw std::runtime_error("cannot open '" + *windows_path + "'");
    windows = read_assignment(file, graph);
    strategy_label = "windows from " + *windows_path;
  } else {
    windows = distribute_deadlines(graph, *metric, *estimator);
  }
  const Schedule schedule = list_schedule(graph, windows, machine, sched_options);
  require_valid(validate_schedule(graph, windows, machine, schedule, sched_options));

  if (csv) {
    write_schedule_csv(out, graph, windows, schedule);
    return kOk;
  }

  const LatenessStats stats = computation_lateness(graph, windows, schedule);
  out << "strategy:         " << strategy_label << "\n";
  out << "machine:          " << machine.n_procs << " procs, "
      << to_string(machine.contention) << ", " << to_string(sched_options.release_policy)
      << "\n";
  out << "makespan:         " << format_fixed(schedule.makespan(), 2) << "\n";
  out << "utilization:      " << format_fixed(schedule.average_utilization() * 100.0, 1)
      << "%\n";
  out << "max lateness:     " << format_fixed(stats.max_lateness, 2) << " ("
      << graph.node(stats.argmax).name << ")\n";
  out << "mean lateness:    " << format_fixed(stats.mean_lateness, 2) << "\n";
  out << "missed windows:   " << stats.missed << " of " << stats.count << "\n";
  out << "e2e lateness:     " << format_fixed(end_to_end_lateness(graph, schedule), 2)
      << "\n";
  if (detailed_report) {
    out << "\n";
    print_distribution_report(out, analyze_distribution(graph, windows));
    out << "\n";
    print_schedule_report(out, analyze_schedule(graph, windows, schedule));
  }
  if (gantt) {
    out << "\n";
    write_gantt(out, graph, schedule);
  }
  return stats.feasible() ? kOk : kFailure;
}

// ----------------------------------------------------------------- simulate

int cmd_simulate(Cli& cli) {
  GraphArg graph_arg;
  MetricOptions metric_options;
  RuntimeOptions runtime;
  int runs = 100;
  std::uint64_t sim_seed = 1;
  Flags flags("simulate");
  graph_arg.declare(flags);
  metric_options.declare(flags);
  flags.section(kSimulateSection)
      .number("--runs", "N", "simulated executions          (default 100)",
              runs, Bound::positive())
      .range("--overrun", "A:B", "execution-time scale range    (default 1:1)",
             runtime.exec_scale_min, runtime.exec_scale_max, Bound::positive())
      .number("--background", "U", "background utilization        (default 0)",
              runtime.background_utilization, {0.0, 1.0, false, true})
      .number("--bg-service", "S", "background job length         (default 10)",
              runtime.background_service, Bound::positive())
      .toggle("--preemptive", "preemptive EDF dispatching", runtime.preemptive)
      .number("--sim-seed", "S", "simulation RNG seed           (default 1)", sim_seed);
  if (!cli.parse(flags)) return kOk;

  std::ostream& out = cli.out;
  const TaskGraph graph = graph_arg.load("simulate", cli.in);
  Machine machine;
  machine.n_procs = metric_options.procs;
  const auto metric = metric_options.make_metric();
  const auto estimator = metric_options.make_estimator();
  const DeadlineAssignment windows = distribute_deadlines(graph, *metric, *estimator);
  const Schedule plan = list_schedule(graph, windows, machine);

  RunningStats max_lateness;
  RunningStats makespan;
  int missed_runs = 0;
  for (int run = 0; run < runs; ++run) {
    Pcg32 rng(seed_for(sim_seed, {static_cast<std::uint64_t>(run)}),
              static_cast<std::uint64_t>(run));
    const RuntimeResult result =
        simulate_runtime(graph, windows, plan, machine, runtime, rng);
    max_lateness.add(result.lateness.max_lateness);
    makespan.add(result.makespan);
    if (!result.lateness.feasible()) ++missed_runs;
  }

  out << "strategy:          " << metric->name() << "+" << estimator->name() << "\n";
  out << "machine:           " << machine.n_procs << " procs\n";
  out << "dispatcher:        " << (runtime.preemptive ? "preemptive" : "non-preemptive")
      << " EDF, "
      << (runtime.time_driven ? "time-driven releases" : "eager releases") << "\n";
  out << "disturbance:       exec x [" << format_compact(runtime.exec_scale_min, 3)
      << ", " << format_compact(runtime.exec_scale_max, 3) << "], background "
      << format_compact(runtime.background_utilization * 100.0, 1) << "% (jobs of "
      << format_compact(runtime.background_service, 3) << ")\n";
  out << "runs:              " << runs << "\n";
  const StatSummary lateness = max_lateness.summary();
  out << "max lateness:      mean " << format_fixed(lateness.mean, 2) << ", worst "
      << format_fixed(lateness.max, 2) << ", best " << format_fixed(lateness.min, 2)
      << "\n";
  out << "mean makespan:     " << format_fixed(makespan.mean(), 2) << "\n";
  out << "runs with misses:  " << missed_runs << " of " << runs << " ("
      << format_fixed(100.0 * missed_runs / runs, 1) << "%)\n";
  return missed_runs == 0 ? kOk : kFailure;
}

// ----------------------------------------------------------------- campaign

/// The result-cache, thread and progress options campaign run/resume and
/// exact gap share.
struct RunnerOptions {
  std::string cache_dir = ".feast-cache";
  bool no_cache = false;
  unsigned threads = 0;
  bool quiet = false;

  void declare(Flags& flags) {
    flags.section(kCampaignSection)
        .text("--cache-dir", "DIR",
              "content-addressed result cache (default .feast-cache)", cache_dir)
        .toggle("--no-cache", "disable the result cache", no_cache)
        .number("--threads", "N",
                "worker threads                 (default: keep current)", threads,
                Bound::non_negative())
        .toggle("--quiet", "suppress per-cell progress lines", quiet);
  }

  /// Applies these to \p options; the returned cache (null with --no-cache)
  /// must outlive the run.
  std::unique_ptr<ResultCache> apply(CampaignOptions& options, std::ostream& out) const {
    options.threads = threads;
    if (!quiet) options.progress = &out;
    if (no_cache) return nullptr;
    auto cache = std::make_unique<ResultCache>(cache_dir);
    options.cache = cache.get();
    return cache;
  }
};

/// Worker verb of the supervised runner (spawned by the supervisor, not
/// documented in the usage text): executes exactly one cell and writes the
/// shard-result file the supervisor merges.
int cmd_campaign_exec_cell(Cli& cli) {
  std::optional<std::string> spec_path;
  std::optional<std::string> out_path;
  std::optional<std::size_t> cell;
  std::string cache_dir = ".feast-cache";
  std::string inject;
  std::string faults;
  bool no_cache = false;
  unsigned threads = 0;
  Flags flags("campaign exec-cell");
  flags.positional(spec_path, /*stdin_dash=*/false)
      .number("--cell", "N", "", cell)
      .text("--out", "FILE", "", out_path)
      .text("--cache-dir", "DIR", "", cache_dir)
      .toggle("--no-cache", "", no_cache)
      .number("--threads", "N", "", threads, Bound::positive())
      .text("--inject", "SPEC", "", inject)
      .text("--faults", "SPEC", "", faults);
  if (!cli.parse(flags)) return kOk;
  if (!spec_path) throw UsageError("campaign exec-cell: missing spec argument");
  if (!cell) throw UsageError("campaign exec-cell: missing --cell");
  if (!out_path) throw UsageError("campaign exec-cell: missing --out");

  if (threads > 0) set_parallelism(threads);
  const CampaignSpec spec = CampaignSpec::parse_file(*spec_path);
  return supervise::run_worker_cell(spec, *cell, *out_path,
                                    no_cache ? std::string() : cache_dir, inject,
                                    faults, std::cerr) == 0
             ? kOk
             : kFailure;
}

int cmd_campaign_status(Cli& cli) {
  std::optional<std::string> manifest_path;
  bool json = false;
  Flags flags("campaign status");
  flags.positional(manifest_path, /*stdin_dash=*/false)
      .section(kCampaignSection)
      .toggle("--json", "machine-readable status (same schema as /v1/status)", json);
  if (!cli.parse(flags)) return kOk;
  if (!manifest_path) throw UsageError("campaign status: missing manifest argument");

  const Manifest manifest = read_manifest_file(*manifest_path);
  if (json) write_manifest_status_json(cli.out, manifest);
  else print_manifest_status(cli.out, manifest);
  return kOk;
}

/// `campaign run` and `campaign resume` (\p verb).
int cmd_campaign_run(Cli& cli, const std::string& verb) {
  std::optional<std::string> spec_path;
  std::optional<std::string> manifest_path;
  std::optional<std::string> trace_path;
  std::string fault_spec;
  std::optional<std::string> inject;
  RunnerOptions runner;
  bool isolate = false;
  supervise::SupervisorOptions sup;
  Flags flags("campaign " + verb);
  flags.positional(spec_path, /*stdin_dash=*/false)
      .section(kCampaignSection)
      .text("--manifest", "FILE",
            "checkpoint manifest            (default <name>.manifest.json)",
            manifest_path);
  runner.declare(flags);
  flags
      .text("--trace-out", "FILE",
            "write a Chrome trace of the run (docs/OBSERVABILITY.md)", trace_path)
      .text("--faults", "SPEC",
            "arm deterministic fault injection, e.g.\n"
            "'cache-store:3:die' (docs/TESTING.md)",
            fault_spec)
      .section(kSuperviseSection)
      .choice("--isolate", "=process", "run cells in supervised worker subprocesses",
              {{"process", true}, {"none", false}}, isolate)
      .number("--workers", "K", "concurrent workers             (default 2)",
              sup.workers, Bound::positive());
  declare_watchdog(flags, sup);
  flags
      .number("--max-attempts", "N", "retries before quarantine      (default 3)",
              sup.max_attempts, Bound::positive())
      .number("--backoff-base", "MS", "retry backoff base             (default 250)",
              sup.backoff.base_ms, Bound::non_negative())
      .number("--backoff-cap", "MS", "retry backoff cap              (default 10000)",
              sup.backoff.cap_ms, Bound::non_negative())
      .number("--mem-limit", "MB", "RLIMIT_AS per worker           (default 0 = off)",
              sup.memory_limit_mb)
      .text("--work-dir", "DIR",
            "shard/log scratch              (default <manifest>.work)", sup.work_dir)
      .toggle("--keep-work", "keep the scratch directory", sup.keep_work_dir)
      .text("--inject", "SPEC", "poison cells for testing, e.g. '0:hang,2:crash@1'",
            inject)
      .cell_spec("--fault-cell", "CELL:SPEC",
                 "arm a fault plan inside one worker cell, e.g.\n"
                 "'0:exact-solve:1:die' (repeatable)",
                 sup.fault_cells);
  if (!cli.parse(flags)) return kOk;
  if (!spec_path) throw UsageError("campaign " + verb + ": missing spec argument");
  if (inject) {
    try {
      sup.inject = supervise::parse_inject_spec(*inject);
    } catch (const std::invalid_argument& e) {
      throw UsageError(std::string("--inject: ") + e.what());
    }
  }

  std::ostream& out = cli.out;
  CampaignSpec spec = CampaignSpec::parse_file(*spec_path);
  std::optional<check::FaultPlan> faults;
  parse_faults_arg(fault_spec, faults);
  if (faults) spec.context.faults = &*faults;
  CampaignOptions options;
  options.manifest_path = manifest_path.value_or(spec.name + ".manifest.json");
  options.resume = verb == "resume";
  const std::unique_ptr<ResultCache> cache = runner.apply(options, out);

  if (isolate) {
    sup.spec_path = *spec_path;
    sup.cache_dir = runner.cache_dir;
    sup.no_cache = runner.no_cache;
    if (runner.threads > 0) sup.worker_threads = runner.threads;
  }

  obs::Sink sink(/*capture_events=*/trace_path.has_value());
  const CampaignResult result = [&] {
    obs::ScopedSink scoped(sink);
    return isolate ? supervise::run_supervised_campaign(spec, options, sup)
                   : run_campaign(spec, options);
  }();
  if (trace_path) {
    // Every cell has been harvested, so the sink is quiescent.
    std::ofstream trace(*trace_path);
    if (!trace) throw std::runtime_error("cannot open '" + *trace_path + "'");
    sink.write_chrome_trace(trace);
  }

  out << "\ncampaign:   " << result.name << " (spec " << result.spec_hash_hex << ")\n";
  out << "cells:      " << result.cells.size() << " — " << result.computed
      << " computed, " << result.cached << " cached, " << result.failed
      << " failed, " << result.quarantined << " quarantined\n";
  out << "wall:       " << format_compact(result.wall_ms, 1) << " ms ("
      << format_compact(result.cells_per_sec, 2) << " cells/s, "
      << format_compact(result.runs_per_sec, 2) << " computed runs/s)\n";
  if (cache) {
    out << "cache:      " << cache->hits() << " hits, " << cache->misses()
        << " misses, " << cache->stores() << " stores (" << runner.cache_dir << ")\n";
  }
  out << "manifest:   " << options.manifest_path << "\n";
  if (result.interrupted) {
    out << "interrupted: drained on signal; resume with `feastc campaign "
           "resume`\n";
    return kInterrupted;
  }
  if (result.degraded()) {
    out << "DEGRADED:   " << result.quarantined
        << " poison cell(s) quarantined; see `feastc campaign status` and "
           "docs/ROBUSTNESS.md\n";
    return kDegraded;
  }
  return result.ok() ? kOk : kFailure;
}

int cmd_campaign(Cli& cli) {
  if (cli.help != nullptr) {  // Every documented verb, after the synopses.
    Flags synopses("campaign");
    synopses.section(kCampaignSection)
        .note("campaign run <spec>", "execute the campaign described by the spec file")
        .note("campaign resume <spec>",
              "like run, but restore finished cells from the manifest")
        .note("  campaign status <manifest>   print the state recorded in a manifest");
    cli.parse(synopses);
    cmd_campaign_status(cli);
    return cmd_campaign_run(cli, "run");
  }
  const std::string verb = cli.verb("campaign: expected run, resume or status");
  if (verb == "exec-cell") return cmd_campaign_exec_cell(cli);
  if (verb == "status") return cmd_campaign_status(cli);
  if (verb != "run" && verb != "resume") {
    throw UsageError("campaign: unknown subcommand '" + verb + "'");
  }
  return cmd_campaign_run(cli, verb);
}

// -------------------------------------------------------------------- exact

/// `exact solve <graph>`: one instance, heuristic vs the branch-and-bound
/// oracle (docs/EXACT.md).  Exits non-zero when the oracle beats the
/// certified `optimal <= heuristic` tolerance — the CLI face of the
/// property-harness invariant.
int cmd_exact_solve(Cli& cli) {
  GraphArg graph_arg;
  MetricOptions metric_options;
  Machine machine;
  SchedulerOptions sched_options;
  std::uint64_t budget = 0;
  double time_budget = 0.0;
  Flags flags("exact solve");
  graph_arg.declare(flags);
  metric_options.declare(flags);
  declare_policies(flags, machine, sched_options);
  flags.section(kExactSection)
      .number("--budget", "N",
              "oracle node budget per solve   (default: spec / unlimited)", budget)
      .number("--time-budget", "S", "wall-clock limit per solve (solve only)",
              time_budget, Bound::non_negative());
  if (!cli.parse(flags)) return kOk;

  std::ostream& out = cli.out;
  const TaskGraph graph = graph_arg.load("exact solve", cli.in);
  machine.n_procs = metric_options.procs;
  const auto metric = metric_options.make_metric();
  const auto estimator = metric_options.make_estimator();
  const DeadlineAssignment windows = distribute_deadlines(graph, *metric, *estimator);
  const Schedule schedule = list_schedule(graph, windows, machine, sched_options);
  const LatenessStats stats = computation_lateness(graph, windows, schedule);

  exact::ExactOptions options;
  options.node_budget = budget;
  options.time_budget_s = time_budget;
  options.seeds.push_back(exact::seed_from_schedule(graph, schedule));
  const exact::ExactResult result = exact::solve_exact(graph, machine, options);

  // Same certified tolerance as the gap cells: assigned-vs-effective
  // deadline slack plus the fixed epsilon (exact/gap.hpp).
  const std::vector<Time> eds = exact::effective_deadlines(graph);
  Time slack = 0.0;
  for (NodeId id : graph.computation_nodes()) {
    if (!windows.window(id).assigned()) continue;
    const Time s = windows.abs_deadline(id) - eds[id.index()];
    if (s > slack) slack = s;
  }
  const Time tolerance = slack + exact::kGapCheckEps;

  out << "strategy:         " << metric->name() << "+" << estimator->name() << "\n";
  out << "machine:          " << machine.n_procs << " procs, "
      << to_string(machine.contention) << "\n";
  out << "subtasks:         " << graph.subtask_count() << "\n";
  out << "heuristic:        " << format_fixed(stats.max_lateness, 4) << " max lateness\n";
  out << "optimal:          " << format_fixed(result.optimal, 4)
      << (result.proven ? " (proven)" : " (incumbent)") << "\n";
  out << "bound:            " << format_fixed(result.bound, 4) << "\n";
  out << "gap:              " << format_fixed(stats.max_lateness - result.optimal, 4)
      << "\n";
  out << "nodes:            " << result.nodes << " (pruned " << result.pruned_bound
      << " bound, " << result.pruned_dominated << " dominated)\n";
  out << "wall:             " << format_compact(result.wall_ms, 2) << " ms\n";
  if (result.contention_relaxed) {
    out << "note:             contention-free relaxation — optimal is a lower bound "
           "on the contended optimum\n";
  }
  if (result.optimal > stats.max_lateness + tolerance) {
    out << "VIOLATION:        optimal exceeds heuristic beyond the certified "
           "tolerance " << format_compact(tolerance, 6) << "\n";
    return kFailure;
  }
  return kOk;
}

/// `exact gap <spec>`: campaign-driven optimality-gap sweep.  Forces the
/// spec into Gap mode, rides the ordinary cache/manifest machinery, writes
/// the gap table (write_gap_csv) and an optional benchmark JSON with the
/// aggregate nodes/sec and proven-optimal rate.
int cmd_exact_gap(Cli& cli) {
  std::optional<std::string> spec_path;
  std::optional<std::string> manifest_path;
  std::optional<std::string> csv_path;
  std::optional<std::string> bench_path;
  std::optional<std::uint64_t> budget;
  bool resume = false;
  RunnerOptions runner;
  Flags flags("exact gap");
  flags.positional(spec_path, /*stdin_dash=*/false)
      .section(kExactSection)
      .number("--budget", "N",
              "oracle node budget per solve   (default: spec / unlimited)", budget)
      .text("--out", "FILE", "gap table CSV                  (default: stdout)", csv_path)
      .text("--bench-out", "FILE", "aggregate JSON: nodes/sec, proven-optimal rate",
            bench_path)
      .text("--manifest", "FILE",
            "checkpoint manifest            (default <name>.gap.manifest.json)",
            manifest_path)
      .toggle("--resume", "restore finished cells from the manifest", resume);
  runner.declare(flags);
  if (!cli.parse(flags)) return kOk;
  if (!spec_path) throw UsageError("exact gap: missing spec argument");

  std::ostream& out = cli.out;
  CampaignSpec spec = CampaignSpec::parse_file(*spec_path);
  spec.mode = CampaignMode::Gap;
  if (budget) spec.exact_nodes = *budget;

  CampaignOptions options;
  options.manifest_path = manifest_path.value_or(spec.name + ".gap.manifest.json");
  options.resume = resume;
  const std::unique_ptr<ResultCache> cache = runner.apply(options, out);

  const CampaignResult result = run_campaign(spec, options);

  out << "\ngap sweep:  " << result.name << " (spec " << result.spec_hash_hex
      << ", budget " << spec.exact_nodes << " nodes)\n";
  out << "cells:      " << result.cells.size() << " — " << result.computed
      << " computed, " << result.cached << " cached, " << result.failed
      << " failed\n";
  out << "wall:       " << format_compact(result.wall_ms, 1) << " ms\n";

  // Aggregate oracle statistics over the finished cells (CellStats field
  // mapping in exact/gap.hpp: min_laxity <- nodes, infeasible <- unproven).
  double total_nodes = 0.0;
  double computed_nodes = 0.0;
  std::size_t total_samples = 0;
  std::size_t unproven = 0;
  double mean_gap = 0.0;
  double max_gap = 0.0;
  std::size_t finished = 0;
  for (const CellOutcome& cell : result.cells) {
    if (cell.state != CellState::Computed && cell.state != CellState::Cached) continue;
    ++finished;
    const double cell_nodes =
        cell.stats.min_laxity.mean * static_cast<double>(cell.stats.min_laxity.count);
    total_nodes += cell_nodes;
    if (cell.state == CellState::Computed) computed_nodes += cell_nodes;
    total_samples += cell.stats.min_laxity.count;
    unproven += cell.stats.infeasible_runs;
    mean_gap += cell.stats.makespan.mean;
    if (cell.stats.makespan.max > max_gap) max_gap = cell.stats.makespan.max;
  }
  if (finished > 0) mean_gap /= static_cast<double>(finished);
  const double proven_rate =
      total_samples > 0
          ? 1.0 - static_cast<double>(unproven) / static_cast<double>(total_samples)
          : 0.0;
  const double nodes_per_sec =
      result.wall_ms > 0.0 ? computed_nodes / (result.wall_ms / 1000.0) : 0.0;

  out << "samples:    " << total_samples << " (" << unproven << " unproven, proven rate "
      << format_fixed(proven_rate * 100.0, 1) << "%)\n";
  out << "gap:        mean " << format_compact(mean_gap, 4) << ", worst "
      << format_compact(max_gap, 4) << "\n";
  out << "search:     " << format_compact(total_nodes, 0) << " nodes ("
      << format_compact(nodes_per_sec, 0) << " nodes/s computed)\n";

  if (csv_path) {
    std::ofstream csv(*csv_path);
    if (!csv) throw std::runtime_error("cannot open '" + *csv_path + "'");
    write_gap_csv(csv, spec, result);
    out << "table:      " << *csv_path << "\n";
  } else {
    out << "\n";
    write_gap_csv(out, spec, result);
  }

  if (bench_path) {
    std::ofstream bench(*bench_path);
    if (!bench) throw std::runtime_error("cannot open '" + *bench_path + "'");
    bench << "{\n"
          << "  \"bench\": \"exact\",\n"
          << "  \"spec\": \"" << result.spec_hash_hex << "\",\n"
          << "  \"node_budget\": " << spec.exact_nodes << ",\n"
          << "  \"cells\": " << finished << ",\n"
          << "  \"samples\": " << total_samples << ",\n"
          << "  \"unproven\": " << unproven << ",\n"
          << "  \"proven_rate\": " << format_compact(proven_rate, 6) << ",\n"
          << "  \"total_nodes\": " << format_compact(total_nodes, 1) << ",\n"
          << "  \"nodes_per_sec\": " << format_compact(nodes_per_sec, 1) << ",\n"
          << "  \"mean_gap\": " << format_compact(mean_gap, 6) << ",\n"
          << "  \"max_gap\": " << format_compact(max_gap, 6) << ",\n"
          << "  \"wall_ms\": " << format_compact(result.wall_ms, 1) << "\n"
          << "}\n";
    out << "bench:      " << *bench_path << "\n";
  }

  return result.ok() ? kOk : kFailure;
}

int cmd_exact(Cli& cli) {
  if (cli.help != nullptr) {  // Both verbs, after the synopses.
    Flags synopses("exact");
    synopses.section(kExactSection)
        .note("exact solve <graph>",
              "heuristic vs oracle on one instance (metric options\n"
              "apply; exit 1 when optimal > heuristic + tolerance)")
        .note("exact gap <spec>",
              "campaign-driven gap sweep over a spec file (mode is\n"
              "forced to gap; cache/manifest as campaign run)");
    cli.parse(synopses);
    cmd_exact_gap(cli);
    return cmd_exact_solve(cli);
  }
  const std::string verb = cli.verb("exact: expected solve or gap");
  if (verb == "solve") return cmd_exact_solve(cli);
  if (verb == "gap") return cmd_exact_gap(cli);
  throw UsageError("exact: unknown subcommand '" + verb + "'");
}

// -------------------------------------------------------------------- serve

int cmd_serve(Cli& cli) {
  serve::ServeOptions options;
  options.work_dir = ".feast-serve";
  bool quiet = false;
  std::string fault_spec;
  Flags flags("serve");
  flags.section(kServeSection)
      .text("--host", "H", "bind address                   (default 127.0.0.1)",
            options.host)
      .number("--port", "P", "TCP port (0 = ephemeral, printed on startup)",
              options.port, Bound::between(0, 65535))
      .number("--workers", "K",
              "local worker subprocesses; 0 = remote-only, cells\n"
              "wait for `feastc worker` peers  (default 2)",
              options.workers, Bound::non_negative())
      .number("--max-queue", "N", "queued cells before 429        (default 64)",
              options.max_queue, Bound::positive())
      .number("--max-connections", "N", "open sockets before 503        (default 128)",
              options.max_connections, Bound::positive())
      .number("--max-attempts", "N", "worker attempts per cell       (default 3)",
              options.max_attempts, Bound::positive());
  declare_watchdog(flags, options);
  flags
      .number("--header-timeout", "S", "slow-loris request deadline    (default 5)",
              options.header_timeout_s, Bound::positive())
      .number("--idle-timeout", "S", "keep-alive idle close          (default 60)",
              options.idle_timeout_s, Bound::positive())
      .number("--mem-limit", "MB", "RLIMIT_AS per worker           (default 0 = off)",
              options.memory_limit_mb)
      .number("--threads", "N", "--threads given to each worker (default 1)",
              options.worker_threads, Bound::positive())
      .text("--work-dir", "DIR", "specs/manifests/shard scratch  (default .feast-serve)",
            options.work_dir)
      .text("--cache-dir", "DIR", "content-addressed result cache (default .feast-cache)",
            options.cache_dir)
      .toggle("--no-cache", "disable the result cache", options.no_cache)
      .number("--max-body", "BYTES", "request body cap               (default 1048576)",
              options.http.max_body_bytes, Bound::positive())
      .toggle("--quiet", "suppress progress lines", quiet)
      .section(kFabricSection)
      .number("--heartbeat-timeout", "S", "drop idle remote workers after (default 15)",
              options.heartbeat_timeout_s, Bound::positive())
      .number("--lease-timeout", "S",
              "per-lease deadline before the cell is requeued\n"
              "uncharged (default 0 = cell-timeout + grace, or 60)",
              options.lease_timeout_s, Bound::non_negative())
      .number("--poison-deaths", "N",
              "distinct dead workers before a cell is quarantined\n"
              "as cross-worker poison [net]   (default 2)",
              options.poison_worker_deaths, Bound::positive())
      .number("--retry-after", "S", "Retry-After hint on 429/503    (default 1)",
              options.retry_after_s, Bound::non_negative())
      .text("--faults", "SPEC", "arm daemon-side fault injection (docs/TESTING.md)",
            fault_spec);
  if (!cli.parse(flags)) return kOk;

  std::ostream& out = cli.out;
  if (!quiet) options.log = &out;

  std::optional<check::FaultPlan> faults;
  parse_faults_arg(fault_spec, faults);
  check::ScopedFaultPlan scoped_faults(faults ? &*faults : nullptr);

  serve::Server server(std::move(options));
  server.start();
  // Scripts scrape this line to discover an ephemeral (--port 0) port, so it
  // is printed unconditionally and flushed before the reactor starts.
  out << "feastc serve: listening on " << server.port() << std::endl;
  return server.run();
}

// ------------------------------------------------------------------- submit

/// Pulls `"quarantined": N` out of a campaign manifest reply.  Returns 0
/// when the field is absent (cell replies, status bodies).
long long parse_quarantined_count(const std::string& body) {
  const std::string needle = "\"quarantined\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoll(body.c_str() + at + needle.size(), nullptr, 10);
}

int cmd_submit(Cli& cli) {
  std::string server_addr = "127.0.0.1:7433";
  std::string client;
  std::optional<std::string> spec_path;
  std::optional<long long> cell;
  bool status_only = false;
  double timeout_s = 600.0;
  int retries = 0;
  supervise::BackoffPolicy retry_backoff;
  std::string inject;
  Flags flags("submit");
  flags.positional(spec_path, /*stdin_dash=*/true)
      .section(kSubmitSection)
      .note("  submit <spec> [--cell N]   submit a campaign spec file (or one cell of "
            "it)")
      .number("--cell", "N", "", cell, Bound::non_negative())
      .text("--server", "HOST:PORT",
            "daemon address                 (default 127.0.0.1:7433)", server_addr)
      .text("--client", "NAME", "fair-queue identity            (default $USER or anon)",
            client)
      .toggle("--status", "fetch /v1/status instead of submitting", status_only)
      .number("--timeout", "S", "request deadline               (default 600)",
              timeout_s, Bound::positive())
      .number("--retries", "N",
              "deterministic retry budget on 429/503, honoring\n"
              "Retry-After                    (default 0 = none)",
              retries, Bound::non_negative())
      .number("--retry-base", "MS", "retry backoff base             (default 250)",
              retry_backoff.base_ms, Bound::positive())
      .number("--retry-cap", "MS", "retry backoff cap              (default 10000)",
              retry_backoff.cap_ms, Bound::positive())
      .number("--retry-seed", "S", "retry jitter seed              (default 0)",
              retry_backoff.seed)
      .text("--inject", "SPEC", "poison campaign cells, e.g. '0:worker-die,2:crash'",
            inject);
  if (!cli.parse(flags)) return kOk;

  std::istream& in = cli.in;
  std::ostream& out = cli.out;
  std::string host;
  std::uint16_t port = 0;
  if (!serve::parse_host_port(server_addr, host, port)) {
    throw UsageError("--server wants HOST:PORT, got '" + server_addr + "'");
  }
  if (client.empty()) {
    const char* user = std::getenv("USER");
    client = (user != nullptr && *user != '\0') ? user : "anon";
  }

  std::string method = "GET";
  std::string target = "/v1/status";
  std::string body;
  if (!status_only) {
    if (!spec_path) throw UsageError("submit: missing spec argument");
    std::string spec_text;
    if (*spec_path == "-") {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      spec_text = buffer.str();
    } else {
      std::ifstream file(*spec_path);
      if (!file) throw std::runtime_error("cannot open '" + *spec_path + "'");
      std::ostringstream buffer;
      buffer << file.rdbuf();
      spec_text = buffer.str();
    }
    method = "POST";
    target = cell ? "/v1/cell" : "/v1/campaign";
    body = "{\"spec\": \"" + json_escape(spec_text) + "\"";
    if (cell) body += ", \"cell\": " + std::to_string(*cell);
    if (!inject.empty()) body += ", \"inject\": \"" + json_escape(inject) + "\"";
    body += "}";
  }

  serve::HttpReply reply;
  for (int attempt = 1;; ++attempt) {
    reply = serve::http_request(host, port, method, target, body, client,
                                timeout_s);
    const bool busy =
        reply.ok() && (reply.status == 429 || reply.status == 503);
    if (!busy || attempt > retries) break;
    // Deterministic exponential backoff with seeded jitter, floored by the
    // daemon's own Retry-After hint when it sent one.
    double delay_ms = supervise::backoff_delay_ms(retry_backoff, 0, attempt);
    if (reply.retry_after_s >= 0) {
      delay_ms = std::max(delay_ms, reply.retry_after_s * 1000.0);
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long long>(delay_ms)));
  }
  if (!reply.ok()) {
    throw std::runtime_error("submit: " + server_addr + ": " + reply.error);
  }
  out << reply.body;
  if (!reply.body.empty() && reply.body.back() != '\n') out << "\n";
  if (reply.status != 200) return kFailure;
  // A campaign that settled with quarantined cells completed, but degraded:
  // exit 3 so scripts (and the chaos driver) can tell poison from success.
  if (!status_only && !cell && parse_quarantined_count(reply.body) > 0) {
    return kDegraded;
  }
  return kOk;
}

// ------------------------------------------------------------------- worker

int cmd_worker(Cli& cli) {
  serve::RemoteWorkerOptions options;
  options.work_dir = ".feast-worker";
  options.allow_process_exit = true;
  std::string connect;
  std::string fault_spec;
  bool quiet = false;
  Flags flags("worker");
  flags.section(kWorkerSection)
      .text("--connect", "HOST:PORT", "daemon address                 (required)",
            connect)
      .text("--name", "NAME", "stable worker identity         (default worker-<pid>)",
            options.name)
      .number("--slots", "N", "concurrent leases              (default 1)",
              options.slots, Bound::between(1, 64))
      .text("--work-dir", "DIR", "spec/shard scratch             (default .feast-worker)",
            options.work_dir)
      .text("--cache-dir", "DIR", "exec-cell result cache         (default .feast-cache)",
            options.cache_dir)
      .toggle("--no-cache", "disable the result cache", options.no_cache)
      .number("--threads", "N", "--threads given to exec-cell   (default 1)",
              options.threads, Bound::positive())
      .number("--poll-ms", "MS", "idle lease-poll interval       (default 50)",
              options.poll_ms, Bound::positive())
      .number("--backoff-base", "MS", "reconnect backoff base         (default 250)",
              options.backoff.base_ms, Bound::positive())
      .number("--backoff-cap", "MS", "reconnect backoff cap          (default 10000)",
              options.backoff.cap_ms, Bound::positive())
      .number("--max-reconnects", "N",
              "give up after N reconnects     (default 0 = never)",
              options.max_reconnects, Bound::non_negative())
      .number("--max-cells", "N", "exit after N results           (default 0 = never)",
              options.max_cells)
      .number("--request-timeout", "S", "per-HTTP-request deadline      (default 10)",
              options.request_timeout_s, Bound::positive())
      .text("--feastc", "PATH", "exec-cell binary               (default: this binary)",
            options.feastc_path)
      .text("--faults", "SPEC", "arm worker-side fault injection (docs/TESTING.md)",
            fault_spec)
      .toggle("--quiet", "", quiet);
  if (!cli.parse(flags)) return kOk;

  std::ostream& out = cli.out;
  if (connect.empty()) throw UsageError("worker: --connect HOST:PORT is required");
  if (!serve::parse_host_port(connect, options.host, options.port)) {
    throw UsageError("--connect wants HOST:PORT, got '" + connect + "'");
  }
  if (!quiet) options.log = &out;

  std::optional<check::FaultPlan> faults;
  parse_faults_arg(fault_spec, faults);
  check::ScopedFaultPlan scoped_faults(faults ? &*faults : nullptr);

  return serve::run_remote_worker(options);
}

// ------------------------------------------------------------------ profile

int cmd_profile(Cli& cli) {
  BatchConfig batch;
  batch.samples = 32;
  RunContext context;
  ExecSpreadScenario scenario = ExecSpreadScenario::MDET;
  std::vector<int> sizes = paper_sizes();
  std::optional<std::string> trace_path;
  unsigned threads = 0;
  Flags flags("profile");
  flags.section(kProfileSection)
      .number("--samples", "N", "graphs per cell                (default 32)",
              batch.samples, Bound::positive())
      .number("--seed", "S", "batch seed                     (default 0xFEA57)",
              batch.seed)
      .list("--sizes", "A,B,...", "processor counts               (default 2,4,...,16)",
            sizes, Bound::positive())
      .choice("--scenario", "X", "LDET | MDET | HDET             (default MDET)",
              kScenarios, scenario)
      .choice("--contention", "C", "free | bus | links             (default free)",
              kContentions, batch.contention)
      .choice("--core", "K", "fast | reference               (default fast)",
              {{"fast", SchedulerCore::Fast}, {"reference", SchedulerCore::Reference}},
              context.core)
      .number("--threads", "N", "worker threads                 (default: keep current)",
              threads, Bound::positive())
      .text("--trace-out", "FILE",
            "write Chrome trace_event JSON (chrome://tracing,\nui.perfetto.dev)",
            trace_path);
  if (!cli.parse(flags)) return kOk;

  std::ostream& out = cli.out;
  if (threads > 0) set_parallelism(threads);

  const std::vector<Strategy> strategies{
      strategy_pure(EstimatorKind::CCNE),
      strategy_adapt(1.25),
  };

  obs::Sink sink(/*capture_events=*/trace_path.has_value());
  const auto start = std::chrono::steady_clock::now();
  const SweepResult sweep = [&] {
    obs::ScopedSink scoped(sink);
    return sweep_strategies(std::string("profile — ") + to_string(scenario) +
                                " scenario, " + to_string(batch.contention),
                            paper_workload(scenario), strategies, sizes, batch,
                            context);
  }();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  sweep.print(out);
  out << "\n";
  const obs::Report report = sink.report();
  report.print(out);

  // The top-level pipeline phases partition a run; on a single-threaded
  // sweep their sum accounts for nearly all of the wall time (the gap is
  // per-sample glue: RNG seeding, strategy construction, aggregation).
  const double phase_ms =
      report.total_ms({obs::Span::Generate, obs::Span::Distribute,
                       obs::Span::Validate, obs::Span::Schedule, obs::Span::Stats});
  out << "\nwall:             " << format_compact(wall_ms, 1) << " ms\n";
  out << "phase total:      " << format_compact(phase_ms, 1) << " ms ("
      << format_fixed(wall_ms > 0.0 ? 100.0 * phase_ms / wall_ms : 0.0, 1)
      << "% of wall)\n";

  if (trace_path) {
    std::ofstream trace(*trace_path);
    if (!trace) throw std::runtime_error("cannot open '" + *trace_path + "'");
    sink.write_chrome_trace(trace);
    out << "trace:            " << *trace_path
        << " (chrome://tracing or ui.perfetto.dev)\n";
  }
  return kOk;
}

// ---------------------------------------------------------------------- dot

int cmd_dot(Cli& cli) {
  GraphArg graph_arg;
  Flags flags("dot");
  graph_arg.declare(flags);
  if (!cli.parse(flags)) return kOk;
  write_dot(cli.out, graph_arg.load("dot", cli.in));
  return kOk;
}

// ---------------------------------------------------------------- diffsched

int cmd_diffsched(Cli& cli) {
  DiffSchedConfig config;
  Flags flags("diffsched");
  flags.section(kDiffschedSection)
      .number("--trials", "N",
              "randomized workloads, each replayed through all 12\n"
              "policy combinations on both cores (default 500)",
              config.trials, Bound::positive())
      .number("--seed", "S", "root RNG seed                  (default 1)", config.seed)
      .toggle("--quick", "smaller graphs/machines (smoke run)", config.quick);
  if (!cli.parse(flags)) return kOk;
  const DiffSchedResult result = run_diffsched(config, &cli.out);
  return result.ok() ? kOk : kFailure;
}

// ----------------------------------------------------------------- diffdist

int cmd_diffdist(Cli& cli) {
  DiffDistConfig config;
  Flags flags("diffdist");
  flags.section(kDiffdistSection)
      .number("--trials", "N",
              "randomized graphs, each distributed under all 16\n"
              "metric x estimator x interior-bounds combinations\n"
              "by both finders (default 500)",
              config.trials, Bound::positive())
      .number("--seed", "S", "root RNG seed                  (default 1)", config.seed)
      .toggle("--quick", "smaller paper-sized graphs (smoke run)", config.quick);
  if (!cli.parse(flags)) return kOk;
  const DiffDistResult result = run_diffdist(config, &cli.out);
  return result.ok() ? kOk : kFailure;
}

// ------------------------------------------------------------------ torture

int cmd_torture(Cli& cli) {
  check::TortureOptions options;
  Flags flags("torture");
  flags.section(kTortureSection)
      .number("--trials", "N", "kill/resume/compare cycles     (default 5)",
              options.trials, Bound::positive())
      .number("--seed", "S", "root RNG seed                  (default 42)", options.seed)
      .text("--work-dir", "DIR",
            "scratch directory              (default .feast-torture)", options.work_dir)
      .text("--feastc", "PATH", "binary to drive                (default: this binary)",
            options.feastc_path)
      .toggle("--keep", "keep the scratch directory on success", options.keep_work_dir);
  if (!cli.parse(flags)) return kOk;

  std::ostream& out = cli.out;
  options.log = &out;
  const check::TortureResult result = check::run_torture(options);
  out << "torture: " << (result.trials.size() - result.failures()) << "/"
      << result.trials.size() << " trials survived kill + resume\n";
  return result.ok() ? kOk : kFailure;
}

// -------------------------------------------------------------------- chaos

int cmd_chaos(Cli& cli) {
  check::ChaosOptions options;
  Flags flags("chaos");
  flags.section(kChaosSection)
      .number("--trials", "N", "fault-family trials            (default 8)",
              options.trials, Bound::positive())
      .number("--seed", "S", "root RNG seed                  (default 42)", options.seed)
      .number("--workers", "K", "remote workers per trial       (default 2)",
              options.workers, Bound::positive())
      .text("--work-dir", "DIR", "scratch directory              (default .feast-chaos)",
            options.work_dir)
      .text("--feastc", "PATH", "binary to drive                (default: this binary)",
            options.feastc_path)
      .number("--timeout", "S", "deadline per distributed run   (default 300)",
              options.subprocess_timeout_s, Bound::positive())
      .toggle("--keep", "keep the scratch directory on success", options.keep_work_dir);
  if (!cli.parse(flags)) return kOk;

  std::ostream& out = cli.out;
  options.log = &out;
  const check::ChaosResult result = check::run_chaos(options);
  out << "chaos: " << (result.trials.size() - result.failures()) << "/"
      << result.trials.size()
      << " trials matched the in-process baseline under network faults\n";
  return result.ok() ? kOk : kFailure;
}

// ----------------------------------------------------------------- dispatch

/// A command: its name and summary in the usage text, and its handler.
struct Command {
  const char* name;
  const char* summary;
  int (*run)(Cli&);
};

const Command kCommands[] = {
    {"generate", "emit a task graph in the FEAST text format", cmd_generate},
    {"info", "statistics and validation of a graph", cmd_info},
    {"distribute", "assign execution windows (deadline distribution)", cmd_distribute},
    {"schedule", "distribute + schedule + lateness report", cmd_schedule},
    {"simulate", "execute the plan in the discrete-event runtime simulator",
     cmd_simulate},
    {"campaign", "run a declarative experiment campaign (cache + resume)", cmd_campaign},
    {"exact", "branch-and-bound optimality oracle (single instance or gap sweep)",
     cmd_exact},
    {"profile", "instrumented sweep: per-phase timings, counters, Chrome trace",
     cmd_profile},
    {"diffsched", "differential test of the two scheduler cores", cmd_diffsched},
    {"diffdist", "differential test of the two critical-path finders", cmd_diffdist},
    {"torture",
     "crash-resume torture: kill campaigns at injected faults, resume,\n"
     "              assert results identical to an uninterrupted run",
     cmd_torture},
    {"serve", "long-lived evaluation daemon (HTTP/1.1 + JSON over TCP)", cmd_serve},
    {"submit", "send a campaign or cell to a running serve daemon", cmd_submit},
    {"worker", "remote worker: lease cells from a serve daemon over TCP", cmd_worker},
    {"chaos",
     "networked torture of the distributed worker fabric: injected\n"
     "              partitions, torn frames, worker kills and cross-worker poison",
     cmd_chaos},
    {"dot", "Graphviz export", cmd_dot},
};

/// The usage text: the command list, then the rows of \p only (of every
/// command when null) under their sections, each distinct row once.
void print_usage(std::ostream& out, const Command* only = nullptr) {
  out << "usage: feastc <command> [options]\n\ncommands:\n";
  for (const Command& command : kCommands) {
    out << "  " << pad_right(command.name, 12) << command.summary << "\n";
  }
  std::vector<Flags::HelpLine> lines;
  std::istringstream no_input;
  for (const Command& command : kCommands) {
    if (only != nullptr && only != &command) continue;
    Cli cli{{}, no_input, out, &lines};
    command.run(cli);
  }
  for (const char* section : kSections) {
    std::vector<std::string> rows;
    for (const Flags::HelpLine& line : lines) {
      if (line.section == section &&
          std::find(rows.begin(), rows.end(), line.text) == rows.end()) {
        rows.push_back(line.text);
      }
    }
    if (rows.empty()) continue;
    out << "\n" << section << "\n";
    for (const std::string& row : rows) out << row << "\n";
  }
  if (only == nullptr) {
    out << "\nrun 'feastc <command> --help' for the relevant subset.\n";
  }
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::istream& in, std::ostream& out,
            std::ostream& err) {
  try {
    if (args.empty() || args[0] == "--help" || args[0] == "-h" || args[0] == "help") {
      print_usage(out);
      return args.empty() ? kUsage : kOk;
    }
    const Command* command = nullptr;
    for (const Command& c : kCommands) {
      if (args[0] == c.name) command = &c;
    }
    if (command == nullptr) throw UsageError("unknown command '" + args[0] + "'");
    Cli cli{{args.begin() + 1, args.end()}, in, out};
    try {
      return command->run(cli);
    } catch (const HelpRequest&) {
      print_usage(out, command);
      return kOk;
    }
  } catch (const UsageError& e) {
    err << "feastc: " << e.what() << "\n";
    err << "run 'feastc --help' for usage\n";
    return kUsage;
  } catch (const std::exception& e) {
    err << "feastc: " << e.what() << "\n";
    return kFailure;
  }
}

}  // namespace feast
