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

/// Thrown on malformed command lines; carries the message for stderr.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

const char* kUsageText = R"(usage: feastc <command> [options]

commands:
  generate    emit a task graph in the FEAST text format
  info        statistics and validation of a graph
  distribute  assign execution windows (deadline distribution)
  schedule    distribute + schedule + lateness report
  simulate    execute the plan in the discrete-event runtime simulator
  campaign    run a declarative experiment campaign (cache + resume)
  exact       branch-and-bound optimality oracle (single instance or gap sweep)
  profile     instrumented sweep: per-phase timings, counters, Chrome trace
  diffsched   differential test of the two scheduler cores
  diffdist    differential test of the two critical-path finders
  torture     crash-resume torture: kill campaigns at injected faults, resume,
              assert results identical to an uninterrupted run
  serve       long-lived evaluation daemon (HTTP/1.1 + JSON over TCP)
  submit      send a campaign or cell to a running serve daemon
  worker      remote worker: lease cells from a serve daemon over TCP
  chaos       networked torture of the distributed worker fabric: injected
              partitions, torn frames, worker kills and cross-worker poison
  dot         Graphviz export

common options:
  <graph>                 graph file, or '-' for stdin
  --metric M              pure | norm | thres | adapt   (default pure)
  --delta D               THRES surplus factor          (default 1)
  --threshold F           threshold factor x MET        (default 1.25)
  --estimator E           ccne | ccaa                   (default ccne)
  --procs N               system size                   (default 4)

generate options:
  --seed S                RNG seed                      (default 1)
  --shape K               random | chain | in-tree | out-tree | fork-join |
                          diamond                       (default random)
  --scenario X            LDET | MDET | HDET            (default MDET)
  --subtasks A:B          subtask-count range           (default 40:60)
  --depth A:B             level-count range             (default 8:12)
  --ccr C                 comm-to-computation ratio     (default 1.0)
  --olr O                 overall laxity ratio          (default 1.5)

distribute options:
  --format F              table | csv                   (default table)
  --windows-out FILE      also write the windows in the text format

schedule options:
  --contention C          free | bus | links            (default free)
  --release R             time-driven | eager           (default time-driven)
  --windows FILE          use pre-computed windows instead of distributing
  --gantt                 render an ASCII Gantt chart
  --csv                   emit the schedule as CSV instead of a summary
  --report                add distribution/schedule quality reports

simulate options (plus the distribute/schedule options):
  --runs N                simulated executions          (default 100)
  --overrun A:B           execution-time scale range    (default 1:1)
  --background U          background utilization        (default 0)
  --bg-service S          background job length         (default 10)
  --preemptive            preemptive EDF dispatching
  --sim-seed S            simulation RNG seed           (default 1)

campaign subcommands (spec format and manifest schema: docs/CAMPAIGN.md):
  campaign run <spec>     execute the campaign described by the spec file
  campaign resume <spec>  like run, but restore finished cells from the manifest
  campaign status <manifest>   print the state recorded in a manifest
  --json                  machine-readable status (same schema as /v1/status)
  --manifest FILE         checkpoint manifest            (default <name>.manifest.json)
  --cache-dir DIR         content-addressed result cache (default .feast-cache)
  --no-cache              disable the result cache
  --threads N             worker threads                 (default: keep current)
  --quiet                 suppress per-cell progress lines
  --trace-out FILE        write a Chrome trace of the run (docs/OBSERVABILITY.md)
  --faults SPEC           arm deterministic fault injection, e.g.
                          'cache-store:3:die' (docs/TESTING.md)

campaign supervision (docs/ROBUSTNESS.md; exit 3 = completed degraded,
130 = drained on SIGINT/SIGTERM with a resumable checkpoint):
  --isolate=process       run cells in supervised worker subprocesses
  --workers K             concurrent workers             (default 2)
  --cell-timeout S        watchdog deadline per attempt  (default 0 = off)
  --term-grace S          SIGTERM -> SIGKILL escalation  (default 2)
  --drain-grace S         drain wait for in-flight work  (default 10)
  --max-attempts N        retries before quarantine      (default 3)
  --backoff-base MS       retry backoff base             (default 250)
  --backoff-cap MS        retry backoff cap              (default 10000)
  --mem-limit MB          RLIMIT_AS per worker           (default 0 = off)
  --work-dir DIR          shard/log scratch              (default <manifest>.work)
  --keep-work             keep the scratch directory
  --inject SPEC           poison cells for testing, e.g. '0:hang,2:crash@1'
  --fault-cell CELL:SPEC  arm a fault plan inside one worker cell, e.g.
                          '0:exact-solve:1:die' (repeatable)

exact subcommands (search design and bound derivations: docs/EXACT.md):
  exact solve <graph>     heuristic vs oracle on one instance (metric options
                          apply; exit 1 when optimal > heuristic + tolerance)
  exact gap <spec>        campaign-driven gap sweep over a spec file (mode is
                          forced to gap; cache/manifest as campaign run)
  --budget N              oracle node budget per solve   (default: spec / unlimited)
  --out FILE              gap table CSV                  (default: stdout)
  --bench-out FILE        aggregate JSON: nodes/sec, proven-optimal rate
  --manifest FILE         checkpoint manifest            (default <name>.gap.manifest.json)
  --resume                restore finished cells from the manifest
  --time-budget S         wall-clock limit per solve (solve only)

profile options (span taxonomy: docs/OBSERVABILITY.md):
  --samples N             graphs per cell                (default 32)
  --seed S                batch seed                     (default 0xFEA57)
  --sizes A,B,...         processor counts               (default 2,4,...,16)
  --scenario X            LDET | MDET | HDET             (default MDET)
  --contention C          free | bus | links             (default free)
  --core K                fast | reference               (default fast)
  --threads N             worker threads                 (default: keep current)
  --trace-out FILE        write Chrome trace_event JSON (chrome://tracing,
                          ui.perfetto.dev)

diffsched options (trace contract: docs/SCHEDULER.md):
  --trials N              randomized workloads, each replayed through all 12
                          policy combinations on both cores (default 500)
  --seed S                root RNG seed                  (default 1)
  --quick                 smaller graphs/machines (smoke run)

diffdist options (finder contract: docs/ALGORITHM.md):
  --trials N              randomized graphs, each distributed under all 16
                          metric x estimator x interior-bounds combinations
                          by both finders (default 500)
  --seed S                root RNG seed                  (default 1)
  --quick                 smaller paper-sized graphs (smoke run)

serve options (protocol and endpoints: docs/SERVE.md; exit 130 = drained on
SIGINT/SIGTERM with resumable campaign checkpoints):
  --host H                bind address                   (default 127.0.0.1)
  --port P                TCP port (0 = ephemeral, printed on startup)
  --workers K             local worker subprocesses; 0 = remote-only, cells
                          wait for `feastc worker` peers  (default 2)
  --max-queue N           queued cells before 429        (default 64)
  --max-connections N     open sockets before 503        (default 128)
  --max-attempts N        worker attempts per cell       (default 3)
  --cell-timeout S        watchdog deadline per attempt  (default 0 = off)
  --term-grace S          SIGTERM -> SIGKILL escalation  (default 2)
  --drain-grace S         drain wait for in-flight work  (default 10)
  --header-timeout S      slow-loris request deadline    (default 5)
  --idle-timeout S        keep-alive idle close          (default 60)
  --mem-limit MB          RLIMIT_AS per worker           (default 0 = off)
  --threads N             --threads given to each worker (default 1)
  --work-dir DIR          specs/manifests/shard scratch  (default .feast-serve)
  --cache-dir DIR         content-addressed result cache (default .feast-cache)
  --no-cache              disable the result cache
  --max-body BYTES        request body cap               (default 1048576)
  --quiet                 suppress progress lines

serve distributed-worker fabric (docs/SERVE.md, "Distributed workers"):
  --heartbeat-timeout S   drop idle remote workers after (default 15)
  --lease-timeout S       per-lease deadline before the cell is requeued
                          uncharged (default 0 = cell-timeout + grace, or 60)
  --poison-deaths N       distinct dead workers before a cell is quarantined
                          as cross-worker poison [net]   (default 2)
  --retry-after S         Retry-After hint on 429/503    (default 1)
  --faults SPEC           arm daemon-side fault injection (docs/TESTING.md)

submit options (exit 3 = campaign completed degraded):
  submit <spec> [--cell N]   submit a campaign spec file (or one cell of it)
  --server HOST:PORT      daemon address                 (default 127.0.0.1:7433)
  --client NAME           fair-queue identity            (default $USER or anon)
  --status                fetch /v1/status instead of submitting
  --timeout S             request deadline               (default 600)
  --retries N             deterministic retry budget on 429/503, honoring
                          Retry-After                    (default 0 = none)
  --retry-base MS         retry backoff base             (default 250)
  --retry-cap MS          retry backoff cap              (default 10000)
  --retry-seed S          retry jitter seed              (default 0)
  --inject SPEC           poison campaign cells, e.g. '0:worker-die,2:crash'

worker options (remote peer of a serve daemon; docs/SERVE.md):
  --connect HOST:PORT     daemon address                 (required)
  --name NAME             stable worker identity         (default worker-<pid>)
  --slots N               concurrent leases              (default 1)
  --work-dir DIR          spec/shard scratch             (default .feast-worker)
  --cache-dir DIR         exec-cell result cache         (default .feast-cache)
  --no-cache              disable the result cache
  --threads N             --threads given to exec-cell   (default 1)
  --poll-ms MS            idle lease-poll interval       (default 50)
  --backoff-base MS       reconnect backoff base         (default 250)
  --backoff-cap MS        reconnect backoff cap          (default 10000)
  --max-reconnects N      give up after N reconnects     (default 0 = never)
  --max-cells N           exit after N results           (default 0 = never)
  --request-timeout S     per-HTTP-request deadline      (default 10)
  --feastc PATH           exec-cell binary               (default: this binary)
  --faults SPEC           arm worker-side fault injection (docs/TESTING.md)

torture options (protocol: docs/TESTING.md):
  --trials N              kill/resume/compare cycles     (default 5)
  --seed S                root RNG seed                  (default 42)
  --work-dir DIR          scratch directory              (default .feast-torture)
  --feastc PATH           binary to drive                (default: this binary)
  --keep                  keep the scratch directory on success

chaos options (networked fabric torture; docs/ROBUSTNESS.md):
  --trials N              fault-family trials            (default 8)
  --seed S                root RNG seed                  (default 42)
  --workers K             remote workers per trial       (default 2)
  --work-dir DIR          scratch directory              (default .feast-chaos)
  --feastc PATH           binary to drive                (default: this binary)
  --timeout S             deadline per distributed run   (default 300)
  --keep                  keep the scratch directory on success

run 'feastc <command> --help' for the relevant subset.
)";

/// Simple sequential argument cursor.
class Args {
 public:
  explicit Args(std::vector<std::string> args) : args_(std::move(args)) {}

  bool done() const noexcept { return next_ >= args_.size(); }

  std::string pop() {
    FEAST_ASSERT(!done());
    return args_[next_++];
  }

  std::string value_for(const std::string& flag) {
    if (done()) throw UsageError("option " + flag + " needs a value");
    return pop();
  }

 private:
  std::vector<std::string> args_;
  std::size_t next_ = 0;
};

double parse_double_arg(const std::string& flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw UsageError("bad number for " + flag + ": '" + text + "'");
  }
}

long long parse_int_arg(const std::string& flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(text, &pos, 0);
    if (pos != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw UsageError("bad integer for " + flag + ": '" + text + "'");
  }
}

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

std::pair<int, int> parse_range_arg(const std::string& flag, const std::string& text) {
  const auto pieces = split(text, ':');
  if (pieces.size() != 2) throw UsageError(flag + " wants A:B, got '" + text + "'");
  const int a = static_cast<int>(parse_int_arg(flag, pieces[0]));
  const int b = static_cast<int>(parse_int_arg(flag, pieces[1]));
  if (a < 1 || b < a) throw UsageError(flag + " range is empty: '" + text + "'");
  return {a, b};
}

/// Distribution-related options shared by distribute/schedule.
struct MetricOptions {
  std::string metric = "pure";
  double delta = 1.0;
  double threshold = 1.25;
  std::string estimator = "ccne";
  int procs = 4;

  /// Consumes the flag if it belongs to this group; true when consumed.
  bool consume(const std::string& flag, Args& args) {
    if (flag == "--metric") {
      metric = args.value_for(flag);
      if (metric != "pure" && metric != "norm" && metric != "thres" &&
          metric != "adapt") {
        throw UsageError("unknown metric '" + metric + "'");
      }
      return true;
    }
    if (flag == "--delta") {
      delta = parse_double_arg(flag, args.value_for(flag));
      return true;
    }
    if (flag == "--threshold") {
      threshold = parse_double_arg(flag, args.value_for(flag));
      return true;
    }
    if (flag == "--estimator") {
      estimator = args.value_for(flag);
      if (estimator != "ccne" && estimator != "ccaa") {
        throw UsageError("unknown estimator '" + estimator + "'");
      }
      return true;
    }
    if (flag == "--procs") {
      procs = static_cast<int>(parse_int_arg(flag, args.value_for(flag)));
      if (procs < 1) throw UsageError("--procs must be positive");
      return true;
    }
    return false;
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

/// Loads a graph from a path or stdin ("-").
TaskGraph load_graph(const std::string& path, std::istream& in) {
  if (path == "-") return read_task_graph(in);
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open '" + path + "'");
  return read_task_graph(file);
}

// ----------------------------------------------------------------- generate

int cmd_generate(Args& args, std::ostream& out) {
  std::uint64_t seed = 1;
  std::string shape = "random";
  RandomGraphConfig config;
  ShapeConfig shape_config;

  while (!args.done()) {
    const std::string flag = args.pop();
    if (flag == "--seed") {
      seed = static_cast<std::uint64_t>(parse_int_arg(flag, args.value_for(flag)));
    } else if (flag == "--shape") {
      shape = args.value_for(flag);
    } else if (flag == "--scenario") {
      const std::string name = args.value_for(flag);
      if (name == "LDET") config.set_scenario(ExecSpreadScenario::LDET);
      else if (name == "MDET") config.set_scenario(ExecSpreadScenario::MDET);
      else if (name == "HDET") config.set_scenario(ExecSpreadScenario::HDET);
      else throw UsageError("unknown scenario '" + name + "'");
      shape_config.exec_spread = config.exec_spread;
    } else if (flag == "--subtasks") {
      std::tie(config.min_subtasks, config.max_subtasks) =
          parse_range_arg(flag, args.value_for(flag));
    } else if (flag == "--depth") {
      std::tie(config.min_depth, config.max_depth) =
          parse_range_arg(flag, args.value_for(flag));
    } else if (flag == "--ccr") {
      config.ccr = parse_double_arg(flag, args.value_for(flag));
      shape_config.ccr = config.ccr;
    } else if (flag == "--olr") {
      config.olr = parse_double_arg(flag, args.value_for(flag));
      shape_config.olr = config.olr;
    } else {
      throw UsageError("generate: unknown option '" + flag + "'");
    }
  }

  Pcg32 rng(seed);
  TaskGraph graph;
  if (shape == "random") graph = generate_random_graph(config, rng);
  else if (shape == "chain") graph = make_chain(20, shape_config, rng);
  else if (shape == "in-tree") graph = make_in_tree(5, 2, shape_config, rng);
  else if (shape == "out-tree") graph = make_out_tree(5, 2, shape_config, rng);
  else if (shape == "fork-join") graph = make_fork_join(3, 5, 2, shape_config, rng);
  else if (shape == "diamond") graph = make_diamond(8, shape_config, rng);
  else throw UsageError("unknown shape '" + shape + "'");

  write_task_graph(out, graph);
  return kOk;
}

// --------------------------------------------------------------------- info

int cmd_info(Args& args, std::istream& in, std::ostream& out) {
  std::optional<std::string> path;
  while (!args.done()) {
    const std::string flag = args.pop();
    if (!path && (flag == "-" || flag.empty() || flag[0] != '-')) path = flag;
    else throw UsageError("info: unknown option '" + flag + "'");
  }
  if (!path) throw UsageError("info: missing graph argument");

  const TaskGraph graph = load_graph(*path, in);
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

int cmd_distribute(Args& args, std::istream& in, std::ostream& out) {
  std::optional<std::string> path;
  MetricOptions metric_options;
  std::string format = "table";
  std::optional<std::string> windows_out;

  while (!args.done()) {
    const std::string flag = args.pop();
    if (metric_options.consume(flag, args)) continue;
    if (flag == "--format") {
      format = args.value_for(flag);
      if (format != "table" && format != "csv") {
        throw UsageError("unknown format '" + format + "'");
      }
    } else if (flag == "--windows-out") {
      windows_out = args.value_for(flag);
    } else if (!path && (flag == "-" || flag.empty() || flag[0] != '-')) {
      path = flag;
    } else {
      throw UsageError("distribute: unknown option '" + flag + "'");
    }
  }
  if (!path) throw UsageError("distribute: missing graph argument");

  const TaskGraph graph = load_graph(*path, in);
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

int cmd_schedule(Args& args, std::istream& in, std::ostream& out) {
  std::optional<std::string> path;
  MetricOptions metric_options;
  Machine machine;
  SchedulerOptions sched_options;
  bool gantt = false;
  bool csv = false;
  bool detailed_report = false;
  std::optional<std::string> windows_path;

  while (!args.done()) {
    const std::string flag = args.pop();
    if (metric_options.consume(flag, args)) continue;
    if (flag == "--windows") {
      windows_path = args.value_for(flag);
    } else if (flag == "--contention") {
      const std::string name = args.value_for(flag);
      if (name == "free") machine.contention = CommContention::ContentionFree;
      else if (name == "bus") machine.contention = CommContention::SharedBus;
      else if (name == "links") machine.contention = CommContention::PointToPointLinks;
      else throw UsageError("unknown contention model '" + name + "'");
    } else if (flag == "--release") {
      const std::string name = args.value_for(flag);
      if (name == "time-driven") sched_options.release_policy = ReleasePolicy::TimeDriven;
      else if (name == "eager") sched_options.release_policy = ReleasePolicy::Eager;
      else throw UsageError("unknown release policy '" + name + "'");
    } else if (flag == "--gantt") {
      gantt = true;
    } else if (flag == "--csv") {
      csv = true;
    } else if (flag == "--report") {
      detailed_report = true;
    } else if (!path && (flag == "-" || flag.empty() || flag[0] != '-')) {
      path = flag;
    } else {
      throw UsageError("schedule: unknown option '" + flag + "'");
    }
  }
  if (!path) throw UsageError("schedule: missing graph argument");

  const TaskGraph graph = load_graph(*path, in);
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

int cmd_simulate(Args& args, std::istream& in, std::ostream& out) {
  std::optional<std::string> path;
  MetricOptions metric_options;
  RuntimeOptions runtime;
  int runs = 100;
  std::uint64_t sim_seed = 1;

  while (!args.done()) {
    const std::string flag = args.pop();
    if (metric_options.consume(flag, args)) continue;
    if (flag == "--runs") {
      runs = static_cast<int>(parse_int_arg(flag, args.value_for(flag)));
      if (runs < 1) throw UsageError("--runs must be positive");
    } else if (flag == "--overrun") {
      const std::string value = args.value_for(flag);
      const auto pieces = split(value, ':');
      if (pieces.size() != 2) throw UsageError("--overrun wants A:B");
      runtime.exec_scale_min = parse_double_arg(flag, pieces[0]);
      runtime.exec_scale_max = parse_double_arg(flag, pieces[1]);
      if (runtime.exec_scale_min <= 0.0 ||
          runtime.exec_scale_max < runtime.exec_scale_min) {
        throw UsageError("--overrun range is empty or non-positive");
      }
    } else if (flag == "--background") {
      runtime.background_utilization = parse_double_arg(flag, args.value_for(flag));
      if (runtime.background_utilization < 0.0 || runtime.background_utilization >= 1.0) {
        throw UsageError("--background must be in [0, 1)");
      }
    } else if (flag == "--bg-service") {
      runtime.background_service = parse_double_arg(flag, args.value_for(flag));
      if (runtime.background_service <= 0.0) {
        throw UsageError("--bg-service must be positive");
      }
    } else if (flag == "--preemptive") {
      runtime.preemptive = true;
    } else if (flag == "--sim-seed") {
      sim_seed = static_cast<std::uint64_t>(parse_int_arg(flag, args.value_for(flag)));
    } else if (!path && (flag == "-" || flag.empty() || flag[0] != '-')) {
      path = flag;
    } else {
      throw UsageError("simulate: unknown option '" + flag + "'");
    }
  }
  if (!path) throw UsageError("simulate: missing graph argument");

  const TaskGraph graph = load_graph(*path, in);
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

/// Parses \p flag when it is one of the worker-supervision flags `campaign
/// run` and `serve` share (SupervisorOptions and ServeOptions name these
/// fields alike).  Returns false for any other flag.
template <class WorkerOptions>
bool parse_worker_flag(const std::string& flag, Args& args,
                       WorkerOptions& options) {
  const auto seconds = [&](double& value) {
    value = parse_double_arg(flag, args.value_for(flag));
    if (value < 0.0) throw UsageError(flag + " must be >= 0");
  };
  if (flag == "--cell-timeout") {
    seconds(options.cell_timeout_s);
  } else if (flag == "--term-grace") {
    seconds(options.term_grace_s);
  } else if (flag == "--drain-grace") {
    seconds(options.drain_grace_s);
  } else if (flag == "--max-attempts") {
    const long long n = parse_int_arg(flag, args.value_for(flag));
    if (n < 1) throw UsageError("--max-attempts must be positive");
    options.max_attempts = static_cast<int>(n);
  } else if (flag == "--mem-limit") {
    const long long n = parse_int_arg(flag, args.value_for(flag));
    if (n < 0) throw UsageError("--mem-limit must be non-negative");
    options.memory_limit_mb = static_cast<std::uint64_t>(n);
  } else {
    return false;
  }
  return true;
}

/// Worker verb of the supervised runner (spawned by the supervisor, not
/// documented in the usage text): executes exactly one cell and writes the
/// shard-result file the supervisor merges.
int cmd_campaign_exec_cell(Args& args) {
  std::optional<std::string> spec_path;
  std::optional<std::string> out_path;
  std::optional<std::size_t> cell;
  std::string cache_dir = ".feast-cache";
  std::string inject;
  std::string faults;
  bool no_cache = false;
  unsigned threads = 0;

  while (!args.done()) {
    const std::string flag = args.pop();
    if (flag == "--cell") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 0) throw UsageError("--cell must be non-negative");
      cell = static_cast<std::size_t>(n);
    } else if (flag == "--out") {
      out_path = args.value_for(flag);
    } else if (flag == "--cache-dir") {
      cache_dir = args.value_for(flag);
    } else if (flag == "--no-cache") {
      no_cache = true;
    } else if (flag == "--threads") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 1) throw UsageError("--threads must be positive");
      threads = static_cast<unsigned>(n);
    } else if (flag == "--inject") {
      inject = args.value_for(flag);
    } else if (flag == "--faults") {
      faults = args.value_for(flag);
    } else if (!spec_path && (flag.empty() || flag[0] != '-')) {
      spec_path = flag;
    } else {
      throw UsageError("campaign exec-cell: unknown option '" + flag + "'");
    }
  }
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

int cmd_campaign(Args& args, std::ostream& out) {
  if (args.done()) throw UsageError("campaign: expected run, resume or status");
  const std::string verb = args.pop();

  if (verb == "exec-cell") return cmd_campaign_exec_cell(args);
  if (verb == "status") {
    std::optional<std::string> manifest_path;
    bool json = false;
    while (!args.done()) {
      const std::string flag = args.pop();
      if (flag == "--json") json = true;
      else if (!manifest_path && (flag.empty() || flag[0] != '-')) manifest_path = flag;
      else throw UsageError("campaign status: unknown option '" + flag + "'");
    }
    if (!manifest_path) throw UsageError("campaign status: missing manifest argument");
    const Manifest manifest = read_manifest_file(*manifest_path);
    if (json) write_manifest_status_json(out, manifest);
    else print_manifest_status(out, manifest);
    return kOk;
  }
  if (verb != "run" && verb != "resume") {
    throw UsageError("campaign: unknown subcommand '" + verb + "'");
  }

  std::optional<std::string> spec_path;
  std::optional<std::string> manifest_path;
  std::optional<std::string> trace_path;
  std::string cache_dir = ".feast-cache";
  std::string fault_spec;
  bool no_cache = false;
  bool quiet = false;
  unsigned threads = 0;
  bool isolate = false;
  supervise::SupervisorOptions sup;

  while (!args.done()) {
    const std::string flag = args.pop();
    if (parse_worker_flag(flag, args, sup)) continue;
    if (flag == "--manifest") {
      manifest_path = args.value_for(flag);
    } else if (flag == "--cache-dir") {
      cache_dir = args.value_for(flag);
    } else if (flag == "--no-cache") {
      no_cache = true;
    } else if (flag == "--threads") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 0) throw UsageError("--threads must be non-negative");
      threads = static_cast<unsigned>(n);
    } else if (flag == "--quiet") {
      quiet = true;
    } else if (flag == "--trace-out") {
      trace_path = args.value_for(flag);
    } else if (flag == "--faults") {
      fault_spec = args.value_for(flag);
    } else if (flag == "--isolate" || flag.rfind("--isolate=", 0) == 0) {
      const std::string mode =
          flag == "--isolate" ? args.value_for(flag) : flag.substr(10);
      if (mode == "process") isolate = true;
      else if (mode == "none") isolate = false;
      else throw UsageError("--isolate wants process|none, got '" + mode + "'");
    } else if (flag == "--workers") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 1) throw UsageError("--workers must be positive");
      sup.workers = static_cast<int>(n);
    } else if (flag == "--backoff-base") {
      sup.backoff.base_ms = parse_double_arg(flag, args.value_for(flag));
      if (sup.backoff.base_ms < 0.0) throw UsageError("--backoff-base must be >= 0");
    } else if (flag == "--backoff-cap") {
      sup.backoff.cap_ms = parse_double_arg(flag, args.value_for(flag));
      if (sup.backoff.cap_ms < 0.0) throw UsageError("--backoff-cap must be >= 0");
    } else if (flag == "--work-dir") {
      sup.work_dir = args.value_for(flag);
    } else if (flag == "--keep-work") {
      sup.keep_work_dir = true;
    } else if (flag == "--inject") {
      try {
        sup.inject = supervise::parse_inject_spec(args.value_for(flag));
      } catch (const std::invalid_argument& e) {
        throw UsageError(std::string("--inject: ") + e.what());
      }
    } else if (flag == "--fault-cell") {
      // CELL:FAULT-SPEC — the first ':' splits the cell index from the
      // fault-plan spec (which itself contains colons).
      const std::string value = args.value_for(flag);
      const std::size_t colon = value.find(':');
      if (colon == std::string::npos || colon == 0 || colon + 1 == value.size()) {
        throw UsageError("--fault-cell wants CELL:SPEC, got '" + value + "'");
      }
      const long long n = parse_int_arg(flag, value.substr(0, colon));
      if (n < 0) throw UsageError("--fault-cell index must be non-negative");
      sup.fault_cells[static_cast<std::size_t>(n)] = value.substr(colon + 1);
    } else if (!spec_path && (flag.empty() || flag[0] != '-')) {
      spec_path = flag;
    } else {
      throw UsageError("campaign " + verb + ": unknown option '" + flag + "'");
    }
  }
  if (!spec_path) throw UsageError("campaign " + verb + ": missing spec argument");

  CampaignSpec spec = CampaignSpec::parse_file(*spec_path);
  std::optional<check::FaultPlan> faults;
  parse_faults_arg(fault_spec, faults);
  if (faults) spec.context.faults = &*faults;
  CampaignOptions options;
  options.manifest_path = manifest_path.value_or(spec.name + ".manifest.json");
  options.resume = verb == "resume";
  options.threads = threads;
  std::unique_ptr<ResultCache> cache;
  if (!no_cache) {
    cache = std::make_unique<ResultCache>(cache_dir);
    options.cache = cache.get();
  }
  if (!quiet) options.progress = &out;

  if (isolate) {
    sup.spec_path = *spec_path;
    sup.cache_dir = cache_dir;
    sup.no_cache = no_cache;
    if (threads > 0) sup.worker_threads = threads;
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
        << " misses, " << cache->stores() << " stores (" << cache_dir << ")\n";
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

// -------------------------------------------------------------------- exact

/// `exact solve <graph>`: one instance, heuristic vs the branch-and-bound
/// oracle (docs/EXACT.md).  Exits non-zero when the oracle beats the
/// certified `optimal <= heuristic` tolerance — the CLI face of the
/// property-harness invariant.
int cmd_exact_solve(Args& args, std::istream& in, std::ostream& out) {
  std::optional<std::string> path;
  MetricOptions metric_options;
  Machine machine;
  SchedulerOptions sched_options;
  std::uint64_t budget = 0;
  double time_budget = 0.0;

  while (!args.done()) {
    const std::string flag = args.pop();
    if (metric_options.consume(flag, args)) continue;
    if (flag == "--contention") {
      const std::string name = args.value_for(flag);
      if (name == "free") machine.contention = CommContention::ContentionFree;
      else if (name == "bus") machine.contention = CommContention::SharedBus;
      else if (name == "links") machine.contention = CommContention::PointToPointLinks;
      else throw UsageError("unknown contention model '" + name + "'");
    } else if (flag == "--release") {
      const std::string name = args.value_for(flag);
      if (name == "time-driven") sched_options.release_policy = ReleasePolicy::TimeDriven;
      else if (name == "eager") sched_options.release_policy = ReleasePolicy::Eager;
      else throw UsageError("unknown release policy '" + name + "'");
    } else if (flag == "--budget") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 0) throw UsageError("--budget must be non-negative");
      budget = static_cast<std::uint64_t>(n);
    } else if (flag == "--time-budget") {
      time_budget = parse_double_arg(flag, args.value_for(flag));
      if (time_budget < 0.0) throw UsageError("--time-budget must be >= 0");
    } else if (!path && (flag == "-" || flag.empty() || flag[0] != '-')) {
      path = flag;
    } else {
      throw UsageError("exact solve: unknown option '" + flag + "'");
    }
  }
  if (!path) throw UsageError("exact solve: missing graph argument");

  const TaskGraph graph = load_graph(*path, in);
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
int cmd_exact_gap(Args& args, std::ostream& out) {
  std::optional<std::string> spec_path;
  std::optional<std::string> manifest_path;
  std::optional<std::string> csv_path;
  std::optional<std::string> bench_path;
  std::optional<std::uint64_t> budget;
  std::string cache_dir = ".feast-cache";
  bool no_cache = false;
  bool quiet = false;
  bool resume = false;
  unsigned threads = 0;

  while (!args.done()) {
    const std::string flag = args.pop();
    if (flag == "--manifest") {
      manifest_path = args.value_for(flag);
    } else if (flag == "--out") {
      csv_path = args.value_for(flag);
    } else if (flag == "--bench-out") {
      bench_path = args.value_for(flag);
    } else if (flag == "--budget") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 0) throw UsageError("--budget must be non-negative");
      budget = static_cast<std::uint64_t>(n);
    } else if (flag == "--cache-dir") {
      cache_dir = args.value_for(flag);
    } else if (flag == "--no-cache") {
      no_cache = true;
    } else if (flag == "--threads") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 0) throw UsageError("--threads must be non-negative");
      threads = static_cast<unsigned>(n);
    } else if (flag == "--quiet") {
      quiet = true;
    } else if (flag == "--resume") {
      resume = true;
    } else if (!spec_path && (flag.empty() || flag[0] != '-')) {
      spec_path = flag;
    } else {
      throw UsageError("exact gap: unknown option '" + flag + "'");
    }
  }
  if (!spec_path) throw UsageError("exact gap: missing spec argument");

  CampaignSpec spec = CampaignSpec::parse_file(*spec_path);
  spec.mode = CampaignMode::Gap;
  if (budget) spec.exact_nodes = *budget;

  CampaignOptions options;
  options.manifest_path = manifest_path.value_or(spec.name + ".gap.manifest.json");
  options.resume = resume;
  options.threads = threads;
  std::unique_ptr<ResultCache> cache;
  if (!no_cache) {
    cache = std::make_unique<ResultCache>(cache_dir);
    options.cache = cache.get();
  }
  if (!quiet) options.progress = &out;

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

int cmd_exact(Args& args, std::istream& in, std::ostream& out) {
  if (args.done()) throw UsageError("exact: expected solve or gap");
  const std::string verb = args.pop();
  if (verb == "solve") return cmd_exact_solve(args, in, out);
  if (verb == "gap") return cmd_exact_gap(args, out);
  throw UsageError("exact: unknown subcommand '" + verb + "'");
}

// -------------------------------------------------------------------- serve

int cmd_serve(Args& args, std::ostream& out) {
  serve::ServeOptions options;
  options.work_dir = ".feast-serve";
  bool quiet = false;
  std::string fault_spec;

  while (!args.done()) {
    const std::string flag = args.pop();
    if (parse_worker_flag(flag, args, options)) continue;
    if (flag == "--host") {
      options.host = args.value_for(flag);
    } else if (flag == "--port") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 0 || n > 65535) throw UsageError("--port wants 0..65535");
      options.port = static_cast<std::uint16_t>(n);
    } else if (flag == "--workers") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 0) throw UsageError("--workers must be >= 0 (0 = remote-only)");
      options.workers = static_cast<int>(n);
    } else if (flag == "--max-queue") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 1) throw UsageError("--max-queue must be positive");
      options.max_queue = static_cast<int>(n);
    } else if (flag == "--max-connections") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 1) throw UsageError("--max-connections must be positive");
      options.max_connections = static_cast<int>(n);
    } else if (flag == "--header-timeout") {
      options.header_timeout_s = parse_double_arg(flag, args.value_for(flag));
      if (options.header_timeout_s <= 0.0) throw UsageError("--header-timeout must be > 0");
    } else if (flag == "--idle-timeout") {
      options.idle_timeout_s = parse_double_arg(flag, args.value_for(flag));
      if (options.idle_timeout_s <= 0.0) throw UsageError("--idle-timeout must be > 0");
    } else if (flag == "--threads") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 1) throw UsageError("--threads must be positive");
      options.worker_threads = static_cast<unsigned>(n);
    } else if (flag == "--work-dir") {
      options.work_dir = args.value_for(flag);
    } else if (flag == "--cache-dir") {
      options.cache_dir = args.value_for(flag);
    } else if (flag == "--no-cache") {
      options.no_cache = true;
    } else if (flag == "--max-body") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 1) throw UsageError("--max-body must be positive");
      options.http.max_body_bytes = static_cast<std::size_t>(n);
    } else if (flag == "--heartbeat-timeout") {
      options.heartbeat_timeout_s = parse_double_arg(flag, args.value_for(flag));
      if (options.heartbeat_timeout_s <= 0.0) {
        throw UsageError("--heartbeat-timeout must be > 0");
      }
    } else if (flag == "--lease-timeout") {
      options.lease_timeout_s = parse_double_arg(flag, args.value_for(flag));
      if (options.lease_timeout_s < 0.0) {
        throw UsageError("--lease-timeout must be >= 0");
      }
    } else if (flag == "--poison-deaths") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 1) throw UsageError("--poison-deaths must be positive");
      options.poison_worker_deaths = static_cast<int>(n);
    } else if (flag == "--retry-after") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 0) throw UsageError("--retry-after must be non-negative");
      options.retry_after_s = static_cast<int>(n);
    } else if (flag == "--faults") {
      fault_spec = args.value_for(flag);
    } else if (flag == "--quiet") {
      quiet = true;
    } else {
      throw UsageError("serve: unknown option '" + flag + "'");
    }
  }
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

int cmd_submit(Args& args, std::istream& in, std::ostream& out) {
  std::string server_addr = "127.0.0.1:7433";
  std::string client;
  std::optional<std::string> spec_path;
  std::optional<long long> cell;
  bool status_only = false;
  double timeout_s = 600.0;
  int retries = 0;
  supervise::BackoffPolicy retry_backoff;
  std::string inject;

  while (!args.done()) {
    const std::string flag = args.pop();
    if (flag == "--server") {
      server_addr = args.value_for(flag);
    } else if (flag == "--client") {
      client = args.value_for(flag);
    } else if (flag == "--cell") {
      cell = parse_int_arg(flag, args.value_for(flag));
      if (*cell < 0) throw UsageError("--cell must be non-negative");
    } else if (flag == "--status") {
      status_only = true;
    } else if (flag == "--timeout") {
      timeout_s = parse_double_arg(flag, args.value_for(flag));
      if (timeout_s <= 0.0) throw UsageError("--timeout must be > 0");
    } else if (flag == "--retries") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 0) throw UsageError("--retries must be non-negative");
      retries = static_cast<int>(n);
    } else if (flag == "--retry-base") {
      retry_backoff.base_ms = parse_double_arg(flag, args.value_for(flag));
      if (retry_backoff.base_ms <= 0.0) throw UsageError("--retry-base must be > 0");
    } else if (flag == "--retry-cap") {
      retry_backoff.cap_ms = parse_double_arg(flag, args.value_for(flag));
      if (retry_backoff.cap_ms <= 0.0) throw UsageError("--retry-cap must be > 0");
    } else if (flag == "--retry-seed") {
      retry_backoff.seed =
          static_cast<std::uint64_t>(parse_int_arg(flag, args.value_for(flag)));
    } else if (flag == "--inject") {
      inject = args.value_for(flag);
    } else if (!spec_path && (flag.empty() || flag[0] != '-')) {
      spec_path = flag;
    } else if (flag == "-" && !spec_path) {
      spec_path = flag;
    } else {
      throw UsageError("submit: unknown option '" + flag + "'");
    }
  }
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

int cmd_worker(Args& args, std::ostream& out) {
  serve::RemoteWorkerOptions options;
  options.work_dir = ".feast-worker";
  options.allow_process_exit = true;
  std::string connect;
  std::string fault_spec;
  bool quiet = false;

  while (!args.done()) {
    const std::string flag = args.pop();
    if (flag == "--connect") {
      connect = args.value_for(flag);
    } else if (flag == "--name") {
      options.name = args.value_for(flag);
    } else if (flag == "--slots") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 1 || n > 64) throw UsageError("--slots wants 1..64");
      options.slots = static_cast<int>(n);
    } else if (flag == "--work-dir") {
      options.work_dir = args.value_for(flag);
    } else if (flag == "--cache-dir") {
      options.cache_dir = args.value_for(flag);
    } else if (flag == "--no-cache") {
      options.no_cache = true;
    } else if (flag == "--feastc") {
      options.feastc_path = args.value_for(flag);
    } else if (flag == "--threads") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 1) throw UsageError("--threads must be positive");
      options.threads = static_cast<unsigned>(n);
    } else if (flag == "--poll-ms") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 1) throw UsageError("--poll-ms must be positive");
      options.poll_ms = static_cast<int>(n);
    } else if (flag == "--backoff-base") {
      options.backoff.base_ms = parse_double_arg(flag, args.value_for(flag));
      if (options.backoff.base_ms <= 0.0) throw UsageError("--backoff-base must be > 0");
    } else if (flag == "--backoff-cap") {
      options.backoff.cap_ms = parse_double_arg(flag, args.value_for(flag));
      if (options.backoff.cap_ms <= 0.0) throw UsageError("--backoff-cap must be > 0");
    } else if (flag == "--max-reconnects") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 0) throw UsageError("--max-reconnects must be non-negative");
      options.max_reconnects = static_cast<int>(n);
    } else if (flag == "--max-cells") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 0) throw UsageError("--max-cells must be non-negative");
      options.max_cells = static_cast<std::uint64_t>(n);
    } else if (flag == "--request-timeout") {
      options.request_timeout_s = parse_double_arg(flag, args.value_for(flag));
      if (options.request_timeout_s <= 0.0) {
        throw UsageError("--request-timeout must be > 0");
      }
    } else if (flag == "--faults") {
      fault_spec = args.value_for(flag);
    } else if (flag == "--quiet") {
      quiet = true;
    } else {
      throw UsageError("worker: unknown option '" + flag + "'");
    }
  }
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

int cmd_profile(Args& args, std::ostream& out) {
  BatchConfig batch;
  batch.samples = 32;
  RunContext context;
  ExecSpreadScenario scenario = ExecSpreadScenario::MDET;
  std::vector<int> sizes = paper_sizes();
  std::optional<std::string> trace_path;
  unsigned threads = 0;

  while (!args.done()) {
    const std::string flag = args.pop();
    if (flag == "--samples") {
      batch.samples = static_cast<int>(parse_int_arg(flag, args.value_for(flag)));
      if (batch.samples < 1) throw UsageError("--samples must be positive");
    } else if (flag == "--seed") {
      batch.seed = static_cast<std::uint64_t>(parse_int_arg(flag, args.value_for(flag)));
    } else if (flag == "--sizes") {
      sizes.clear();
      for (const std::string& piece : split(args.value_for(flag), ',')) {
        const long long n = parse_int_arg(flag, trim(piece));
        if (n < 1) throw UsageError("--sizes must be positive");
        sizes.push_back(static_cast<int>(n));
      }
      if (sizes.empty()) throw UsageError("--sizes is empty");
    } else if (flag == "--scenario") {
      const std::string name = args.value_for(flag);
      if (name == "LDET") scenario = ExecSpreadScenario::LDET;
      else if (name == "MDET") scenario = ExecSpreadScenario::MDET;
      else if (name == "HDET") scenario = ExecSpreadScenario::HDET;
      else throw UsageError("unknown scenario '" + name + "'");
    } else if (flag == "--contention") {
      const std::string name = args.value_for(flag);
      if (name == "free") batch.contention = CommContention::ContentionFree;
      else if (name == "bus") batch.contention = CommContention::SharedBus;
      else if (name == "links") batch.contention = CommContention::PointToPointLinks;
      else throw UsageError("unknown contention model '" + name + "'");
    } else if (flag == "--core") {
      const std::string name = args.value_for(flag);
      if (name == "fast") context.core = SchedulerCore::Fast;
      else if (name == "reference") context.core = SchedulerCore::Reference;
      else throw UsageError("unknown core '" + name + "'");
    } else if (flag == "--threads") {
      const long long n = parse_int_arg(flag, args.value_for(flag));
      if (n < 1) throw UsageError("--threads must be positive");
      threads = static_cast<unsigned>(n);
    } else if (flag == "--trace-out") {
      trace_path = args.value_for(flag);
    } else {
      throw UsageError("profile: unknown option '" + flag + "'");
    }
  }

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

int cmd_dot(Args& args, std::istream& in, std::ostream& out) {
  std::optional<std::string> path;
  while (!args.done()) {
    const std::string flag = args.pop();
    if (!path && (flag == "-" || flag.empty() || flag[0] != '-')) path = flag;
    else throw UsageError("dot: unknown option '" + flag + "'");
  }
  if (!path) throw UsageError("dot: missing graph argument");
  write_dot(out, load_graph(*path, in));
  return kOk;
}

// ---------------------------------------------------------------- diffsched

int cmd_diffsched(Args& args, std::ostream& out) {
  DiffSchedConfig config;
  while (!args.done()) {
    const std::string flag = args.pop();
    if (flag == "--trials") {
      config.trials = static_cast<int>(parse_int_arg(flag, args.value_for(flag)));
      if (config.trials < 1) throw UsageError("--trials must be positive");
    } else if (flag == "--seed") {
      config.seed =
          static_cast<std::uint64_t>(parse_int_arg(flag, args.value_for(flag)));
    } else if (flag == "--quick") {
      config.quick = true;
    } else {
      throw UsageError("diffsched: unknown option '" + flag + "'");
    }
  }
  const DiffSchedResult result = run_diffsched(config, &out);
  return result.ok() ? kOk : kFailure;
}

// ----------------------------------------------------------------- diffdist

int cmd_diffdist(Args& args, std::ostream& out) {
  DiffDistConfig config;
  while (!args.done()) {
    const std::string flag = args.pop();
    if (flag == "--trials") {
      config.trials = static_cast<int>(parse_int_arg(flag, args.value_for(flag)));
      if (config.trials < 1) throw UsageError("--trials must be positive");
    } else if (flag == "--seed") {
      config.seed =
          static_cast<std::uint64_t>(parse_int_arg(flag, args.value_for(flag)));
    } else if (flag == "--quick") {
      config.quick = true;
    } else {
      throw UsageError("diffdist: unknown option '" + flag + "'");
    }
  }
  const DiffDistResult result = run_diffdist(config, &out);
  return result.ok() ? kOk : kFailure;
}

// ------------------------------------------------------------------ torture

/// Parses \p flag when it is one of the trial flags `torture` and `chaos`
/// share (TortureOptions and ChaosOptions name these fields alike).
/// Returns false for any other flag.
template <class TrialOptions>
bool parse_trial_flag(const std::string& flag, Args& args, TrialOptions& options) {
  if (flag == "--trials") {
    options.trials = static_cast<int>(parse_int_arg(flag, args.value_for(flag)));
    if (options.trials < 1) throw UsageError("--trials must be positive");
  } else if (flag == "--seed") {
    options.seed =
        static_cast<std::uint64_t>(parse_int_arg(flag, args.value_for(flag)));
  } else if (flag == "--work-dir") {
    options.work_dir = args.value_for(flag);
  } else if (flag == "--feastc") {
    options.feastc_path = args.value_for(flag);
  } else if (flag == "--keep") {
    options.keep_work_dir = true;
  } else {
    return false;
  }
  return true;
}

int cmd_torture(Args& args, std::ostream& out) {
  check::TortureOptions options;
  while (!args.done()) {
    const std::string flag = args.pop();
    if (!parse_trial_flag(flag, args, options)) {
      throw UsageError("torture: unknown option '" + flag + "'");
    }
  }

  options.log = &out;
  const check::TortureResult result = check::run_torture(options);
  out << "torture: " << (result.trials.size() - result.failures()) << "/"
      << result.trials.size() << " trials survived kill + resume\n";
  return result.ok() ? kOk : kFailure;
}

// -------------------------------------------------------------------- chaos

int cmd_chaos(Args& args, std::ostream& out) {
  check::ChaosOptions options;
  while (!args.done()) {
    const std::string flag = args.pop();
    if (parse_trial_flag(flag, args, options)) continue;
    if (flag == "--workers") {
      options.workers = static_cast<int>(parse_int_arg(flag, args.value_for(flag)));
      if (options.workers < 1) throw UsageError("--workers must be positive");
    } else if (flag == "--timeout") {
      options.subprocess_timeout_s = parse_double_arg(flag, args.value_for(flag));
      if (options.subprocess_timeout_s <= 0.0) {
        throw UsageError("--timeout must be > 0");
      }
    } else {
      throw UsageError("chaos: unknown option '" + flag + "'");
    }
  }

  options.log = &out;
  const check::ChaosResult result = check::run_chaos(options);
  out << "chaos: " << (result.trials.size() - result.failures()) << "/"
      << result.trials.size()
      << " trials matched the in-process baseline under network faults\n";
  return result.ok() ? kOk : kFailure;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::istream& in, std::ostream& out,
            std::ostream& err) {
  try {
    if (args.empty() || args[0] == "--help" || args[0] == "-h" || args[0] == "help") {
      out << kUsageText;
      return args.empty() ? kUsage : kOk;
    }
    const std::string command = args[0];
    for (const std::string& arg : args) {
      if (arg == "--help" || arg == "-h") {
        out << kUsageText;
        return kOk;
      }
    }
    Args rest(std::vector<std::string>(args.begin() + 1, args.end()));

    if (command == "generate") return cmd_generate(rest, out);
    if (command == "info") return cmd_info(rest, in, out);
    if (command == "distribute") return cmd_distribute(rest, in, out);
    if (command == "schedule") return cmd_schedule(rest, in, out);
    if (command == "simulate") return cmd_simulate(rest, in, out);
    if (command == "campaign") return cmd_campaign(rest, out);
    if (command == "exact") return cmd_exact(rest, in, out);
    if (command == "profile") return cmd_profile(rest, out);
    if (command == "diffsched") return cmd_diffsched(rest, out);
    if (command == "diffdist") return cmd_diffdist(rest, out);
    if (command == "torture") return cmd_torture(rest, out);
    if (command == "chaos") return cmd_chaos(rest, out);
    if (command == "serve") return cmd_serve(rest, out);
    if (command == "submit") return cmd_submit(rest, in, out);
    if (command == "worker") return cmd_worker(rest, out);
    if (command == "dot") return cmd_dot(rest, in, out);
    throw UsageError("unknown command '" + command + "'");
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
