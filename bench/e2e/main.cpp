/// \file main.cpp
/// \brief feast_e2e: runs one benchmark workload and prints its metrics.
///
///   feast_e2e --workload NAME [--seed N] [--trace 0|1] [--out DIR]
///             [--work-dir DIR]
///   feast_e2e --smoke --benchmark-json FILE [--work-dir DIR]
///
/// An untraced run (--trace 0) measures the end-to-end metrics over the
/// workload's fixed work; a traced run (--trace 1) replays fixed work with
/// one span per public call and reports the per-layer metrics.  Every
/// metric prints as `metric NAME = VALUE UNIT`; the last line of standard
/// output is one JSON object {correct, attempted, failed, metrics}.  A
/// failed correctness check exits 1 after printing; an error that prevents
/// a result exits 2.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace {

using namespace e2e;
namespace fs = std::filesystem;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by every untraced run.  Mirrors BENCHMARK.json's end_to_end
/// list; the smoke test holds the two equal.
constexpr MetricDef kEndToEnd[] = {
    {"work_per_s", "1/s"},        {"latency_p50_ms", "ms"}, {"latency_tail_ms", "ms"},
    {"cpu_ms_per_work", "ms"},    {"peak_rss_mb", "MB"},    {"setup_s", "s"},
};

/// Reported by every traced run; a layer a workload does not exercise
/// reads 0.  Mirrors BENCHMARK.json's per_layer list.
constexpr MetricDef kPerLayer[] = {
    {"taskgraph.generate_ms", "ms"},
    {"core.distribute_ms", "ms"},
    {"core.distribute_share", "ratio"},
    {"core.distribute_us_p50", "us"},
    {"core.distribute_us_p99", "us"},
    {"core.distribute_ms.pure-ccne", "ms"},
    {"core.distribute_ms.pure-ccaa", "ms"},
    {"core.distribute_ms.norm-ccaa", "ms"},
    {"core.distribute_ms.thres", "ms"},
    {"core.distribute_ms.adapt", "ms"},
    {"core.validate_ms", "ms"},
    {"sched.schedule_ms", "ms"},
    {"sched.schedule_us_p50", "us"},
    {"sched.validate_ms", "ms"},
    {"sched.validate_share", "ratio"},
    {"sched.lateness_ms", "ms"},
    {"sched.batch_ms", "ms"},
    {"sched.batch_ms.shared-bus", "ms"},
    {"sched.batch_ms.point-to-point", "ms"},
    {"experiment.sample_ms", "ms"},
    {"experiment.glue_share", "ratio"},
    {"experiment.accounted_share", "ratio"},
    {"campaign.busy_threads", "threads"},
    {"campaign.cached_work_per_s", "1/s"},
    {"campaign.cache_store_us", "us"},
    {"campaign.cache_lookup_us", "us"},
    {"campaign.checkpoint_ms", "ms"},
    {"supervise.exec_cell_ms_p50", "ms"},
    {"supervise.cell_slot_ms.cold", "ms"},
    {"supervise.cell_slot_ms.warm", "ms"},
    {"supervise.outside_worker_ms", "ms"},
    {"supervise.worker_ms", "ms"},
    {"supervise.attempts", "count"},
    {"supervise.retries", "count"},
    {"supervise.shard_us", "us"},
    {"serve.exec_ms_p50", "ms"},
    {"serve.outside_exec_ms_p50", "ms"},
    {"serve.dedup_ratio", "ratio"},
    {"serve.remote_share", "ratio"},
    {"serve.dispatched", "count"},
    {"serve.dedup_hits", "count"},
    {"serve.cache_hits", "count"},
    {"serve.requeued", "count"},
    {"serve.workers_lost", "count"},
    {"serve.shed", "count"},
    {"serve.failed", "count"},
    {"serve.cached_work_per_s", "1/s"},
    {"serve.cached_latency_p50_ms", "ms"},
    {"e2e.trace_overhead_s", "s"},
    {"e2e.trace_overhead_share", "ratio"},
};

using Runner = Outcome (*)(const Options&);

struct Workload {
  const char* name;
  Runner run;
};

constexpr Workload kWorkloads[] = {
    {"cells-slicing", run_cells_slicing},
    {"sched-replay", run_sched_replay},
    {"campaign-isolated", run_campaign_isolated},
    {"serve-mixed", run_serve_mixed},
};

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// The reported metric list of a run, in table order.  Every end-to-end
/// metric must have been measured; unexercised layers read 0.
std::vector<std::pair<MetricDef, double>> reported(const Outcome& outcome, bool trace) {
  std::vector<std::pair<MetricDef, double>> out;
  const auto emit = [&](const MetricDef* begin, const MetricDef* end, bool required) {
    for (const MetricDef* def = begin; def != end; ++def) {
      const auto it = outcome.metrics.find(def->name);
      if (it == outcome.metrics.end() && required) {
        throw std::logic_error(std::string("workload did not measure ") + def->name);
      }
      out.emplace_back(*def, it == outcome.metrics.end() ? 0.0 : it->second);
    }
  };
  if (trace) {
    emit(std::begin(kPerLayer), std::end(kPerLayer), false);
  } else {
    emit(std::begin(kEndToEnd), std::end(kEndToEnd), true);
  }
  for (const auto& [name, value] : outcome.metrics) {
    bool known = false;
    for (const auto& def : kEndToEnd) known = known || name == def.name;
    for (const auto& def : kPerLayer) known = known || name == def.name;
    if (!known) throw std::logic_error("workload set unknown metric " + name);
  }
  return out;
}

std::string result_line(const Outcome& outcome,
                        const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (outcome.correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(outcome.attempted) +
                    ", \"failed\": " + std::to_string(outcome.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [def, value] : metrics) {
    out += std::string(first ? "" : ", ") + "\"" + def.name + "\": {\"value\": " +
           number(value) + ", \"unit\": \"" + def.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

void write_results(const Options& options, const Outcome& outcome,
                   const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::ofstream out(options.out_dir + "/" + options.workload + ".trace" +
                        (options.trace ? "1" : "0") + ".json",
                    std::ios::binary | std::ios::trunc);
  out << "{\n  \"workload\": \"" << options.workload << "\",\n  \"seed\": "
      << options.seed << ",\n  \"trace\": " << (options.trace ? 1 : 0)
      << ",\n  \"problems\": [";
  for (std::size_t i = 0; i < outcome.problems.size(); ++i) {
    out << (i ? ", " : "") << "\"" << feast::json_escape(outcome.problems[i]) << "\"";
  }
  out << "],\n  \"notes\": [";
  for (std::size_t i = 0; i < outcome.notes.size(); ++i) {
    out << (i ? ", " : "") << "\"" << feast::json_escape(outcome.notes[i]) << "\"";
  }
  out << "],\n  \"layers\": ";
  out << (outcome.layers_json.empty() ? "{}" : outcome.layers_json);
  out << ",\n  \"result\": " << result_line(outcome, metrics) << "\n}\n";
}

/// Removes the run's private work directory however the run ends.
struct WorkDir {
  explicit WorkDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  fs::path path;
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Outcome run_one(const Workload& workload, Options options, const std::string& work_root) {
  options.workload = workload.name;
  const std::string name = options.workload + "-" + std::to_string(::getpid());
  const WorkDir work(fs::absolute(fs::path(work_root) / name));
  options.work_dir = work.path.string();
  return workload.run(options);
}

/// Runs every workload at toy size, traced and untraced, and checks the
/// checks pass and the reported names and units equal BENCHMARK.json's.
int smoke(const Options& base, const std::string& work_root,
          const std::string& bench_json) {
  std::ifstream in(bench_json);
  if (!in) {
    std::cerr << "smoke: cannot read " << bench_json << "\n";
    return 2;
  }
  std::stringstream text;
  text << in.rdbuf();
  const feast::JsonValue root = feast::parse_json(text.str());
  const auto listed = [&](const char* key) {
    std::vector<std::pair<std::string, std::string>> out;
    if (const feast::JsonValue* list = root.find(key)) {
      for (const feast::JsonValue& m : list->array) {
        out.emplace_back(m.find("name")->string, m.find("unit")->string);
      }
    }
    return out;
  };

  int failures = 0;
  for (const Workload& workload : kWorkloads) {
    for (const bool trace : {false, true}) {
      Options options = base;
      options.smoke = true;
      options.trace = trace;
      const auto started = Clock::now();
      const Outcome outcome = run_one(workload, options, work_root);
      std::vector<std::pair<std::string, std::string>> emitted;
      for (const auto& [def, value] : reported(outcome, trace)) {
        emitted.emplace_back(def.name, def.unit);
      }
      const bool names_ok = emitted == listed(trace ? "per_layer" : "end_to_end");
      const bool ok = outcome.correct() && outcome.failed == 0 && outcome.attempted > 0 &&
                      names_ok;
      std::cout << (ok ? "PASS " : "FAIL ") << workload.name << " trace=" << trace
                << " (" << seconds_since(started) << " s, " << outcome.attempted
                << " attempted)\n";
      for (const std::string& p : outcome.problems) std::cout << "  check: " << p << "\n";
      if (!names_ok) {
        std::cout << "  metric names/units differ from " << bench_json << "\n";
      }
      failures += ok ? 0 : 1;
    }
  }
  return failures == 0 ? 0 : 1;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "feast_e2e: " << why
            << "\nusage: feast_e2e --workload NAME [--seed N] [--trace 0|1] [--out DIR]"
               " [--work-dir DIR]\n"
               "       feast_e2e --smoke --benchmark-json FILE [--work-dir DIR]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.feastc = FEAST_FEASTC_PATH;
  std::string work_root = ".bench_build/e2e-work";
  std::string bench_json;
  bool smoke_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 0);
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
      options.trace = v == "1";
    } else if (arg == "--out") {
      options.out_dir = value();
    } else if (arg == "--work-dir") {
      work_root = value();
    } else if (arg == "--smoke") {
      smoke_mode = true;
    } else if (arg == "--benchmark-json") {
      bench_json = value();
    } else {
      usage("unknown option '" + arg + "'");
    }
  }

  try {
    // The in-process load: the caller plus two pool helpers.
    feast::set_parallelism(2);
    if (smoke_mode) {
      if (bench_json.empty()) usage("--smoke needs --benchmark-json");
      return smoke(options, work_root, bench_json);
    }
    const Workload* workload = find_workload(options.workload);
    if (workload == nullptr) usage("unknown workload '" + options.workload + "'");
    if (!options.out_dir.empty()) fs::create_directories(options.out_dir);

    const Outcome outcome = run_one(*workload, options, work_root);
    const auto metrics = reported(outcome, options.trace);
    for (const std::string& note : outcome.notes) std::cout << "note " << note << "\n";
    for (const std::string& p : outcome.problems) {
      std::cout << "check FAILED: " << p << "\n";
    }
    for (const auto& [def, value] : metrics) {
      std::cout << "metric " << def.name << " = " << number(value) << " " << def.unit
                << "\n";
    }
    if (!options.out_dir.empty()) write_results(options, outcome, metrics);
    std::cout << result_line(outcome, metrics) << std::endl;
    return outcome.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "feast_e2e: " << e.what() << "\n";
    return 2;
  }
}
