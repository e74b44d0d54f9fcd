#include "campaign/campaign.hpp"

#include <cctype>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "campaign/cache.hpp"
#include "check/fault.hpp"
#include "exact/gap.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace feast {

namespace {

// ------------------------------------------------------------ JSON writing
// String escaping is feast::json_escape (util/json.hpp), shared with the
// serve daemon and `feastc submit`.

void write_summary_json(std::ostream& out, const char* name, const StatSummary& s) {
  out << '"' << name << "\": [" << s.count << ", " << json_number(s.mean) << ", "
      << json_number(s.stddev) << ", " << json_number(s.min) << ", "
      << json_number(s.max) << ", " << json_number(s.ci95_half_width) << ']';
}

// ------------------------------------------------------------ JSON reading
//
// The recursive-descent parser itself lives in util/json.hpp (it started
// here and was promoted once the obs exporter gained a second JSON reader);
// what remains are the manifest-specific decoding helpers.

/// Inverse of json_number: plain numbers plus the quoted non-finite forms.
double json_to_double(const JsonValue& v, double fallback) {
  if (v.type == JsonValue::Type::Number) return v.number;
  if (v.type == JsonValue::Type::String) {
    if (v.string == "nan") return std::nan("");
    if (v.string == "inf") return std::numeric_limits<double>::infinity();
    if (v.string == "-inf") return -std::numeric_limits<double>::infinity();
  }
  return fallback;
}

double number_at(const JsonValue& object, const std::string& key, double fallback = 0.0) {
  const JsonValue* v = object.find(key);
  return v != nullptr ? json_to_double(*v, fallback) : fallback;
}

StatSummary summary_at(const JsonValue& object, const std::string& key) {
  StatSummary s;
  const JsonValue* v = object.find(key);
  if (v == nullptr || v->type != JsonValue::Type::Array || v->array.size() != 6) return s;
  s.count = static_cast<std::size_t>(v->array[0].number);
  s.mean = json_to_double(v->array[1], 0.0);
  s.stddev = json_to_double(v->array[2], 0.0);
  s.min = json_to_double(v->array[3], 0.0);
  s.max = json_to_double(v->array[4], 0.0);
  s.ci95_half_width = json_to_double(v->array[5], 0.0);
  return s;
}

CellState cell_state_from(const std::string& text) {
  if (text == "computed") return CellState::Computed;
  if (text == "cached") return CellState::Cached;
  if (text == "failed") return CellState::Failed;
  if (text == "quarantined") return CellState::Quarantined;
  return CellState::Pending;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

}  // namespace

void write_stats_json(std::ostream& out, const CellStats& stats) {
  write_summary_json(out, "max_lateness", stats.max_lateness);
  out << ", ";
  write_summary_json(out, "end_to_end", stats.end_to_end);
  out << ",\n     ";
  write_summary_json(out, "makespan", stats.makespan);
  out << ", ";
  write_summary_json(out, "min_laxity", stats.min_laxity);
  out << ",\n     \"infeasible_runs\": " << stats.infeasible_runs;
}

// --------------------------------------------------------------- strategies

Strategy parse_strategy_spec(const std::string& spec) {
  std::vector<std::string> parts = split(trim(spec), ':');
  for (std::string& p : parts) p = trim(p);
  if (parts.empty() || parts[0].empty()) {
    throw std::invalid_argument("campaign: empty strategy spec");
  }
  const std::string& kind = parts[0];

  auto arity = [&](std::size_t max_parts) {
    if (parts.size() > max_parts) {
      throw std::invalid_argument("campaign: too many ':' fields in strategy '" + spec +
                                  "'");
    }
  };
  auto estimator = [&](std::size_t index) {
    if (parts.size() <= index || parts[index].empty()) return EstimatorKind::CCNE;
    if (parts[index] == "ccne") return EstimatorKind::CCNE;
    if (parts[index] == "ccaa") return EstimatorKind::CCAA;
    throw std::invalid_argument("campaign: unknown estimator '" + parts[index] +
                                "' in strategy '" + spec + "'");
  };
  auto number = [&](std::size_t index, double fallback) {
    if (parts.size() <= index || parts[index].empty()) return fallback;
    return parse_real("campaign strategy '" + spec + "'", parts[index]);
  };

  if (kind == "pure") {
    arity(2);
    return strategy_pure(estimator(1));
  }
  if (kind == "norm") {
    arity(2);
    return strategy_norm(estimator(1));
  }
  if (kind == "thres") {
    arity(3);
    return strategy_thres(number(1, 1.0), number(2, 1.25));
  }
  if (kind == "adapt") {
    arity(2);
    return strategy_adapt(number(1, 1.25));
  }
  if (kind == "ud") {
    arity(1);
    return strategy_ultimate_deadline();
  }
  if (kind == "ed") {
    arity(1);
    return strategy_effective_deadline();
  }
  if (kind == "prop") {
    arity(1);
    return strategy_proportional();
  }
  throw std::invalid_argument("campaign: unknown strategy '" + spec + "'");
}

// --------------------------------------------------------------------- spec

std::string CampaignSpec::canonical_text() const {
  std::ostringstream out;
  out << "name = " << name << '\n';
  out << "samples = " << batch.samples << '\n';
  out << "seed = " << batch.seed << '\n';
  out << "subtasks = " << workload.min_subtasks << ':' << workload.max_subtasks << '\n';
  out << "depth = " << workload.min_depth << ':' << workload.max_depth << '\n';
  out << "degree = " << workload.min_degree << ':' << workload.max_degree << '\n';
  out << "alpha = " << format_full(workload.level_width_alpha) << '\n';
  out << "strict_fanin = " << (workload.strict_fanin_cap ? 1 : 0) << '\n';
  out << "met = " << format_full(workload.mean_exec_time) << '\n';
  out << "spread = " << format_full(workload.exec_spread) << '\n';
  out << "olr = " << format_full(workload.olr) << '\n';
  out << "olr_basis = "
      << (workload.olr_basis == OlrBasis::CriticalPath ? "critical-path"
                                                       : "total-workload")
      << '\n';
  out << "ccr = " << format_full(workload.ccr) << '\n';
  out << "message_spread = " << format_full(workload.message_spread) << '\n';
  out << "pinned_fraction = " << format_full(batch.pinned_fraction) << '\n';
  out << "time_per_item = " << format_full(batch.time_per_item) << '\n';
  out << "contention = "
      << (batch.contention == CommContention::SharedBus          ? "bus"
          : batch.contention == CommContention::PointToPointLinks ? "links"
                                                                  : "free")
      << '\n';
  out << "release = "
      << (context.scheduler.release_policy == ReleasePolicy::Eager ? "eager"
                                                                   : "time-driven")
      << '\n';
  out << "selection = "
      << (context.scheduler.selection == SelectionPolicy::Fifo           ? "fifo"
          : context.scheduler.selection == SelectionPolicy::StaticLaxity ? "static-laxity"
                                                                         : "edf")
      << '\n';
  out << "processor = "
      << (context.scheduler.processor_policy == ProcessorPolicy::QueueAtEnd
              ? "queue-at-end"
              : "gap-search")
      << '\n';
  out << "core = " << to_string(context.core) << '\n';
  out << "validate = " << (context.validate ? 1 : 0) << '\n';
  // Gap-mode keys are emitted only when active so that every pre-existing
  // Lateness spec keeps its canonical text (and hence its manifest hash).
  if (mode == CampaignMode::Gap) {
    out << "mode = gap\n";
    out << "exact_nodes = " << exact_nodes << '\n';
  }
  std::vector<std::string> specs = strategies;
  out << "strategies = " << join(specs, ", ") << '\n';
  std::vector<std::string> size_strings;
  size_strings.reserve(sizes.size());
  for (const int n : sizes) size_strings.push_back(std::to_string(n));
  out << "sizes = " << join(size_strings, ",") << '\n';
  return out.str();
}

namespace {

/// Applies one `key = value` spec line; throws std::invalid_argument.
void apply_spec_key(CampaignSpec& spec, const std::string& key,
                    const std::string& value) {
  RandomGraphConfig& w = spec.workload;
  SchedulerOptions& sched = spec.context.scheduler;
  if (key == "name") {
    spec.name = value;
  } else if (key == "samples") {
    spec.batch.samples = parse_number<int>(key, value);
  } else if (key == "seed") {
    spec.batch.seed = parse_u64(key, value);
  } else if (key == "subtasks") {
    std::tie(w.min_subtasks, w.max_subtasks) = parse_range<int>(key, value);
  } else if (key == "depth") {
    std::tie(w.min_depth, w.max_depth) = parse_range<int>(key, value);
  } else if (key == "degree") {
    std::tie(w.min_degree, w.max_degree) = parse_range<int>(key, value);
  } else if (key == "alpha") {
    w.level_width_alpha = parse_real(key, value);
  } else if (key == "strict_fanin") {
    w.strict_fanin_cap = parse_integer(key, value) != 0;
  } else if (key == "met") {
    w.mean_exec_time = parse_real(key, value);
  } else if (key == "spread") {
    w.exec_spread = parse_real(key, value);
  } else if (key == "scenario") {
    w.set_scenario(parse_choice<ExecSpreadScenario>(
        key, value,
        {{"LDET", ExecSpreadScenario::LDET},
         {"MDET", ExecSpreadScenario::MDET},
         {"HDET", ExecSpreadScenario::HDET}}));
  } else if (key == "olr") {
    w.olr = parse_real(key, value);
  } else if (key == "olr_basis") {
    w.olr_basis = parse_choice<OlrBasis>(key, value,
                                         {{"total-workload", OlrBasis::TotalWorkload},
                                          {"critical-path", OlrBasis::CriticalPath}});
  } else if (key == "ccr") {
    w.ccr = parse_real(key, value);
  } else if (key == "message_spread") {
    w.message_spread = parse_real(key, value);
  } else if (key == "pinned_fraction") {
    spec.batch.pinned_fraction = parse_real(key, value);
  } else if (key == "time_per_item") {
    spec.batch.time_per_item = parse_real(key, value);
  } else if (key == "contention") {
    spec.batch.contention =
        parse_choice<CommContention>(key, value,
                                     {{"free", CommContention::ContentionFree},
                                      {"bus", CommContention::SharedBus},
                                      {"links", CommContention::PointToPointLinks}});
  } else if (key == "release") {
    sched.release_policy = parse_choice<ReleasePolicy>(
        key, value,
        {{"time-driven", ReleasePolicy::TimeDriven}, {"eager", ReleasePolicy::Eager}});
  } else if (key == "selection") {
    sched.selection = parse_choice<SelectionPolicy>(
        key, value,
        {{"edf", SelectionPolicy::Edf},
         {"fifo", SelectionPolicy::Fifo},
         {"static-laxity", SelectionPolicy::StaticLaxity}});
  } else if (key == "processor") {
    sched.processor_policy = parse_choice<ProcessorPolicy>(
        key, value,
        {{"gap-search", ProcessorPolicy::GapSearch},
         {"queue-at-end", ProcessorPolicy::QueueAtEnd}});
  } else if (key == "core") {
    spec.context.core = parse_choice<SchedulerCore>(
        key, value,
        {{"fast", SchedulerCore::Fast}, {"reference", SchedulerCore::Reference}});
  } else if (key == "backend") {
    // The scheduler once had selectable kernel backends.  `auto` named the
    // default, so old specs that spell it out still parse (and hash as if
    // the key were absent); a forced backend no longer exists.
    if (value != "auto") {
      throw std::invalid_argument("backend '" + value +
                                  "' is not supported: the scheduler kernel "
                                  "backends were removed (only 'auto' is "
                                  "accepted, as a no-op)");
    }
  } else if (key == "validate") {
    spec.context.validate = parse_integer(key, value) != 0;
  } else if (key == "mode") {
    spec.mode = parse_choice<CampaignMode>(
        key, value, {{"lateness", CampaignMode::Lateness}, {"gap", CampaignMode::Gap}});
  } else if (key == "exact_nodes") {
    spec.exact_nodes = parse_u64(key, value);
  } else if (key == "strategies") {
    for (const std::string& piece : split(value, ',')) {
      if (!trim(piece).empty()) spec.strategies.push_back(trim(piece));
    }
  } else if (key == "sizes") {
    for (const std::string& piece : split(value, ',')) {
      if (trim(piece).empty()) continue;
      const long long n = parse_integer(key, trim(piece));
      Bound::positive().check(key, static_cast<double>(n), true);
      spec.sizes.push_back(static_cast<int>(n));
    }
  } else {
    throw std::invalid_argument("unknown key '" + key + "'");
  }
}

}  // namespace

CampaignSpec CampaignSpec::parse(std::istream& in) {
  CampaignSpec spec;
  spec.strategies.clear();
  spec.sizes.clear();

  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    try {
      if (eq == std::string::npos) {
        throw std::invalid_argument("expected 'key = value', got '" + line + "'");
      }
      apply_spec_key(spec, trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("campaign spec line " + std::to_string(line_no) + ": " +
                                  e.what());
    }
  }

  if (spec.strategies.empty()) {
    throw std::invalid_argument("campaign spec: no strategies");
  }
  if (spec.sizes.empty()) throw std::invalid_argument("campaign spec: no sizes");
  if (spec.batch.samples < 1) throw std::invalid_argument("campaign spec: samples < 1");
  // Fail fast on malformed strategy specs, before any cell runs.
  for (const std::string& s : spec.strategies) (void)parse_strategy_spec(s);
  return spec;
}

CampaignSpec CampaignSpec::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("campaign: cannot open spec '" + path + "'");
  return parse(in);
}

// ----------------------------------------------------------------- manifest

const char* to_string(CellState state) noexcept {
  switch (state) {
    case CellState::Pending: return "pending";
    case CellState::Computed: return "computed";
    case CellState::Cached: return "cached";
    case CellState::Failed: return "failed";
    case CellState::Quarantined: return "quarantined";
  }
  return "?";
}

void write_manifest(std::ostream& out, const CampaignSpec& spec,
                    const CampaignResult& result) {
  // Schema v2 (docs/CAMPAIGN.md): v1 plus per-cell attempt/error-taxonomy
  // records and a quarantined total.  read_manifest accepts both versions.
  out << "{\n";
  out << "  \"feast_manifest_version\": 2,\n";
  out << "  \"name\": \"" << json_escape(result.name) << "\",\n";
  out << "  \"spec_hash\": \"" << result.spec_hash_hex << "\",\n";
  out << "  \"samples\": " << result.samples << ",\n";
  out << "  \"spec_text\": \"" << json_escape(spec.canonical_text()) << "\",\n";
  std::size_t pending = 0;
  for (const CellOutcome& cell : result.cells) {
    if (cell.state == CellState::Pending) ++pending;
  }
  out << "  \"totals\": {\"cells\": " << result.cells.size()
      << ", \"computed\": " << result.computed << ", \"cached\": " << result.cached
      << ", \"failed\": " << result.failed << ", \"quarantined\": "
      << result.quarantined << ", \"pending\": " << pending
      << ", \"wall_ms\": " << json_number(result.wall_ms)
      << ", \"cells_per_sec\": " << json_number(result.cells_per_sec)
      << ", \"runs_per_sec\": " << json_number(result.runs_per_sec) << "},\n";
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellOutcome& cell = result.cells[i];
    out << "    {\"strategy\": \"" << json_escape(cell.strategy_label)
        << "\", \"spec\": \"" << json_escape(cell.strategy_spec)
        << "\", \"procs\": " << cell.n_procs << ", \"key\": \"" << cell.key_hex
        << "\", \"state\": \"" << to_string(cell.state)
        << "\", \"wall_ms\": " << json_number(cell.wall_ms)
        << ", \"attempts\": " << cell.attempts << ", \"error_kind\": \""
        << json_escape(cell.error_kind) << "\",\n     ";
    write_stats_json(out, cell.stats);
    out << ", \"error\": \"" << json_escape(cell.error) << "\"}";
    out << (i + 1 < result.cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n";
  out << "}\n";
}

Manifest read_manifest(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const JsonValue root = parse_json(text);
  if (root.type != JsonValue::Type::Object) {
    throw std::runtime_error("manifest: top level is not an object");
  }
  Manifest manifest;
  manifest.version = static_cast<int>(number_at(root, "feast_manifest_version"));
  if (manifest.version != 1 && manifest.version != 2) {
    throw std::runtime_error("manifest: unsupported version " +
                             std::to_string(manifest.version));
  }
  manifest.name = root.string_or("name");
  manifest.spec_hash_hex = root.string_or("spec_hash");
  manifest.spec_text = root.string_or("spec_text");
  manifest.samples = static_cast<int>(number_at(root, "samples"));
  if (const JsonValue* totals = root.find("totals")) {
    manifest.wall_ms = number_at(*totals, "wall_ms");
    manifest.computed = static_cast<std::size_t>(number_at(*totals, "computed"));
    manifest.cached = static_cast<std::size_t>(number_at(*totals, "cached"));
    manifest.failed = static_cast<std::size_t>(number_at(*totals, "failed"));
    manifest.quarantined = static_cast<std::size_t>(number_at(*totals, "quarantined"));
  }
  const JsonValue* cells = root.find("cells");
  if (cells == nullptr || cells->type != JsonValue::Type::Array) {
    throw std::runtime_error("manifest: missing cells array");
  }
  manifest.cells.reserve(cells->array.size());
  for (const JsonValue& entry : cells->array) {
    if (entry.type != JsonValue::Type::Object) {
      throw std::runtime_error("manifest: cell entry is not an object");
    }
    CellOutcome cell;
    cell.strategy_label = entry.string_or("strategy");
    cell.strategy_spec = entry.string_or("spec");
    cell.n_procs = static_cast<int>(number_at(entry, "procs"));
    cell.key_hex = entry.string_or("key");
    cell.state = cell_state_from(entry.string_or("state"));
    cell.wall_ms = number_at(entry, "wall_ms");
    cell.stats.max_lateness = summary_at(entry, "max_lateness");
    cell.stats.end_to_end = summary_at(entry, "end_to_end");
    cell.stats.makespan = summary_at(entry, "makespan");
    cell.stats.min_laxity = summary_at(entry, "min_laxity");
    cell.stats.infeasible_runs =
        static_cast<std::size_t>(number_at(entry, "infeasible_runs"));
    cell.error = entry.string_or("error");
    cell.attempts = static_cast<int>(number_at(entry, "attempts"));  // v2; 0 in v1.
    cell.error_kind = entry.string_or("error_kind");
    manifest.cells.push_back(std::move(cell));
  }
  return manifest;
}

std::string manifest_fingerprint(const Manifest& manifest) {
  // Everything a result *means* and nothing about how long it took: cell
  // identity + stats at full precision, in manifest (= plan) order.  Two
  // campaigns of the same spec agree here iff they produced the same
  // numbers, regardless of interruptions, resumes or cache state.
  auto summary = [](std::ostringstream& out, const char* name, const StatSummary& s) {
    out << ' ' << name << '=' << s.count << ',' << format_full(s.mean) << ','
        << format_full(s.stddev) << ',' << format_full(s.min) << ','
        << format_full(s.max) << ',' << format_full(s.ci95_half_width);
  };
  std::ostringstream out;
  out << "spec " << manifest.spec_hash_hex << " samples " << manifest.samples << '\n';
  for (const CellOutcome& cell : manifest.cells) {
    out << "cell strategy=" << cell.strategy_label << " procs=" << cell.n_procs;
    summary(out, "max_lateness", cell.stats.max_lateness);
    summary(out, "end_to_end", cell.stats.end_to_end);
    summary(out, "makespan", cell.stats.makespan);
    summary(out, "min_laxity", cell.stats.min_laxity);
    out << " infeasible=" << cell.stats.infeasible_runs << '\n';
  }
  return out.str();
}

Manifest read_manifest_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("campaign: cannot open manifest '" + path + "'");
  return read_manifest(in);
}

// ------------------------------------------------------------------- runner

void checkpoint_manifest_file(const std::string& path, const CampaignSpec& spec,
                              const CampaignResult& result) {
  if (path.empty()) return;

  std::ostringstream rendered;
  write_manifest(rendered, spec, result);
  std::string text = rendered.str();

  bool die_before_rename = false;
  if (const auto fault = check::fire(check::FaultSite::ManifestWrite)) {
    switch (*fault) {
      case check::FaultAction::FailWrite:
        // Checkpoint silently skipped: whatever manifest is on disk goes
        // stale by one (or more) cells.
        return;
      case check::FaultAction::PartialWrite: {
        // A torn manifest published in place — what a writer without the
        // tmp+rename discipline would leave after a crash.
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (out) out << text.substr(0, text.size() / 2);
        return;
      }
      case check::FaultAction::Die:
        die_before_rename = true;  // Crash between tmp write and rename.
        break;
      default:
        check::execute(*fault, "manifest-write");
    }
  }

  if (die_before_rename) {
    // The fully written, fsynced temporary exists but was never published:
    // exactly the crash window the atomic protocol must tolerate.
    std::string error;
    if (!write_file_synced(unique_tmp_path(path), text, &error)) {
      throw std::runtime_error("campaign: " + error);
    }
    std::_Exit(check::kFaultExitCode);
  }

  // Durable publication: fsynced unique tmp + rename + directory fsync, so
  // a crash (or power cut) right after this call can never surface an
  // empty or torn manifest under the final name, and concurrent feastc
  // processes sharing a manifest path never clobber each other's tmp.
  std::string error;
  if (!atomic_write_file(path, text, &error)) {
    throw std::runtime_error("campaign: cannot write manifest: " + error);
  }
}

void refresh_campaign_totals(CampaignResult& result, double wall_ms) {
  result.computed = result.cached = result.failed = result.quarantined = 0;
  for (const CellOutcome& cell : result.cells) {
    switch (cell.state) {
      case CellState::Computed: ++result.computed; break;
      case CellState::Cached: ++result.cached; break;
      case CellState::Failed: ++result.failed; break;
      case CellState::Quarantined: ++result.quarantined; break;
      case CellState::Pending: break;
    }
  }
  result.wall_ms = wall_ms;
  const double wall_s = wall_ms / 1000.0;
  if (wall_s > 0.0) {
    result.cells_per_sec = static_cast<double>(result.cells.size()) / wall_s;
    result.runs_per_sec =
        static_cast<double>(result.computed) * result.samples / wall_s;
  }
}

std::string campaign_strategy_label(const CampaignSpec& spec,
                                    const std::string& strategy_label) {
  if (spec.mode == CampaignMode::Gap) {
    return exact::gap_cell_label(strategy_label, spec.exact_nodes);
  }
  return strategy_label;
}

ExecutedCell execute_campaign_cell(const CampaignSpec& spec, const Strategy& strategy,
                                   int n_procs, CellCache* cache) {
  if (spec.mode == CampaignMode::Gap) {
    return exact::execute_gap_cell(spec.workload, strategy, n_procs, spec.batch,
                                   spec.context, spec.exact_nodes, cache);
  }
  return execute_cell(spec.workload, strategy, n_procs, spec.batch, spec.context, cache);
}

std::vector<PlannedCell> plan_cells(const CampaignSpec& spec,
                                    const std::vector<Strategy>& strategies) {
  std::vector<PlannedCell> plan;
  plan.reserve(spec.cell_count());
  for (std::size_t si = 0; si < strategies.size(); ++si) {
    for (const int n_procs : spec.sizes) {
      PlannedCell p;
      p.index = plan.size();
      p.strategy_index = si;
      p.n_procs = n_procs;
      p.canonical = describe_cell(spec.workload,
                                  campaign_strategy_label(spec, strategies[si].label),
                                  n_procs, spec.batch, spec.context);
      plan.push_back(std::move(p));
    }
  }
  return plan;
}

void write_gap_csv(std::ostream& out, const CampaignSpec& spec,
                   const CampaignResult& result) {
  CsvWriter csv(out);
  csv.write_row({"strategy", "procs", "samples", "mean_heuristic", "mean_optimal",
                 "mean_gap", "max_gap", "stddev_gap", "mean_nodes", "unproven"});
  for (const CellOutcome& cell : result.cells) {
    if (cell.state != CellState::Computed && cell.state != CellState::Cached) continue;
    // Field mapping per exact/gap.hpp: max_lateness <- heuristic,
    // end_to_end <- optimal, makespan <- gap, min_laxity <- oracle nodes.
    csv.write_row({cell.strategy_spec, std::to_string(cell.n_procs),
                   std::to_string(spec.batch.samples),
                   format_compact(cell.stats.max_lateness.mean, 6),
                   format_compact(cell.stats.end_to_end.mean, 6),
                   format_compact(cell.stats.makespan.mean, 6),
                   format_compact(cell.stats.makespan.max, 6),
                   format_compact(cell.stats.makespan.stddev, 6),
                   format_compact(cell.stats.min_laxity.mean, 6),
                   std::to_string(cell.stats.infeasible_runs)});
  }
}

std::vector<CellOutcome> plan_outcomes(const CampaignSpec& spec,
                                       const std::vector<Strategy>& strategies,
                                       const std::vector<PlannedCell>& plan) {
  std::vector<CellOutcome> cells;
  cells.reserve(plan.size());
  for (const PlannedCell& p : plan) {
    CellOutcome cell;
    cell.strategy_spec = spec.strategies[p.strategy_index];
    cell.strategy_label = campaign_strategy_label(spec, strategies[p.strategy_index].label);
    cell.n_procs = p.n_procs;
    if (!p.canonical.empty()) cell.key_hex = hash_hex(fnv1a64(p.canonical));
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::size_t restore_finished_cells(const std::string& manifest_path,
                                   const std::string& spec_hash_hex,
                                   std::vector<CellOutcome>& cells) {
  if (manifest_path.empty()) return 0;
  std::size_t restored = 0;
  try {
    const Manifest manifest = read_manifest_file(manifest_path);
    if (manifest.spec_hash_hex != spec_hash_hex) return 0;
    std::map<std::pair<std::string, int>, const CellOutcome*> done;
    for (const CellOutcome& cell : manifest.cells) {
      if (cell.state == CellState::Computed || cell.state == CellState::Cached) {
        done[{cell.strategy_label, cell.n_procs}] = &cell;
      }
    }
    for (CellOutcome& cell : cells) {
      const auto it = done.find({cell.strategy_label, cell.n_procs});
      if (it == done.end()) continue;
      cell.state = CellState::Cached;  // Restored, not recomputed.
      cell.stats = it->second->stats;
      cell.wall_ms = 0.0;
      ++restored;
    }
  } catch (const std::exception&) {
    // Missing/torn/foreign manifest: start fresh.
  }
  return restored;
}

CampaignResult plan_campaign(const CampaignSpec& spec, const CampaignOptions& options,
                             std::vector<Strategy>& strategies,
                             std::vector<PlannedCell>& plan) {
  if (spec.strategies.empty()) throw std::invalid_argument("campaign: no strategies");
  if (spec.sizes.empty()) throw std::invalid_argument("campaign: no sizes");
  if (spec.batch.samples < 1) throw std::invalid_argument("campaign: samples < 1");
  for (const int n : spec.sizes) {
    if (n < 1) throw std::invalid_argument("campaign: sizes must be positive");
  }
  strategies.clear();
  for (const std::string& s : spec.strategies) {
    strategies.push_back(parse_strategy_spec(s));
  }

  CampaignResult result;
  result.name = spec.name;
  result.spec_hash_hex = hash_hex(fnv1a64(spec.canonical_text()));
  result.samples = spec.batch.samples;
  plan = plan_cells(spec, strategies);
  result.cells = plan_outcomes(spec, strategies, plan);

  // Resume: restore the cells an earlier (interrupted) run of this exact
  // spec already finished.  A missing, torn or foreign manifest simply means
  // nothing is restored — the cache still absorbs most of the rework.
  if (options.resume) {
    restore_finished_cells(options.manifest_path, result.spec_hash_hex, result.cells);
  }
  return result;
}

CampaignResult run_campaign(const CampaignSpec& spec, const CampaignOptions& options) {
  std::vector<Strategy> strategies;
  std::vector<PlannedCell> plan;
  CampaignResult result = plan_campaign(spec, options, strategies, plan);

  // Arm an attached fault plan process-wide for the campaign's duration: the
  // injection sites (pool workers, cache I/O, the checkpoint writer above)
  // consult check::active(), not the context, since they run below the
  // layers that know about RunContext.
  check::ScopedFaultPlan scoped_faults(spec.context.faults);

  if (options.threads > 0) set_parallelism(options.threads);

  const auto start = std::chrono::steady_clock::now();
  refresh_campaign_totals(result, 0.0);
  checkpoint_manifest_file(options.manifest_path, spec, result);

  // Cells are harvested in COMPLETION order, not submission order: finished
  // outcomes arrive on a queue and the manifest is checkpointed after each
  // one, so a killed run leaves every finished cell on disk no matter how
  // the pool interleaved the work.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::deque<std::pair<std::size_t, CellOutcome>> done_queue;

  ThreadPool& pool = ThreadPool::global();
  std::size_t submitted = 0;
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    if (result.cells[i].state != CellState::Pending) continue;
    ++submitted;
    pool.submit([&spec, &strategies, &plan, &options, &result, &done_mutex, &done_cv,
                 &done_queue, i]() {
      // The main thread does not touch cells[i] until this task reports done.
      CellOutcome cell = result.cells[i];
      const PlannedCell& p = plan[i];
      const auto cell_start = std::chrono::steady_clock::now();
      try {
        const ExecutedCell executed = execute_campaign_cell(
            spec, strategies[p.strategy_index], p.n_procs, options.cache);
        cell.stats = executed.stats;
        cell.state = executed.from_cache ? CellState::Cached : CellState::Computed;
      } catch (const std::exception& e) {
        cell.state = CellState::Failed;
        cell.error = e.what();
      } catch (...) {
        cell.state = CellState::Failed;
        cell.error = "unknown error";
      }
      cell.wall_ms = ms_since(cell_start);
      {
        std::lock_guard<std::mutex> lock(done_mutex);
        done_queue.emplace_back(i, std::move(cell));
        // Notify while still holding done_mutex: after the lock is dropped
        // the main thread may harvest the final item and return from
        // run_campaign, destroying the stack-local done_cv mid-notify.
        done_cv.notify_one();
      }
    });
  }

  const std::size_t total = result.cells.size();
  for (std::size_t harvested = 0; harvested < submitted; ++harvested) {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return !done_queue.empty(); });
    const std::size_t i = done_queue.front().first;
    result.cells[i] = std::move(done_queue.front().second);
    done_queue.pop_front();
    lock.unlock();

    refresh_campaign_totals(result, ms_since(start));
    checkpoint_manifest_file(options.manifest_path, spec, result);
    if (options.progress != nullptr) {
      const CellOutcome& cell = result.cells[i];
      *options.progress << "[" << (harvested + 1 + total - submitted) << "/" << total
                        << "] " << cell.strategy_label << " procs=" << cell.n_procs
                        << " " << to_string(cell.state) << " ("
                        << format_compact(cell.wall_ms, 1) << " ms)";
      if (!cell.error.empty()) *options.progress << " — " << cell.error;
      *options.progress << std::endl;  // Flushed: progress must survive a kill.
    }
  }

  refresh_campaign_totals(result, ms_since(start));
  checkpoint_manifest_file(options.manifest_path, spec, result);
  return result;
}

void print_manifest_status(std::ostream& out, const Manifest& manifest) {
  std::size_t pending = 0;
  for (const CellOutcome& cell : manifest.cells) {
    if (cell.state == CellState::Pending) ++pending;
  }
  out << "campaign:  " << manifest.name << " (spec " << manifest.spec_hash_hex << ")\n";
  out << "cells:     " << manifest.cells.size() << " total — " << manifest.computed
      << " computed, " << manifest.cached << " cached, " << manifest.failed
      << " failed, " << manifest.quarantined << " quarantined, " << pending
      << " pending\n";
  if (manifest.quarantined > 0) {
    out << "DEGRADED:  " << manifest.quarantined
        << " poison cell(s) excluded by the supervisor; `campaign resume` "
           "retries them\n";
  }
  out << "samples:   " << manifest.samples << " per cell\n";
  const double wall_s = manifest.wall_ms / 1000.0;
  out << "wall:      " << format_compact(manifest.wall_ms, 1) << " ms";
  if (wall_s > 0.0) {
    out << " (" << format_compact(static_cast<double>(manifest.cells.size()) / wall_s, 2)
        << " cells/s, "
        << format_compact(static_cast<double>(manifest.computed) * manifest.samples /
                              wall_s,
                          2)
        << " computed runs/s)";
  }
  out << "\n\n";
  TextTable table;
  table.set_header({"strategy", "procs", "state", "attempts", "error", "wall ms",
                    "mean max lateness", "infeasible"});
  bool any_error = false;
  for (const CellOutcome& cell : manifest.cells) {
    table.add_row({cell.strategy_label, std::to_string(cell.n_procs),
                   to_string(cell.state),
                   cell.attempts > 0 ? std::to_string(cell.attempts) : "-",
                   cell.error_kind.empty() ? "-" : cell.error_kind,
                   format_compact(cell.wall_ms, 1),
                   format_compact(cell.stats.max_lateness.mean, 4),
                   std::to_string(cell.stats.infeasible_runs)});
    if (!cell.error.empty()) any_error = true;
  }
  table.render(out);
  if (any_error) {
    out << "\nerrors\n";
    for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
      const CellOutcome& cell = manifest.cells[i];
      if (cell.error.empty()) continue;
      out << "  cell " << i << " (" << cell.strategy_label << " procs="
          << cell.n_procs << "): " << cell.error << "\n";
    }
  }
}

void write_manifest_status_json(std::ostream& out, const Manifest& manifest) {
  std::size_t pending = 0;
  for (const CellOutcome& cell : manifest.cells) {
    if (cell.state == CellState::Pending) ++pending;
  }
  out << "{\n";
  out << "  \"name\": \"" << json_escape(manifest.name) << "\",\n";
  out << "  \"spec_hash\": \"" << manifest.spec_hash_hex << "\",\n";
  out << "  \"samples\": " << manifest.samples << ",\n";
  // The fingerprint hash is the differential identity scripts compare: two
  // manifests agree here iff manifest_fingerprint() is byte-identical.
  out << "  \"fingerprint\": \"" << hash_hex(fnv1a64(manifest_fingerprint(manifest)))
      << "\",\n";
  out << "  \"totals\": {\"cells\": " << manifest.cells.size()
      << ", \"computed\": " << manifest.computed << ", \"cached\": " << manifest.cached
      << ", \"failed\": " << manifest.failed
      << ", \"quarantined\": " << manifest.quarantined << ", \"pending\": " << pending
      << ", \"wall_ms\": " << json_number(manifest.wall_ms) << "},\n";
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
    const CellOutcome& cell = manifest.cells[i];
    out << "    {\"index\": " << i << ", \"strategy\": \""
        << json_escape(cell.strategy_label) << "\", \"procs\": " << cell.n_procs
        << ", \"state\": \"" << to_string(cell.state)
        << "\", \"attempts\": " << cell.attempts << ", \"error_kind\": \""
        << json_escape(cell.error_kind) << "\", \"error\": \""
        << json_escape(cell.error)
        << "\", \"wall_ms\": " << json_number(cell.wall_ms) << ",\n     ";
    write_stats_json(out, cell.stats);
    out << "}";
    out << (i + 1 < manifest.cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n";
  out << "}\n";
}

}  // namespace feast
