#include "check/prop.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "taskgraph/serialize.hpp"
#include "taskgraph/validate.hpp"

namespace feast::check {

namespace {

/// Editable mirror of a task graph.  TaskGraph is append-only (by design —
/// experiments never mutate graphs), so shrink moves edit this flat model
/// and rebuild a fresh graph per candidate.
struct ShrinkModel {
  struct Sub {
    std::string name;
    Time exec = 0.0;
    ProcId pinned;
    Time release = kUnsetTime;
    Time deadline = kUnsetTime;
  };
  struct Arc {
    std::size_t from = 0;  ///< Indices into subs.
    std::size_t to = 0;
    double items = 0.0;
  };

  std::vector<Sub> subs;
  std::vector<Arc> arcs;
  /// Deadline given to output subtasks that lost theirs to a shrink move
  /// (dropping the original output turns interior nodes into outputs).
  Time fallback_deadline = 0.0;

  static ShrinkModel from_graph(const TaskGraph& graph) {
    ShrinkModel model;
    std::vector<std::size_t> index_of(graph.node_count(), 0);
    for (const NodeId id : graph.computation_nodes()) {
      const Node& node = graph.node(id);
      index_of[id.index()] = model.subs.size();
      Sub sub;
      sub.name = node.name;
      sub.exec = node.exec_time;
      sub.pinned = node.pinned;
      sub.release = node.boundary_release;
      sub.deadline = node.boundary_deadline;
      if (is_set(node.boundary_deadline)) {
        model.fallback_deadline =
            std::max(model.fallback_deadline, node.boundary_deadline);
      }
      model.subs.push_back(std::move(sub));
    }
    if (model.fallback_deadline <= 0.0) model.fallback_deadline = 1.0;
    for (const NodeId comm : graph.communication_nodes()) {
      Arc arc;
      arc.from = index_of[graph.comm_source(comm).index()];
      arc.to = index_of[graph.comm_sink(comm).index()];
      arc.items = graph.node(comm).message_items;
      model.arcs.push_back(arc);
    }
    return model;
  }

  TaskGraph to_graph() const {
    TaskGraph graph;
    std::vector<NodeId> ids;
    std::vector<bool> has_pred(subs.size(), false);
    std::vector<bool> has_succ(subs.size(), false);
    ids.reserve(subs.size());
    for (const Sub& sub : subs) ids.push_back(graph.add_subtask(sub.name, sub.exec));
    for (const Arc& arc : arcs) {
      graph.add_precedence(ids[arc.from], ids[arc.to], arc.items);
      has_succ[arc.from] = true;
      has_pred[arc.to] = true;
    }
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const Sub& sub = subs[i];
      if (sub.pinned.valid()) graph.pin(ids[i], sub.pinned);
      // Keep candidates valid for distribution: dropping nodes/arcs turns
      // interior subtasks into boundary ones, which then need timing.
      if (!has_pred[i]) {
        graph.set_boundary_release(ids[i], is_set(sub.release) ? sub.release : 0.0);
      }
      if (!has_succ[i]) {
        graph.set_boundary_deadline(
            ids[i], is_set(sub.deadline) ? sub.deadline : fallback_deadline);
      }
    }
    return graph;
  }

  /// Drops subtask \p index and every arc touching it.
  ShrinkModel without_sub(std::size_t index) const {
    ShrinkModel out;
    out.fallback_deadline = fallback_deadline;
    out.subs.reserve(subs.size() - 1);
    for (std::size_t i = 0; i < subs.size(); ++i) {
      if (i != index) out.subs.push_back(subs[i]);
    }
    for (const Arc& arc : arcs) {
      if (arc.from == index || arc.to == index) continue;
      Arc moved = arc;
      if (moved.from > index) --moved.from;
      if (moved.to > index) --moved.to;
      out.arcs.push_back(moved);
    }
    return out;
  }

  ShrinkModel without_arc(std::size_t index) const {
    ShrinkModel out = *this;
    out.arcs.erase(out.arcs.begin() + static_cast<std::ptrdiff_t>(index));
    return out;
  }
};

/// Evaluates \p prop, folding escaped exceptions into failure messages.
std::optional<std::string> run_property(const GraphProperty& prop,
                                        const TaskGraph& graph) {
  try {
    return prop(graph);
  } catch (const std::exception& e) {
    return std::string("unhandled exception: ") + e.what();
  }
}

/// True when \p model still fails the property (and is a valid candidate);
/// fills \p message with the failure.
bool still_fails(const ShrinkModel& model, const GraphProperty& prop,
                 std::string& message) {
  if (model.subs.empty()) return false;
  const TaskGraph graph = model.to_graph();
  if (!validate_for_distribution(graph).ok()) return false;
  const auto failure = run_property(prop, graph);
  if (!failure) return false;
  message = *failure;
  return true;
}

}  // namespace

int prop_case_multiplier() noexcept {
  const char* env = std::getenv("FEAST_PROP_MULT");
  if (env == nullptr) return 1;
  const int value = std::atoi(env);
  return value >= 1 ? value : 1;
}

TaskGraph shrink_graph(const TaskGraph& failing, const GraphProperty& prop,
                       int max_passes, std::string& message, int& accepted_steps) {
  ShrinkModel model = ShrinkModel::from_graph(failing);
  accepted_steps = 0;

  for (int pass = 0; pass < max_passes; ++pass) {
    bool accepted_any = false;
    auto try_accept = [&](const ShrinkModel& candidate) {
      std::string candidate_message;
      if (!still_fails(candidate, prop, candidate_message)) return false;
      model = candidate;
      message = std::move(candidate_message);
      ++accepted_steps;
      accepted_any = true;
      return true;
    };

    // Structure first — removing a subtask removes the most at once.  Walk
    // backwards so accepted drops don't skip the following candidate.
    for (std::size_t i = model.subs.size(); i-- > 0;) {
      try_accept(model.without_sub(i));
    }
    for (std::size_t i = model.arcs.size(); i-- > 0;) {
      try_accept(model.without_arc(i));
    }
    // Then values, toward small round numbers.
    for (std::size_t i = 0; i < model.subs.size(); ++i) {
      if (model.subs[i].exec > 1.0) {
        ShrinkModel candidate = model;
        candidate.subs[i].exec = 1.0;
        if (!try_accept(candidate)) {
          candidate = model;
          candidate.subs[i].exec = model.subs[i].exec / 2.0;
          try_accept(candidate);
        }
      }
      if (model.subs[i].pinned.valid()) {
        ShrinkModel candidate = model;
        candidate.subs[i].pinned = ProcId();
        try_accept(candidate);
      }
      if (is_set(model.subs[i].deadline) &&
          model.subs[i].deadline > model.fallback_deadline) {
        ShrinkModel candidate = model;
        candidate.subs[i].deadline = model.fallback_deadline;
        try_accept(candidate);
      }
    }
    for (std::size_t i = 0; i < model.arcs.size(); ++i) {
      if (model.arcs[i].items > 0.0) {
        ShrinkModel candidate = model;
        candidate.arcs[i].items = 0.0;
        try_accept(candidate);
      }
    }

    if (!accepted_any) break;  // Fixed point: nothing shrinks further.
  }
  return model.to_graph();
}

ForallReport forall_graphs(const RandomGraphConfig& config,
                           const ForallOptions& options, const GraphProperty& prop) {
  ForallReport report;
  const int cases = options.cases * prop_case_multiplier();
  for (int k = 0; k < cases; ++k) {
    const std::uint64_t seed = options.seed_base + static_cast<std::uint64_t>(k);
    Pcg32 rng(seed);
    const TaskGraph graph = generate_random_graph(config, rng);
    ++report.cases_run;

    const auto failure = run_property(prop, graph);
    if (!failure) continue;

    Counterexample ce;
    ce.seed = seed;
    ce.original_subtasks = graph.subtask_count();
    ce.message = *failure;
    if (options.shrink) {
      ce.shrunk =
          shrink_graph(graph, prop, options.max_shrink_passes, ce.message,
                       ce.accepted_steps);
    } else {
      ce.shrunk = graph;
    }

    if (const char* dir = std::getenv("FEAST_CHECK_ARTIFACTS")) {
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      const std::filesystem::path path =
          std::filesystem::path(dir) /
          (options.label + "-seed" + std::to_string(seed) + ".feast-graph");
      std::ofstream out(path);
      if (out) {
        out << "# " << options.label << " seed=" << seed << ": " << ce.message
            << '\n';
        write_task_graph(out, ce.shrunk);
        ce.artifact_path = path.string();
      }
    }

    report.counterexample = std::move(ce);
    break;  // First failure wins; later seeds would shadow the report.
  }
  return report;
}

std::string ForallReport::describe() const {
  std::ostringstream out;
  if (!counterexample) {
    out << "ok: " << cases_run << " cases passed";
    return out.str();
  }
  const Counterexample& ce = *counterexample;
  out << "FEAST_PROP_REPLAY seed=" << ce.seed << " (case " << cases_run << ")\n";
  out << "shrunk " << ce.original_subtasks << " -> " << ce.shrunk.subtask_count()
      << " subtasks in " << ce.accepted_steps << " accepted steps\n";
  out << "property failed: " << ce.message << "\n";
  if (!ce.artifact_path.empty()) out << "artifact: " << ce.artifact_path << "\n";
  out << "minimal counterexample:\n" << task_graph_to_string(ce.shrunk);
  return out.str();
}

}  // namespace feast::check
