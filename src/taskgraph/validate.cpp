#include "taskgraph/validate.hpp"

#include <cstdint>
#include <utility>

#include "taskgraph/algorithms.hpp"
#include "util/strings.hpp"

namespace feast {

std::string ValidationReport::to_string() const { return join(problems, "\n"); }

namespace {
std::string node_label(const TaskGraph& graph, NodeId id) {
  return "node #" + std::to_string(id.value) + " ('" + graph.node(id).name + "')";
}
}  // namespace

ValidationReport validate_structure(const TaskGraph& graph) {
  ValidationReport report;
  if (auto order = topological_order(graph)) {
    report.order = std::move(*order);
  } else {
    report.problems.push_back("graph contains a cycle");
  }
  return report;
}

ValidationReport validate_for_distribution(const TaskGraph& graph) {
  ValidationReport report = validate_structure(graph);
  if (!report.ok()) return report;
  auto problem = [&](const std::string& msg) { report.problems.push_back(msg); };

  if (graph.subtask_count() == 0) {
    problem("graph has no computation subtasks");
    return report;
  }

  const std::vector<NodeId> inputs = graph.inputs();
  const std::vector<NodeId> outputs = graph.outputs();
  for (const NodeId id : inputs) {
    if (!is_set(graph.node(id).boundary_release)) {
      problem(node_label(graph, id) + ": input subtask lacks a boundary release time");
    }
  }
  for (const NodeId id : outputs) {
    if (!is_set(graph.node(id).boundary_deadline)) {
      problem(node_label(graph, id) + ": output subtask lacks an end-to-end deadline");
    }
  }
  if (!report.ok()) return report;

  // One forward sweep in topological order: bit i of a node's row is set
  // when inputs[i] reaches the node.
  const std::size_t words = (inputs.size() + 63) / 64;
  std::vector<std::uint64_t> reach(graph.node_count() * words, 0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    reach[inputs[i].index() * words + i / 64] |= std::uint64_t{1} << (i % 64);
  }
  for (const NodeId id : report.order) {
    std::uint64_t* row = &reach[id.index() * words];
    for (const NodeId pred : graph.preds(id)) {
      const std::uint64_t* from = &reach[pred.index() * words];
      for (std::size_t w = 0; w < words; ++w) row[w] |= from[w];
    }
  }

  // Every (input, output) pair connected by a path must leave a positive
  // window: deadline(output) > release(input).
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Node& in = graph.node(inputs[i]);
    for (const NodeId out_id : outputs) {
      if ((reach[out_id.index() * words + i / 64] >> (i % 64) & 1U) == 0) continue;
      const Node& out = graph.node(out_id);
      if (!time_lt(in.boundary_release, out.boundary_deadline)) {
        problem("end-to-end window of pair (" + in.name + ", " + out.name +
                ") is empty: release " + format_compact(in.boundary_release) +
                " >= deadline " + format_compact(out.boundary_deadline));
      }
    }
  }
  return report;
}

void require_valid(const ValidationReport& report) {
  FEAST_REQUIRE_MSG(report.ok(), report.to_string());
}

}  // namespace feast
