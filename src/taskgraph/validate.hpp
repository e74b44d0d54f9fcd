/// \file validate.hpp
/// \brief Acyclicity and distribution-readiness validation of task graphs.
///
/// Each graph rule has one owner.  The TaskGraph mutators check every
/// per-node rule (costs, communication-node arity and endpoints, node
/// kinds along arcs, pins) as the graph is built; no graph is built any
/// other way.  validate_structure checks acyclicity, the one rule an arc
/// cannot check locally.  validate_for_distribution adds the boundaries
/// and windows; each pipeline runs it once, at the consumer (slice(), the
/// baselines), which reuses the topological order it returns.
#pragma once

#include <string>
#include <vector>

#include "taskgraph/task_graph.hpp"

namespace feast {

/// Result of a validation pass: empty `problems` means valid.
struct ValidationReport {
  std::vector<std::string> problems;

  /// Every node in topological order, ties broken by node id (the order of
  /// topological_order()); empty when the graph has a cycle.
  std::vector<NodeId> order;

  bool ok() const noexcept { return problems.empty(); }

  /// All problems joined with newlines (empty string when valid).
  std::string to_string() const;
};

/// Checks that the graph is acyclic and fills the report's order.
ValidationReport validate_structure(const TaskGraph& graph);

/// Checks that the graph is ready for deadline distribution: it is
/// acyclic and has a computation subtask, every input subtask has a
/// boundary release, every output subtask has a boundary deadline, and
/// every boundary deadline exceeds every boundary release reaching it
/// (problems by (input, output) in id order).
ValidationReport validate_for_distribution(const TaskGraph& graph);

/// Throws ContractViolation with the report text when \p report is not ok.
void require_valid(const ValidationReport& report);

}  // namespace feast
