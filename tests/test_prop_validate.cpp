/// \file test_prop_validate.cpp
/// \brief Differential property suite for validate_for_distribution.
///
/// An in-test oracle restates the distribution-readiness rules the direct
/// way: per-node structure checks, a cycle check, the boundary checks, and
/// one reachable() search per (input, output) pair.  Every case compares
/// the validator's report text with the oracle's, byte for byte, so both
/// the problems found and their order are pinned.
///
/// Cases are generator and check::gen graphs, rebuilt through the TaskGraph
/// mutators (sometimes as the disjoint union of two graphs, so that some
/// pairs are unconnected) with randomized boundary times and at most one
/// planted fault: missing releases, missing deadlines or both, emptied
/// windows on one to three random connected pairs, or a back arc that
/// closes a cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "check/gen.hpp"
#include "check/prop.hpp"
#include "taskgraph/algorithms.hpp"
#include "taskgraph/generator.hpp"
#include "taskgraph/validate.hpp"
#include "util/strings.hpp"

namespace feast {
namespace {

std::string label(const TaskGraph& graph, NodeId id) {
  return "node #" + std::to_string(id.value) + " ('" + graph.node(id).name + "')";
}

/// The readiness rules, checked node by node and pair by pair.
ValidationReport oracle(const TaskGraph& graph) {
  ValidationReport report;
  auto problem = [&](const std::string& msg) { report.problems.push_back(msg); };

  for (const NodeId id : graph.all_nodes()) {
    const Node& n = graph.node(id);
    const auto preds = graph.preds(id);
    const auto succs = graph.succs(id);
    const std::string at = label(graph, id) + ": ";
    if (n.exec_time < 0.0) problem(at + "negative execution time");
    if (n.message_items < 0.0) problem(at + "negative message size");
    if (n.kind == NodeKind::Communication) {
      if (preds.size() != 1 || succs.size() != 1) {
        problem(at +
                "communication node must have exactly one predecessor and one successor");
        continue;
      }
      if (!graph.is_computation(preds.front()) ||
          !graph.is_computation(succs.front())) {
        problem(at + "communication node endpoints must be computation subtasks");
      }
      if (n.exec_time != 0.0) {
        problem(at + "communication node carries an execution time");
      }
    } else {
      for (const NodeId adj : preds) {
        if (!graph.is_communication(adj)) {
          problem(at + "computation node has a non-communication predecessor");
        }
      }
      for (const NodeId adj : succs) {
        if (!graph.is_communication(adj)) {
          problem(at + "computation node has a non-communication successor");
        }
      }
    }
    for (const NodeId succ : succs) {
      const auto& back = graph.preds(succ);
      if (std::find(back.begin(), back.end(), id) == back.end()) {
        problem(at + "successor link without matching predecessor link");
      }
    }
  }
  if (!is_acyclic(graph)) problem("graph contains a cycle");
  if (!report.ok()) return report;

  if (graph.subtask_count() == 0) {
    problem("graph has no computation subtasks");
    return report;
  }
  for (const NodeId id : graph.inputs()) {
    if (!is_set(graph.node(id).boundary_release)) {
      problem(label(graph, id) + ": input subtask lacks a boundary release time");
    }
  }
  for (const NodeId id : graph.outputs()) {
    if (!is_set(graph.node(id).boundary_deadline)) {
      problem(label(graph, id) + ": output subtask lacks an end-to-end deadline");
    }
  }
  if (!report.ok()) return report;

  for (const NodeId in : graph.inputs()) {
    for (const NodeId out : graph.outputs()) {
      if (!reachable(graph, in, out)) continue;
      const Time release = graph.node(in).boundary_release;
      const Time deadline = graph.node(out).boundary_deadline;
      if (!time_lt(release, deadline)) {
        problem("end-to-end window of pair (" + graph.node(in).name + ", " +
                graph.node(out).name + ") is empty: release " + format_compact(release) +
                " >= deadline " + format_compact(deadline));
      }
    }
  }
  return report;
}

enum class Fault {
  None,
  MissingRelease,
  MissingDeadline,
  MissingBoth,
  EmptyWindows,
  BackArc
};

/// Copies \p parts into one graph through the mutators; node names get a
/// per-part prefix so that the report text tells the parts apart.
TaskGraph disjoint_union(const std::vector<const TaskGraph*>& parts) {
  TaskGraph out;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const TaskGraph& part = *parts[k];
    const std::string prefix(1, static_cast<char>('a' + k));
    const std::uint32_t base = static_cast<std::uint32_t>(out.node_count());
    // Ids are preserved up to the offset: each communication node is
    // re-added in id order, after both of its endpoints.
    for (const NodeId id : part.all_nodes()) {
      const Node& n = part.node(id);
      if (n.kind == NodeKind::Computation) {
        const NodeId copy = out.add_subtask(prefix + "." + n.name, n.exec_time);
        if (n.pinned.valid()) out.pin(copy, n.pinned);
      } else {
        out.add_precedence(NodeId(base + part.comm_source(id).value),
                           NodeId(base + part.comm_sink(id).value), n.message_items);
      }
    }
  }
  return out;
}

/// Computation pairs (from, to), from != to, with a path from -> to.
std::vector<std::pair<NodeId, NodeId>> connected_pairs(const TaskGraph& graph,
                                                       const std::vector<NodeId>& from,
                                                       const std::vector<NodeId>& to) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const NodeId a : from) {
    for (const NodeId b : to) {
      if (a != b && reachable(graph, a, b)) pairs.emplace_back(a, b);
    }
  }
  return pairs;
}

/// Sets random boundary times on \p graph and plants \p fault.  Releases
/// fall in [0, 10] and deadlines at least 12 units later than any release
/// can be, so only a planted fault empties a window.
void plant(TaskGraph& graph, Fault fault, Pcg32& rng) {
  const std::vector<NodeId> inputs = graph.inputs();
  const std::vector<NodeId> outputs = graph.outputs();
  // A dropped boundary goes missing on one chosen node and on each other
  // node of its kind with probability 0.3.
  const bool drop_releases =
      fault == Fault::MissingRelease || fault == Fault::MissingBoth;
  const bool drop_deadlines =
      fault == Fault::MissingDeadline || fault == Fault::MissingBoth;
  const NodeId no_release = drop_releases ? rng.pick(inputs) : NodeId();
  const NodeId no_deadline = drop_deadlines ? rng.pick(outputs) : NodeId();
  for (const NodeId id : inputs) {
    if (id == no_release || (drop_releases && rng.bernoulli(0.3))) continue;
    graph.set_boundary_release(id, rng.uniform_real(0.0, 10.0));
  }
  for (const NodeId id : outputs) {
    if (id == no_deadline || (drop_deadlines && rng.bernoulli(0.3))) continue;
    graph.set_boundary_deadline(id, rng.uniform_real(22.0, 400.0));
  }

  if (fault == Fault::EmptyWindows) {
    // One to three connected pairs; a subtask that is both input and
    // output is its own connected pair.
    auto pairs = connected_pairs(graph, inputs, outputs);
    for (const NodeId id : inputs) {
      if (graph.succs(id).empty()) pairs.emplace_back(id, id);
    }
    for (int k = rng.uniform_int(1, 3); k > 0; --k) {
      const auto [in, out] = pairs[rng.uniform_index(pairs.size())];
      const Time release = graph.node(in).boundary_release;
      // Equal, earlier, and later by less than kTimeEps: all are empty.
      const Time offsets[] = {0.0, -1.0, -rng.uniform_real(0.0, 30.0), 0.5 * kTimeEps};
      graph.set_boundary_deadline(out, release + offsets[rng.uniform_index(4)]);
    }
  }

  if (fault == Fault::BackArc) {
    const std::vector<NodeId> subtasks = graph.computation_nodes();
    const auto pairs = connected_pairs(graph, subtasks, subtasks);
    if (!pairs.empty()) {
      const auto [ancestor, descendant] = pairs[rng.uniform_index(pairs.size())];
      graph.add_precedence(descendant, ancestor, 1.0);
    }
  }
}

/// Runs one case: union of one or two graphs, one fault, compare reports.
void expect_same_report(std::vector<const TaskGraph*> parts, Fault fault, Pcg32& rng,
                        const std::string& context) {
  TaskGraph graph = disjoint_union(parts);
  plant(graph, fault, rng);
  const ValidationReport expected = oracle(graph);
  const ValidationReport actual = validate_for_distribution(graph);
  EXPECT_EQ(actual.ok(), expected.ok()) << context;
  EXPECT_EQ(actual.to_string(), expected.to_string()) << context;
  if (fault == Fault::None) {
    EXPECT_TRUE(actual.ok()) << context << "\n" << actual.to_string();
  }
}

constexpr Fault kFaults[] = {Fault::None,         Fault::MissingRelease,
                             Fault::MissingDeadline, Fault::MissingBoth,
                             Fault::EmptyWindows, Fault::BackArc};

TEST(PropValidate, SmallGraphsMatchThePairwiseOracle) {
  const int cases = 400 * check::prop_case_multiplier();
  for (int k = 0; k < cases; ++k) {
    const std::uint64_t seed = 7000 + static_cast<std::uint64_t>(k);
    Pcg32 rng(seed);
    const TaskGraph first = check::gen_graph(rng);
    const TaskGraph second = check::gen_graph(rng);
    std::vector<const TaskGraph*> parts{&first};
    if (rng.bernoulli(0.5)) parts.push_back(&second);
    const Fault fault = kFaults[static_cast<std::size_t>(k) % std::size(kFaults)];
    expect_same_report(parts, fault, rng, "seed " + std::to_string(seed));
    if (HasFailure()) return;
  }
}

TEST(PropValidate, PaperSizedGraphsMatchThePairwiseOracle) {
  const int cases = 60 * check::prop_case_multiplier();
  RandomGraphConfig config;  // the paper's defaults: 40-60 subtasks
  for (int k = 0; k < cases; ++k) {
    const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(k);
    Pcg32 rng(seed);
    config.strict_fanin_cap = rng.bernoulli(0.5);
    const TaskGraph first = generate_random_graph(config, rng);
    const TaskGraph second = generate_random_graph(config, rng);
    std::vector<const TaskGraph*> parts{&first};
    if (rng.bernoulli(0.5)) parts.push_back(&second);
    const Fault fault = kFaults[static_cast<std::size_t>(k) % std::size(kFaults)];
    expect_same_report(parts, fault, rng, "seed " + std::to_string(seed));
    if (HasFailure()) return;
  }
}

TEST(PropValidate, EmptyAndSingletonGraphsMatchThePairwiseOracle) {
  const TaskGraph empty;
  EXPECT_EQ(validate_for_distribution(empty).to_string(), oracle(empty).to_string());
  EXPECT_FALSE(validate_for_distribution(empty).ok());

  Pcg32 rng(11);
  TaskGraph single;
  single.add_subtask("solo", 3.0);
  for (const Fault fault : kFaults) {
    expect_same_report({&single}, fault, rng, "singleton");
  }
}

}  // namespace
}  // namespace feast
