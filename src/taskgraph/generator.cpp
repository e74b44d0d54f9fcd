#include "taskgraph/generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ranges>
#include <string>

#include "taskgraph/algorithms.hpp"
#include "util/strings.hpp"

namespace feast {

double exec_spread_of(ExecSpreadScenario scenario) noexcept {
  switch (scenario) {
    case ExecSpreadScenario::LDET: return 0.25;
    case ExecSpreadScenario::MDET: return 0.50;
    case ExecSpreadScenario::HDET: return 0.99;
  }
  return 0.50;
}

const char* to_string(ExecSpreadScenario scenario) noexcept {
  switch (scenario) {
    case ExecSpreadScenario::LDET: return "LDET";
    case ExecSpreadScenario::MDET: return "MDET";
    case ExecSpreadScenario::HDET: return "HDET";
  }
  return "?";
}

namespace {

/// Distributes \p total nodes over \p levels levels, at least one per level.
///
/// The extra nodes beyond the mandatory one per level are split according
/// to symmetric Dirichlet(α) weights (stick breaking over exponential
/// draws).  \p alpha controls width variance: large α approaches uniform
/// widths; α = 1 (the default) yields high-variance profiles whose widest
/// levels hold 2–3× the mean — the processor-contention hot spots that
/// drive the paper's small-system results.
std::vector<int> level_sizes(int total, int levels, double alpha, Pcg32& rng) {
  const auto n = static_cast<std::size_t>(levels);
  std::vector<int> sizes(n, 1);
  int extra = total - levels;
  if (extra <= 0) return sizes;

  // Gamma(α, 1) draws; for α >= 1 use the sum-of-exponentials approximation
  // by Marsaglia-Tsang-free simple method: for our purposes (shaping level
  // widths) a Weibull-style transform of a uniform is adequate and exactly
  // reproducible: g = (-ln u)^(1/alpha) has the right qualitative spread.
  std::vector<double> weights(n);
  double sum = 0.0;
  for (double& w : weights) {
    const double u = std::max(rng.uniform_real(0.0, 1.0), 1e-12);
    w = std::pow(-std::log(u), 1.0 / alpha);
    sum += w;
  }
  // Largest-remainder apportionment of the extras over the weights.
  std::vector<double> exact(n);
  std::vector<std::size_t> order(n);
  int assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    exact[i] = static_cast<double>(extra) * weights[i] / sum;
    sizes[i] += static_cast<int>(exact[i]);
    assigned += static_cast<int>(exact[i]);
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double fa = exact[a] - std::floor(exact[a]);
    const double fb = exact[b] - std::floor(exact[b]);
    if (fa != fb) return fa > fb;
    return a < b;
  });
  for (std::size_t k = 0; assigned < extra; ++k, ++assigned) {
    sizes[order[k % n]] += 1;
  }
  return sizes;
}

}  // namespace

TaskGraph generate_random_graph(const RandomGraphConfig& config, Pcg32& rng) {
  FEAST_REQUIRE(config.min_subtasks >= 1);
  FEAST_REQUIRE(config.min_subtasks <= config.max_subtasks);
  FEAST_REQUIRE(config.min_depth >= 1);
  FEAST_REQUIRE(config.min_depth <= config.max_depth);
  FEAST_REQUIRE(config.min_degree >= 1);
  FEAST_REQUIRE(config.min_degree <= config.max_degree);
  FEAST_REQUIRE(config.mean_exec_time > 0.0);
  FEAST_REQUIRE(config.exec_spread >= 0.0 && config.exec_spread < 1.0);
  FEAST_REQUIRE(config.ccr >= 0.0);
  FEAST_REQUIRE(config.message_spread >= 0.0 && config.message_spread <= 1.0);

  FEAST_REQUIRE(config.level_width_alpha > 0.0);
  const int n = rng.uniform_int(config.min_subtasks, config.max_subtasks);
  const int levels = std::min(n, rng.uniform_int(config.min_depth, config.max_depth));
  const std::vector<int> sizes = level_sizes(n, levels, config.level_width_alpha, rng);

  // Subtasks are added level by level, so level l holds the consecutive
  // ids first[l] .. first[l + 1] - 1.
  std::vector<std::uint32_t> first(sizes.size() + 1, 0);
  for (std::size_t lvl = 0; lvl < sizes.size(); ++lvl) {
    first[lvl + 1] = first[lvl] + static_cast<std::uint32_t>(sizes[lvl]);
  }
  auto level = [&](std::size_t lvl) {
    return std::views::iota(first[lvl], first[lvl + 1]) |
           std::views::transform([](std::uint32_t v) { return NodeId(v); });
  };

  // At most max_degree arcs into each node past level 0, and at most one
  // out of each node before the last level in the coverage pass.
  TaskGraph graph;
  const auto n_subtasks = static_cast<std::size_t>(n);
  graph.reserve(n_subtasks,
                (n_subtasks - static_cast<std::size_t>(sizes.front())) *
                        static_cast<std::size_t>(config.max_degree) +
                    (n_subtasks - static_cast<std::size_t>(sizes.back())));
  for (int k = 0; k < n; ++k) {
    const Time lo = config.mean_exec_time * (1.0 - config.exec_spread);
    const Time hi = config.mean_exec_time * (1.0 + config.exec_spread);
    const Time c = rng.uniform_real(lo, hi);
    graph.add_subtask("t" + std::to_string(k), c);
  }

  const double mean_items = config.ccr * config.mean_exec_time;
  auto message_size = [&]() {
    if (mean_items <= 0.0) return 0.0;
    const double lo = mean_items * (1.0 - config.message_spread);
    const double hi = mean_items * (1.0 + config.message_spread);
    return rng.uniform_real(lo, hi);
  };

  // Track out-degrees so fan-out stays within the target cap when possible.
  std::vector<int> out_degree(n_subtasks, 0);
  auto connect = [&](NodeId from, NodeId to) {
    graph.add_precedence(from, to, message_size());
    ++out_degree[from.index()];
  };

  // One candidate buffer serves every node of both passes.
  std::vector<NodeId> candidates;
  candidates.reserve(
      static_cast<std::size_t>(*std::max_element(sizes.begin(), sizes.end())));

  // Wire each node at level l >= 1 to 1..max_degree predecessors on the
  // previous level, preferring predecessors that still have spare fan-out.
  for (std::size_t lvl = 1; lvl < sizes.size(); ++lvl) {
    for (const NodeId node : level(lvl)) {
      const int want = std::min(rng.uniform_int(config.min_degree, config.max_degree),
                                sizes[lvl - 1]);
      candidates.clear();
      for (const NodeId cand : level(lvl - 1)) candidates.push_back(cand);
      rng.shuffle(candidates);
      // Stable insertion sort by out-degree: std::stable_sort's order
      // without its temporary buffer.
      for (std::size_t i = 1; i < candidates.size(); ++i) {
        const NodeId cand = candidates[i];
        const int degree = out_degree[cand.index()];
        std::size_t j = i;
        for (; j > 0 && degree < out_degree[candidates[j - 1].index()]; --j) {
          candidates[j] = candidates[j - 1];
        }
        candidates[j] = cand;
      }
      for (int k = 0; k < want; ++k) connect(candidates[static_cast<std::size_t>(k)], node);
    }
  }

  // Give successor-less nodes a consumer.  In the default (layered) mode,
  // orphans connect into the immediately following level — preferring
  // nodes with spare fan-in but exceeding the cap when a wide level feeds
  // a narrow one.  The resulting high-fan-in join points are the
  // synchronization structures whose contention the AST metrics are
  // designed around.  In strict mode the fan-in cap is inviolable: orphans
  // search later levels for capacity and otherwise remain sinks
  // (additional output subtasks).
  for (std::size_t lvl = 0; lvl + 1 < sizes.size(); ++lvl) {
    for (const NodeId node : level(lvl)) {
      if (out_degree[node.index()] > 0) continue;
      NodeId target;
      const std::size_t last_level =
          config.strict_fanin_cap ? sizes.size() - 1 : lvl + 1;
      for (std::size_t next = lvl + 1; next <= last_level && !target.valid(); ++next) {
        candidates.clear();
        for (const NodeId cand : level(next)) {
          if (static_cast<int>(graph.preds(cand).size()) < config.max_degree) {
            candidates.push_back(cand);
          }
        }
        if (!candidates.empty()) target = rng.pick(candidates);
      }
      if (!target.valid() && !config.strict_fanin_cap) {
        // The draw rng.pick makes over the next level's ids.
        const std::size_t k = rng.uniform_index(first[lvl + 2] - first[lvl + 1]);
        target = NodeId(first[lvl + 1] + static_cast<std::uint32_t>(k));
      }
      if (target.valid()) connect(node, target);
    }
  }

  set_olr_boundaries(graph, config.olr, config.olr_basis);
  return graph;
}

void set_olr_boundaries(TaskGraph& graph, double olr, OlrBasis basis) {
  const Time deadline = olr * (basis == OlrBasis::TotalWorkload
                                   ? graph.total_workload()
                                   : longest_path_length(graph, computation_cost));
  // Every output is reached from an input released at 0: the one window
  // check validate_for_distribution could fail on.
  FEAST_REQUIRE_MSG(time_lt(0.0, deadline),
                    "overall laxity ratio " + format_compact(olr) +
                        " leaves every end-to-end window empty: deadline " +
                        format_compact(deadline) + " <= release 0");
  for (const NodeId id : graph.inputs()) graph.set_boundary_release(id, 0.0);
  for (const NodeId id : graph.outputs()) graph.set_boundary_deadline(id, deadline);
}

void pin_random_fraction(TaskGraph& graph, double fraction, int n_procs, Pcg32& rng) {
  FEAST_REQUIRE(fraction >= 0.0 && fraction <= 1.0);
  FEAST_REQUIRE(n_procs >= 1);
  std::vector<NodeId> nodes = graph.computation_nodes();
  rng.shuffle(nodes);
  const auto n_pinned = static_cast<std::size_t>(fraction * static_cast<double>(nodes.size()) + 0.5);
  for (std::size_t i = 0; i < n_pinned && i < nodes.size(); ++i) {
    graph.pin(nodes[i], ProcId(static_cast<std::uint32_t>(rng.uniform_int(0, n_procs - 1))));
  }
}

}  // namespace feast
