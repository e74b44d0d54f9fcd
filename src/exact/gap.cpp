#include "exact/gap.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/distribution_validate.hpp"
#include "exact/exact.hpp"
#include "obs/obs.hpp"
#include "sched/lateness.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/schedule_validate.hpp"
#include "taskgraph/generator.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace feast::exact {
namespace {

/// Per-sample observations, gathered in parallel and reduced afterwards so
/// a violation can be reported (and thrown) deterministically by sample
/// index rather than by thread arrival order.
struct GapSample {
  Time heuristic = 0.0;
  Time optimal = 0.0;
  Time tolerance = 0.0;
  std::uint64_t nodes = 0;
  bool proven = false;
};

}  // namespace

std::string gap_cell_label(const std::string& strategy_label, std::uint64_t node_budget) {
  if (strategy_label.empty()) return "";
  return "gap[" + strategy_label + ";nodes=" + std::to_string(node_budget) + "]";
}

CellStats run_gap_cell(const RandomGraphConfig& workload, const Strategy& strategy,
                       int n_procs, const BatchConfig& batch,
                       const RunContext& context, std::uint64_t node_budget) {
  FEAST_REQUIRE(batch.samples >= 1);
  FEAST_REQUIRE(n_procs >= 1);

  obs::Sink* const sink = context.sink != nullptr ? context.sink : obs::active();
  std::optional<obs::ScopedSink> scoped;
  if (sink != nullptr && sink != obs::active()) scoped.emplace(*sink);
  obs::SpanScope cell_span(sink, obs::Span::CellRun);

  // Gap cells see the same machines (and, below, the same graphs) as the
  // lateness cells of the same batch.
  const Machine machine = cell_machine(n_procs, batch);

  const auto n = static_cast<std::size_t>(batch.samples);
  std::vector<GapSample> samples(n);

  parallel_for(n, [&](std::size_t sample) {
    TaskGraph graph = [&] {
      obs::SpanScope span(sink, obs::Span::Generate);
      Pcg32 rng(seed_for(batch.seed, {0, sample}), /*stream=*/sample);
      return generate_random_graph(workload, rng);
    }();
    if (batch.pinned_fraction > 0.0) {
      Pcg32 pin_rng(seed_for(batch.seed, {1, sample, static_cast<std::uint64_t>(n_procs)}),
                    /*stream=*/sample);
      pin_random_fraction(graph, batch.pinned_fraction, n_procs, pin_rng);
    }

    const auto distributor = strategy.make(n_procs);
    const DeadlineAssignment assignment = [&] {
      obs::SpanScope span(sink, obs::Span::Distribute);
      return distributor->distribute(graph);
    }();
    if (context.validate) {
      obs::SpanScope span(sink, obs::Span::Validate);
      require_valid(check_assignment_basic(graph, assignment));
    }
    const Schedule schedule = [&] {
      obs::SpanScope span(sink, obs::Span::Schedule);
      return list_schedule_with(context.core, graph, assignment, machine,
                                context.scheduler);
    }();
    if (context.validate) {
      obs::SpanScope span(sink, obs::Span::Validate);
      require_valid(
          validate_schedule(graph, assignment, machine, schedule, context.scheduler));
    }

    GapSample& out = samples[sample];
    out.heuristic = computation_lateness(graph, assignment, schedule).max_lateness;

    ExactOptions options;
    options.node_budget = node_budget;
    options.seeds.push_back(seed_from_schedule(graph, schedule));
    const ExactResult exact = solve_exact(graph, machine, options);
    out.optimal = exact.optimal;
    out.nodes = exact.nodes;
    out.proven = exact.proven;

    // Certified tolerance: how far the distribution's assigned deadlines
    // overshoot the effective deadlines the oracle optimises against (the
    // precedence-window checker admits up to 1e-7 of slack per window).
    const std::vector<Time> eds = effective_deadlines(graph);
    Time slack = 0.0;
    for (NodeId id : graph.computation_nodes()) {
      if (!assignment.window(id).assigned()) continue;
      const Time s = assignment.abs_deadline(id) - eds[id.index()];
      if (s > slack) slack = s;
    }
    out.tolerance = slack + kGapCheckEps;
  });

  RunningStats heuristic;
  RunningStats optimal;
  RunningStats gap;
  RunningStats nodes;
  std::size_t unproven = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const GapSample& s = samples[i];
    if (s.optimal > s.heuristic + s.tolerance) {
      throw std::runtime_error(
          "gap: optimal exceeds heuristic for strategy " + strategy.label +
          " at sample " + std::to_string(i) + " (graph seed " +
          std::to_string(seed_for(batch.seed, {0, i})) + "): optimal=" +
          format_full(s.optimal) + " heuristic=" + format_full(s.heuristic) +
          " tolerance=" + format_full(s.tolerance));
    }
    heuristic.add(s.heuristic);
    optimal.add(s.optimal);
    gap.add(s.heuristic - s.optimal);
    nodes.add(static_cast<double>(s.nodes));
    if (!s.proven) ++unproven;
  }

  CellStats stats;
  stats.max_lateness = heuristic.summary();
  stats.end_to_end = optimal.summary();
  stats.makespan = gap.summary();
  stats.min_laxity = nodes.summary();
  stats.infeasible_runs = unproven;
  return stats;
}

ExecutedCell execute_gap_cell(const RandomGraphConfig& workload, const Strategy& strategy,
                              int n_procs, const BatchConfig& batch,
                              const RunContext& context, std::uint64_t node_budget,
                              CellCache* cache) {
  return execute_cached_cell(
      workload, gap_cell_label(strategy.label, node_budget), n_procs, batch, context,
      cache, [&] {
        return run_gap_cell(workload, strategy, n_procs, batch, context, node_budget);
      });
}

}  // namespace feast::exact
