/// \file test_prop_finder.cpp
/// \brief A finder kept across find() calls answers every state as a fresh
///        reference finder would, whatever the sequence of states.
///
/// The distributor only ever assigns nodes and tightens bounds, but
/// find(state) is exact for any caller.  Each case draws a check::gen
/// graph, gives every node a release lower bound and a deadline upper
/// bound from small pools (lbs 0.9e-9 apart, so sources share and
/// straddle lb groups), and then runs a random sequence of edits: assign
/// nodes, assign the last path found, unassign nodes, and hand edits of
/// lb (on residual sources) and ub (on residual sinks) with no flip at
/// all.  After every edit one long-lived CriticalPathFinder and one
/// long-lived CriticalPathFinderRef must return what a freshly built
/// CriticalPathFinderRef returns, bit for bit, and form as many lb groups.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>

#include "check/prop.hpp"
#include "core/comm_estimator.hpp"
#include "core/metrics.hpp"
#include "core/path_finder.hpp"
#include "taskgraph/validate.hpp"

namespace feast::check {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Why \p got differs from \p want, bit for bit, or nullopt.
std::optional<std::string> difference(const std::optional<CriticalPathResult>& got,
                                      const std::optional<CriticalPathResult>& want) {
  if (got.has_value() != want.has_value()) {
    return std::string(got ? "found a path where the reference found none"
                           : "found no path where the reference found one");
  }
  if (!got) return std::nullopt;
  std::ostringstream os;
  os.precision(17);
  if (got->nodes != want->nodes) {
    os << "path of " << got->nodes.size() << " nodes, reference " << want->nodes.size();
  } else if (!same_bits(got->ratio, want->ratio)) {
    os << "ratio " << got->ratio << ", reference " << want->ratio;
  } else if (!same_bits(got->window_start, want->window_start) ||
             !same_bits(got->window_end, want->window_end)) {
    os << "window [" << got->window_start << ", " << got->window_end << "], reference ["
       << want->window_start << ", " << want->window_end << "]";
  } else if (!same_bits(got->eval.window, want->eval.window) ||
             !same_bits(got->eval.sum_virtual, want->eval.sum_virtual) ||
             got->eval.effective_hops != want->eval.effective_hops) {
    os << "evaluation (" << got->eval.window << ", " << got->eval.sum_virtual << ", "
       << got->eval.effective_hops << "), reference (" << want->eval.window << ", "
       << want->eval.sum_virtual << ", " << want->eval.effective_hops << ")";
  } else {
    return std::nullopt;
  }
  return os.str();
}

/// A seed that depends only on the graph, so a shrunk graph replays an
/// edit sequence of its own.
std::uint64_t graph_seed(const TaskGraph& graph) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  mix(graph.node_count());
  for (const NodeId id : graph.all_nodes()) {
    mix(std::bit_cast<std::uint64_t>(graph.node(id).exec_time));
    mix(graph.succs(id).size());
  }
  return h;
}

const std::vector<Time> kLbPool = {0.0, 0.9e-9, 1.8e-9, 10.0, 10.0 + 0.5e-9, 25.0, 40.0};
const std::vector<Time> kUbPool = {60.0, 80.0, 80.0 + 0.5e-9, 120.0, 200.0};

/// Runs one random edit sequence on \p graph under \p metric and
/// \p estimator.
std::optional<std::string> check_sequence(const TaskGraph& graph, SliceMetric& metric,
                                          const CommCostEstimator& estimator,
                                          Pcg32& rng) {
  metric.prepare(graph);
  const std::vector<NodeId> order = validate_structure(graph).order;
  CriticalPathFinder fast(graph, order, metric, estimator);
  CriticalPathFinderRef kept(graph, order, metric, estimator);

  ResidualState state(graph.node_count());
  for (const NodeId id : graph.all_nodes()) {
    state.set_lb(id, rng.pick(kLbPool));
    state.set_ub(id, rng.pick(kUbPool));
  }
  auto residual = [&](NodeId id) { return !state.assigned(id); };
  auto pick_where = [&](auto&& keep) -> std::optional<NodeId> {
    std::vector<NodeId> ids;
    for (const NodeId id : graph.all_nodes()) {
      if (keep(id)) ids.push_back(id);
    }
    if (ids.empty()) return std::nullopt;
    return rng.pick(ids);
  };
  auto is_source = [&](NodeId id) {
    if (!residual(id)) return false;
    for (const NodeId p : graph.preds(id)) {
      if (residual(p)) return false;
    }
    return true;
  };
  auto is_sink = [&](NodeId id) {
    if (!residual(id)) return false;
    for (const NodeId s : graph.succs(id)) {
      if (residual(s)) return false;
    }
    return true;
  };

  std::optional<CriticalPathResult> last;
  for (int step = 0; step < 40; ++step) {
    const char* edit = "find again";
    switch (rng.uniform_int(0, 6)) {
      case 0:
        edit = "assign nodes";
        for (int k = rng.uniform_int(1, 3); k > 0; --k) {
          if (const auto id = pick_where(residual)) state.assign(*id);
        }
        break;
      case 1:
        edit = "assign the last path";
        if (last) {
          for (const NodeId id : last->nodes) state.assign(id);
        }
        break;
      case 2:
        edit = "unassign nodes";
        for (int k = rng.uniform_int(1, 2); k > 0; --k) {
          if (const auto id = pick_where([&](NodeId v) { return !residual(v); })) {
            state.unassign(*id);
          }
        }
        break;
      case 3:
        edit = "edit a source's lb";
        if (const auto id = pick_where(is_source)) state.set_lb(*id, rng.pick(kLbPool));
        break;
      case 4:
        edit = "edit a sink's ub";
        if (const auto id = pick_where(is_sink)) state.set_ub(*id, rng.pick(kUbPool));
        break;
      case 5:
        edit = "edit any node's bounds";
        if (const auto id = pick_where([](NodeId) { return true; })) {
          state.set_lb(*id, rng.pick(kLbPool));
          state.set_ub(*id, rng.pick(kUbPool));
        }
        break;
      default:
        break;
    }

    CriticalPathFinderRef fresh(graph, order, metric, estimator);
    const std::uint64_t fast_groups = fast.stats().lb_groups;
    const auto want = fresh.find(state);
    const auto got = fast.find(state);
    const auto got_kept = kept.find(state);
    std::ostringstream at;
    at << metric.name() << "+" << estimator.name() << ", step " << step << " (" << edit
       << "): ";
    if (const auto why = difference(got, want)) {
      return at.str() + "CriticalPathFinder: " + *why;
    }
    if (const auto why = difference(got_kept, want)) {
      return at.str() + "long-lived CriticalPathFinderRef: " + *why;
    }
    if (fast.stats().lb_groups - fast_groups != fresh.stats().lb_groups) {
      return at.str() + "CriticalPathFinder formed a different number of lb groups";
    }
    last = got;
  }
  return std::nullopt;
}

void expect_sequences_match(bool ccaa, std::uint64_t seed_base) {
  ForallOptions options;
  options.seed_base = seed_base;
  options.cases = 150;
  options.label = std::string("finder-reuse-") + (ccaa ? "ccaa" : "ccne");
  Pcg32 config_rng(seed_base);
  const auto estimator = ccaa ? make_ccaa() : make_ccne();
  const ForallReport report = forall_graphs(
      gen_graph_config(config_rng), options,
      [&](const TaskGraph& graph) -> std::optional<std::string> {
        Pcg32 rng(graph_seed(graph));
        const std::unique_ptr<SliceMetric> metrics[] = {make_pure(), make_norm(),
                                                        make_thres(1.0, 1.25),
                                                        make_adapt(3, 1.25)};
        for (const auto& metric : metrics) {
          if (auto why = check_sequence(graph, *metric, *estimator, rng)) return why;
        }
        return std::nullopt;
      });
  EXPECT_TRUE(report.ok()) << report.describe();
}

TEST(PropFinder, EditSequencesMatchAFreshReferenceUnderCcne) {
  expect_sequences_match(false, 8100);
}

TEST(PropFinder, EditSequencesMatchAFreshReferenceUnderCcaa) {
  expect_sequences_match(true, 8200);
}

}  // namespace
}  // namespace feast::check
