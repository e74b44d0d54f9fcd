#include "core/diffdist.hpp"

#include <array>
#include <bit>
#include <exception>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include "check/gen.hpp"
#include "core/comm_estimator.hpp"
#include "core/metrics.hpp"
#include "core/slicing.hpp"
#include "taskgraph/generator.hpp"
#include "util/rng.hpp"

namespace feast {

namespace {

constexpr std::uint64_t kDiffStream = 0xD15DU;

/// One randomized graph plus the strategy parameters its combos share.
struct Workload {
  TaskGraph graph;
  double thres_surplus = 1.0;
  double threshold_factor = 1.25;
  int adapt_procs = 4;
  double time_per_item = 1.0;  ///< CCAA's per-item rate.
  std::string describe;        ///< Reproducer text for failure reports.
};

Workload make_workload(std::uint64_t root, int trial, bool quick) {
  Pcg32 rng(seed_for(root, {kDiffStream, static_cast<std::uint64_t>(trial)}));
  Workload w;
  std::ostringstream os;
  os << "trial " << trial << ": ";

  RandomGraphConfig config;
  if (rng.uniform_int(0, 1) == 0) {
    // The property generator's small, skewed shapes (3–24 subtasks, OLR
    // down to 0.8 on either basis).
    config = check::gen_graph_config(rng);
    os << "gen shape";
  } else {
    // Paper workloads: MDET execution spread around a varied MET, with
    // OLRs from comfortable down to heavily overloaded — an OLR below 1
    // on the critical-path basis is what yields inverted windows.
    config.set_scenario(ExecSpreadScenario::MDET);
    constexpr std::array<double, 3> kMets = {5.0, 20.0, 80.0};
    constexpr std::array<double, 5> kOlrs = {0.4, 0.7, 1.0, 1.5, 3.0};
    constexpr std::array<double, 3> kCcrs = {0.1, 1.0, 5.0};
    config.mean_exec_time = kMets[rng.uniform_index(kMets.size())];
    config.olr = kOlrs[rng.uniform_index(kOlrs.size())];
    config.ccr = kCcrs[rng.uniform_index(kCcrs.size())];
    if (rng.bernoulli(0.5)) config.olr_basis = OlrBasis::CriticalPath;
    if (quick) {
      config.min_subtasks = 12;
      config.max_subtasks = 24;
      config.min_depth = 3;
      config.max_depth = 6;
    }
    os << "MDET, met=" << config.mean_exec_time << ", ccr=" << config.ccr;
  }
  os << ", olr=" << config.olr
     << (config.olr_basis == OlrBasis::CriticalPath ? " (critical-path)" : "");
  w.graph = generate_random_graph(config, rng);
  w.thres_surplus = static_cast<double>(rng.uniform_int(0, 2));
  w.threshold_factor = rng.uniform_real(1.0, 1.5);
  w.adapt_procs = rng.uniform_int(1, 16);
  w.time_per_item = rng.uniform_real(0.25, 2.0);
  os << ", " << w.graph.subtask_count() << " subtasks, " << w.graph.node_count()
     << " nodes";
  w.describe = os.str();
  return w;
}

enum class MetricKind { Pure, Norm, Thres, Adapt };
constexpr std::array<MetricKind, 4> kMetrics = {MetricKind::Pure, MetricKind::Norm,
                                                MetricKind::Thres, MetricKind::Adapt};

std::unique_ptr<SliceMetric> make_metric(MetricKind kind, const Workload& w) {
  switch (kind) {
    case MetricKind::Pure: return make_pure();
    case MetricKind::Norm: return make_norm();
    case MetricKind::Thres: return make_thres(w.thres_surplus, w.threshold_factor);
    case MetricKind::Adapt: return make_adapt(w.adapt_procs, w.threshold_factor);
  }
  return make_pure();
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

std::optional<std::string> assignment_difference(const TaskGraph& graph,
                                                 const DeadlineAssignment& ref,
                                                 const DeadlineAssignment& fast) {
  std::ostringstream os;
  os.precision(17);
  for (const NodeId id : graph.all_nodes()) {
    const NodeWindow& a = ref.window(id);
    const NodeWindow& b = fast.window(id);
    if (!same_bits(a.release, b.release) || !same_bits(a.rel_deadline, b.rel_deadline) ||
        a.iteration != b.iteration) {
      os << "window of node " << id.index() << ": ref (" << a.release << ", "
         << a.rel_deadline << ", it " << a.iteration << ") vs fast (" << b.release << ", "
         << b.rel_deadline << ", it " << b.iteration << ")";
      return os.str();
    }
  }
  if (ref.paths().size() != fast.paths().size()) {
    os << "path count: ref " << ref.paths().size() << " vs fast " << fast.paths().size();
    return os.str();
  }
  for (std::size_t i = 0; i < ref.paths().size(); ++i) {
    const SlicedPath& a = ref.paths()[i];
    const SlicedPath& b = fast.paths()[i];
    if (a.nodes != b.nodes || !same_bits(a.window_start, b.window_start) ||
        !same_bits(a.window_end, b.window_end) || !same_bits(a.ratio, b.ratio) ||
        a.iteration != b.iteration) {
      os << "sliced path " << i << ": ref [" << a.window_start << ", " << a.window_end
         << "] R=" << a.ratio << " (" << a.nodes.size() << " nodes) vs fast ["
         << b.window_start << ", " << b.window_end << "] R=" << b.ratio << " ("
         << b.nodes.size() << " nodes)";
      return os.str();
    }
  }
  return std::nullopt;
}

DiffDistResult run_diffdist(const DiffDistConfig& config, std::ostream* progress) {
  DiffDistResult result;
  result.combos = static_cast<int>(kMetrics.size()) * 2 * 2;

  for (int trial = 0; trial < config.trials; ++trial) {
    const Workload w = make_workload(config.seed, trial, config.quick);
    for (const MetricKind kind : kMetrics) {
      for (const bool ccaa : {false, true}) {
        for (const bool interior : {false, true}) {
          const auto metric = make_metric(kind, w);
          const auto estimator = ccaa ? make_ccaa(w.time_per_item) : make_ccne();
          const SlicingOptions options{interior};
          const DeadlineAssignment ref =
              distribute_deadlines_ref(w.graph, *metric, *estimator, options);
          for (const SlicedPath& path : ref.paths()) {
            ++result.paths;
            if (path.window_end < path.window_start) {
              ++result.inverted;
            } else if (path.ratio < 0.0) {
              ++result.overloaded;
            }
          }
          // A contract violation in the sparse finder is a divergence like
          // any other: report it with its coordinate and keep going.
          std::optional<std::string> why;
          try {
            const DeadlineAssignment fast =
                distribute_deadlines(w.graph, *metric, *estimator, options);
            why = assignment_difference(w.graph, ref, fast);
          } catch (const std::exception& e) {
            why = std::string("sparse finder threw: ") + e.what();
          }
          result.distributions += 2;
          if (why) {
            ++result.mismatches;
            if (result.first_problem.empty()) {
              std::ostringstream os;
              os << w.describe << ", " << metric->name() << "+" << estimator->name()
                 << (interior ? ", interior bounds" : "") << " (seed " << config.seed
                 << "): " << *why;
              result.first_problem = os.str();
            }
          }
        }
      }
    }

    ++result.trials;
    if (progress != nullptr && (trial + 1) % 100 == 0) {
      *progress << "  " << (trial + 1) << "/" << config.trials << " trials, "
                << result.distributions << " distributions, " << result.mismatches
                << " mismatches\n";
    }
  }

  if (progress != nullptr) {
    *progress << "diffdist: " << result.trials << " trials x " << result.combos
              << " combos x 2 finders (" << result.distributions << " distributions, "
              << result.paths << " sliced paths: " << result.overloaded << " overloaded, "
              << result.inverted << " inverted): " << result.mismatches
              << " assignment mismatches\n";
    if (!result.first_problem.empty()) {
      *progress << "first problem: " << result.first_problem << "\n";
    }
  }
  return result;
}

}  // namespace feast
