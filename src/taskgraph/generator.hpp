/// \file generator.hpp
/// \brief Random layered task-graph generator reproducing §5.2 of the paper.
///
/// Workload defaults (all configurable):
///  - 40–60 computation subtasks per graph;
///  - graph depth 8–12 levels;
///  - per-subtask fan-in/fan-out target range 1–3;
///  - execution times uniform around MET = 20 with a scenario-dependent
///    spread: LDET ±25%, MDET ±50%, HDET ±99%;
///  - one end-to-end deadline per input–output pair with an overall laxity
///    ratio (OLR) of 1.5 against the accumulated task-graph workload;
///  - message sizes sized so the communication-to-computation ratio (CCR)
///    between mean message cost and mean execution time is 1.0.
#pragma once

#include "taskgraph/task_graph.hpp"
#include "util/rng.hpp"

namespace feast {

/// The paper's three execution-time-spread scenarios.
enum class ExecSpreadScenario { LDET, MDET, HDET };

/// Maximum relative deviation from the mean execution time per scenario.
double exec_spread_of(ExecSpreadScenario scenario) noexcept;

/// Scenario name ("LDET"/"MDET"/"HDET").
const char* to_string(ExecSpreadScenario scenario) noexcept;

/// How the overall laxity ratio translates into end-to-end deadlines.
enum class OlrBasis {
  TotalWorkload,  ///< D = OLR × Σ c_i over all subtasks (paper default).
  CriticalPath    ///< D = OLR × longest path in execution time.
};

/// Tunable parameters of the random generator.
struct RandomGraphConfig {
  int min_subtasks = 40;
  int max_subtasks = 60;
  int min_depth = 8;
  int max_depth = 12;
  int min_degree = 1;  ///< Minimum predecessors per non-input subtask.
  int max_degree = 3;  ///< Maximum predecessors per non-input subtask and
                       ///< target cap on successors.
  /// Variance of the per-level width profile: extras beyond one node per
  /// level follow symmetric Dirichlet(α) weights.  α = 1 (default) gives
  /// high-variance profiles with pronounced wide levels (contention hot
  /// spots); large α approaches uniform widths.
  double level_width_alpha = 1.0;

  /// Fan-in discipline of the coverage pass.  Default (false): graphs are
  /// strictly layered and successor-less nodes funnel into the next level
  /// even where that exceeds max_degree predecessors — wide-to-narrow
  /// transitions then form high-fan-in join points.  True: the cap is
  /// inviolable; orphans search later levels for spare fan-in (skip-level
  /// arcs) and otherwise remain additional output subtasks.
  bool strict_fanin_cap = false;

  Time mean_exec_time = 20.0;   ///< MET.
  double exec_spread = 0.50;    ///< ±fraction around MET (MDET default).
  double olr = 1.5;             ///< Overall laxity ratio.
  OlrBasis olr_basis = OlrBasis::TotalWorkload;
  double ccr = 1.0;             ///< Mean message cost / mean execution time.
  double message_spread = 0.5;  ///< ±fraction around the mean message size.

  /// Convenience: applies a scenario's execution-time spread.
  void set_scenario(ExecSpreadScenario scenario) noexcept {
    exec_spread = exec_spread_of(scenario);
  }
};

/// Generates one random task graph.  The result is structurally valid and
/// ready for deadline distribution (inputs released at 0, outputs carrying
/// the OLR-derived end-to-end deadline).  Deterministic in (config, rng
/// state).
TaskGraph generate_random_graph(const RandomGraphConfig& config, Pcg32& rng);

/// Releases every input subtask at 0 and gives every output subtask the
/// deadline D = olr × basis (§5.2); throws ContractViolation unless
/// time_lt(0, D), i.e. when every window would be empty.
void set_olr_boundaries(TaskGraph& graph, double olr, OlrBasis basis);

/// Pins a uniformly random fraction of the computation subtasks to random
/// processors among \p n_procs, modelling the strict subset of a system with
/// relaxed locality constraints.  \p fraction in [0, 1].
void pin_random_fraction(TaskGraph& graph, double fraction, int n_procs, Pcg32& rng);

}  // namespace feast
