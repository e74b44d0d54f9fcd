/// \file diffdist.hpp
/// \brief Differential testing of the two critical-path finders.
///
/// Replays randomized graphs — the property generator's small shapes
/// (check/gen.hpp) and paper-sized MDET workloads across MET, OLR and CCR,
/// including overloaded (Σv > W) and inverted (W < 0) windows — through
/// distribute_deadlines (sparse CriticalPathFinder) and
/// distribute_deadlines_ref (dense CriticalPathFinderRef) under every
/// {metric × estimator × respect_interior_bounds} combination, and asserts
/// byte-identical DeadlineAssignments: every window's bits and iteration,
/// every SlicedPath's nodes, window and ratio bits.  Any divergence fails
/// loudly with a reproducible (seed, trial, combo) coordinate.
///
/// Shared by the `feastc diffdist` subcommand (CI runs ≥500 trials) and
/// tests/test_dist_differential.cpp (a quicker slice for ctest).  The
/// harness draws graphs from check/gen, so it is compiled into feast_check.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "core/annotation.hpp"

namespace feast {

/// Parameters of a differential run.
struct DiffDistConfig {
  std::uint64_t seed = 1;  ///< Root seed; trials derive via seed_for().
  int trials = 500;        ///< Randomized graphs (each × 16 combos).
  bool quick = false;      ///< Shrink the paper-sized graphs for smoke runs.
};

/// Outcome of a differential run.
struct DiffDistResult {
  int trials = 0;               ///< Graphs replayed.
  int combos = 0;               ///< Combinations per graph (16).
  long long distributions = 0;  ///< Total runs (trials × combos × 2 finders).
  long long paths = 0;          ///< Sliced paths compared.
  long long overloaded = 0;     ///< Of those, paths with Σv > W ≥ 0 (R < 0).
  long long inverted = 0;       ///< Of those, paths with W < 0.
  int mismatches = 0;           ///< Assignment divergences between the finders.
  std::string first_problem;    ///< Reproducer line for the first mismatch.

  bool ok() const noexcept { return mismatches == 0; }
};

/// The first difference between two assignments of \p graph — a window's
/// release, relative deadline (compared as bit images) or iteration, or a
/// sliced path's nodes, window, ratio or iteration — as a readable line;
/// nullopt when they are byte-identical.
std::optional<std::string> assignment_difference(const TaskGraph& graph,
                                                 const DeadlineAssignment& ref,
                                                 const DeadlineAssignment& fast);

/// Runs the differential harness.  When \p progress is non-null, emits a
/// short line every hundred trials and a final summary.
DiffDistResult run_diffdist(const DiffDistConfig& config,
                            std::ostream* progress = nullptr);

}  // namespace feast
