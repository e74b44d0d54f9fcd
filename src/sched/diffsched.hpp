/// \file diffsched.hpp
/// \brief Differential testing of the two list-scheduler cores.
///
/// Replays randomized workloads — varied graph shapes, locality mixes,
/// machine sizes, metrics and contention models — through both
/// list_schedule (optimized) and list_schedule_ref (reference) under every
/// {ReleasePolicy × SelectionPolicy × ProcessorPolicy} combination, and
/// asserts byte-identical Schedule traces plus validator acceptance of
/// both cores.  This is the oracle that lets the optimized core evolve
/// freely: any divergence from the retained §5.3 implementation fails
/// loudly with a reproducible (seed, trial, combo) coordinate.
///
/// Shared by the `feastc diffsched` subcommand (CI runs ≥500 trials) and
/// tests/test_sched_differential.cpp (a quicker slice for ctest).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace feast {

/// Parameters of a differential run.
struct DiffSchedConfig {
  std::uint64_t seed = 1;  ///< Root seed; trials derive via seed_for().
  int trials = 500;        ///< Randomized workloads (each × 12 policy combos).
  bool quick = false;      ///< Shrink graphs/machines for smoke runs.
};

/// Outcome of a differential run.
struct DiffSchedResult {
  int trials = 0;           ///< Workloads replayed.
  int combos = 0;           ///< Policy combinations per workload (12).
  long long schedules = 0;  ///< Total invocations (trials × combos × 2 cores).
  int mismatches = 0;       ///< Trace divergences between the cores.
  int invalid = 0;          ///< Validator rejections (either core).
  std::string first_problem;  ///< Reproducer line for the first failure.

  bool ok() const noexcept { return mismatches == 0 && invalid == 0; }
};

/// Runs the differential harness.  When \p progress is non-null, emits a
/// short line every few hundred trials and a final summary.
DiffSchedResult run_diffsched(const DiffSchedConfig& config,
                              std::ostream* progress = nullptr);

}  // namespace feast
