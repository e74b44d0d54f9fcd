/// \file gap.hpp
/// \brief Optimality-gap cells: heuristic-vs-oracle evaluation batches.
///
/// A gap cell mirrors an ordinary experiment cell (same graphs, same
/// seeding, same machine derivation, same cache protocol) but evaluates
/// each sample twice: once with the heuristic strategy under test, and
/// once with the exact oracle of exact.hpp warm-started from the
/// heuristic's own schedule.  The per-sample invariant `optimal <=
/// heuristic` is enforced up to a certified tolerance derived from the
/// instance (see below); a violation aborts the cell with a replayable
/// error, which the campaign layer surfaces as a Failed cell.
///
/// ## Tolerance
///
/// The heuristics' computation lateness is measured against *assigned*
/// absolute deadlines; the oracle optimises against *effective* deadlines
/// (the tightest boundary deadline reachable from each node).  A valid
/// distribution assigns abs deadlines <= effective deadlines, but the
/// precedence-window checker admits up to 1e-7 of float slack per window —
/// so the certified per-instance tolerance is
/// max_v(assigned(v) - effective(v))+ plus a fixed epsilon.  Gap values
/// are reported raw and may be microscopically negative within that
/// tolerance.
///
/// ## CellStats field mapping
///
/// Gap cells reuse the campaign cache/manifest record unchanged:
///   max_lateness   <- heuristic max lateness per sample
///   end_to_end     <- oracle optimal (lower bound when budget-limited)
///   makespan       <- gap = heuristic - optimal
///   min_laxity     <- search-tree nodes expanded
///   infeasible_runs <- samples NOT proven optimal within the node budget
#pragma once

#include <cstdint>
#include <string>

#include "experiment/runner.hpp"
#include "experiment/strategy.hpp"
#include "experiment/sweep.hpp"

namespace feast::exact {

/// Fixed epsilon added to the certified per-instance tolerance.
inline constexpr double kGapCheckEps = 1e-6;

/// Decorated strategy label for cache keys and manifests, e.g.
/// "gap[NORM+CCNE;nodes=250000]".  Distinct from every lateness-cell label,
/// so gap results can never collide with lateness results in the cell
/// cache or in a resumed manifest.
std::string gap_cell_label(const std::string& strategy_label, std::uint64_t node_budget);

/// Evaluates one gap cell: batch.samples graphs, heuristic vs oracle.
/// When context.validate is set, each sample's assignment and schedule are
/// validated as run_once does (ContractViolation on a problem).  Throws
/// std::runtime_error (naming the violating sample and seed) when a
/// sample's optimal exceeds its heuristic beyond the certified tolerance.
CellStats run_gap_cell(const RandomGraphConfig& workload, const Strategy& strategy,
                       int n_procs, const BatchConfig& batch,
                       const RunContext& context, std::uint64_t node_budget);

/// Cache-aware entry point: execute_cached_cell over run_gap_cell, keyed by
/// the gap-decorated label.
ExecutedCell execute_gap_cell(const RandomGraphConfig& workload, const Strategy& strategy,
                              int n_procs, const BatchConfig& batch,
                              const RunContext& context, std::uint64_t node_budget,
                              CellCache* cache);

}  // namespace feast::exact
