/// \file cli.hpp
/// \brief Shared command-line handling for the bench binaries: sample count
///        and seed, system sizes, CSV output, threads, result cache and log
///        level.  `<bench> --help` lists the flags, which are declared once
///        in parse_bench_args (a util/flags.hpp table).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "experiment/figures.hpp"

namespace feast {

/// Parsed bench options.
struct BenchArgs {
  FigureOptions figure;
  std::optional<std::string> csv_path;
  bool quick = false;
  /// Result-cache directory; empty unless --cache-dir was given (and not
  /// overridden by --no-cache).  The bench main decides whether to install
  /// it: the experiment layer has no dependency on the campaign cache.
  std::optional<std::string> cache_dir;

  /// Applies the figure options and writes the CSV file when requested.
  /// Call after computing the results.
  void write_csv(const std::vector<SweepResult>& results) const;
};

/// Parses argv; prints usage and exits(2) on malformed input, exits(0) on
/// --help.  \p bench_name appears in the usage text.
BenchArgs parse_bench_args(int argc, char** argv, const std::string& bench_name);

/// Prints every sweep with a blank line between them.
void print_results(const std::vector<SweepResult>& results);

}  // namespace feast
