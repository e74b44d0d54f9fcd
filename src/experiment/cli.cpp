#include "experiment/cli.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "util/flags.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace feast {

BenchArgs parse_bench_args(int argc, char** argv, const std::string& bench_name) {
  BenchArgs args;
  std::optional<unsigned> threads;
  bool no_cache = false;
  bool verbose = false;
  Flags flags;
  const auto usage = [&](int code) {
    std::ostream& out = code == 0 ? std::cout : std::cerr;
    out << "usage: " << bench_name << " [options]\n";
    std::vector<Flags::HelpLine> lines;
    flags.help(lines, 17);
    for (const Flags::HelpLine& line : lines) out << line.text << "\n";
    std::exit(code);
  };
  flags
      .number("--samples", "N", "graphs per data point (default 128)",
              args.figure.samples, Bound::positive())
      .action("--quick", "shorthand for --samples 16",
              [&] {
                args.quick = true;
                args.figure.samples = 16;
              })
      .number("--seed", "S", "root seed (default 0xFEA57)", args.figure.seed)
      .list("--sizes", "LIST", "comma-separated processor counts (default 2,4,...,16)",
            args.figure.sizes, Bound::positive())
      .text("--csv", "FILE", "dump all series as CSV", args.csv_path)
      .number("--threads", "N", "worker threads (default: hardware concurrency)",
              threads, Bound::non_negative())
      .text("--cache-dir", "D", "reuse cell results from a cache directory",
            args.cache_dir)
      .toggle("--no-cache", "ignore --cache-dir", no_cache)
      .toggle("--verbose", "raise the log level to info", verbose)
      .action("--help", "this text", [&] { usage(0); })
      .action("-h", "", [&] { usage(0); });
  try {
    flags.parse(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const UsageError& e) {
    std::cerr << bench_name << ": " << e.what() << "\n";
    usage(2);
  }
  if (threads) set_parallelism(*threads);
  if (verbose) set_log_level(LogLevel::Info);
  if (no_cache) args.cache_dir.reset();
  return args;
}

void BenchArgs::write_csv(const std::vector<SweepResult>& results) const {
  if (!csv_path) return;
  std::ofstream out(*csv_path);
  if (!out) {
    std::cerr << "cannot open CSV file '" << *csv_path << "'\n";
    std::exit(1);
  }
  for (const SweepResult& r : results) r.write_csv(out);
  std::cout << "wrote CSV: " << *csv_path << "\n";
}

void print_results(const std::vector<SweepResult>& results) {
  for (const SweepResult& r : results) {
    r.print(std::cout);
    std::cout << "\n";
  }
}

}  // namespace feast
