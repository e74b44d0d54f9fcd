/// \file cli_app.hpp
/// \brief The `feastc` command-line tool, as a testable library.
///
/// Commands: generate, info, distribute, schedule, simulate and dot work on
/// the text graph format; campaign (run / resume / status, plus the
/// exec-cell verb the supervisor spawns), exact (solve / gap) and profile
/// run experiments; diffsched, diffdist, torture and chaos are the
/// differential and fault-injection harnesses; serve, submit and worker are
/// the daemon, its client and its remote worker.  Each command declares its
/// flags once, as rows of a util/flags.hpp table; the parser, `--help` and
/// the usage errors come from the rows.
///
/// The graph commands read a graph from a file argument or "-" (stdin) and
/// write to stdout, so they compose:
///
///   feastc generate --seed 7 | feastc schedule - --metric adapt --procs 4
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace feast {

/// Runs the tool.  \p args are the command-line arguments *without* the
/// program name.  Output goes to \p out, diagnostics to \p err, and graph
/// input from "-" is read from \p in.  Returns the process exit code
/// (0 success, 2 usage error, 1 runtime failure).
int run_cli(const std::vector<std::string>& args, std::istream& in, std::ostream& out,
            std::ostream& err);

}  // namespace feast
