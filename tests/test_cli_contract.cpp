/// \file test_cli_contract.cpp
/// \brief The command-line contract of feastc: the exact `--help` text, and
///        for every (command, flag) pair the accept path, the missing-value
///        error, the non-numeric error and the out-of-range error, plus the
///        unknown-option and positional-argument rules of every command.
///
/// All cases here fail at argument parsing (or are stopped there by a
/// trailing `--bogus`), so no command does real work.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "cli/cli_app.hpp"

namespace feast {
namespace {

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run(const std::vector<std::string>& args) {
  std::istringstream in;
  std::ostringstream out;
  std::ostringstream err;
  CliRun result;
  result.code = run_cli(args, in, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

std::string joined(const std::vector<std::string>& args) {
  std::string text;
  for (const std::string& a : args) text += (text.empty() ? "" : " ") + a;
  return text;
}

/// One command as the user spells it, e.g. {"campaign", "run"}.
struct Command {
  std::vector<std::string> argv;
  /// Takes one positional argument (graph, spec or manifest).
  bool positional = false;
  /// The positional argument may be '-' (stdin).
  bool stdin_dash = false;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> all{
      {{"generate"}},
      {{"info"}, true, true},
      {{"distribute"}, true, true},
      {{"schedule"}, true, true},
      {{"simulate"}, true, true},
      {{"campaign", "run"}, true, false},
      {{"campaign", "resume"}, true, false},
      {{"campaign", "status"}, true, false},
      {{"campaign", "exec-cell"}, true, false},
      {{"exact", "solve"}, true, true},
      {{"exact", "gap"}, true, false},
      {{"profile"}},
      {{"diffsched"}},
      {{"diffdist"}},
      {{"torture"}},
      {{"chaos"}},
      {{"serve"}},
      {{"submit"}, true, true},
      {{"worker"}},
      {{"dot"}, true, true},
  };
  return all;
}

enum class Kind {
  Switch,    ///< no value
  Text,      ///< any string
  Choice,    ///< one of a fixed list
  Integer,   ///< signed integer
  Real,      ///< floating point
  Range,     ///< A:B
  List,      ///< comma-separated integers
  CellSpec,  ///< CELL:SPEC
};

bool numeric(Kind kind) {
  return kind == Kind::Integer || kind == Kind::Real || kind == Kind::Range ||
         kind == Kind::List || kind == Kind::CellSpec;
}

/// A value of the right shape whose number part is not a number.
std::string non_numeric(Kind kind) {
  switch (kind) {
    case Kind::Range: return "abc:2";
    case Kind::List: return "2,abc";
    case Kind::CellSpec: return "abc:cache-store:1:die";
    default: return "abc";
  }
}

struct Flag {
  std::string flag;
  Kind kind;
  std::string ok;            ///< An accepted value ("" for switches).
  std::string out_of_range;  ///< A rejected value; "" when every value is accepted.
};

/// (command, flag) pairs: the flags each command accepts today.
struct CommandFlags {
  std::vector<std::string> argv;
  std::vector<Flag> flags;
};

std::vector<Flag> metric_flags() {
  return {
      {"--metric", Kind::Choice, "adapt", "magic"},
      {"--delta", Kind::Real, "2", ""},
      {"--threshold", Kind::Real, "1.5", ""},
      {"--estimator", Kind::Choice, "ccaa", "psychic"},
      {"--procs", Kind::Integer, "3", "0"},
  };
}

std::vector<Flag> with(std::vector<Flag> base, const std::vector<Flag>& more) {
  base.insert(base.end(), more.begin(), more.end());
  return base;
}

std::vector<Flag> campaign_run_flags() {
  return {
      {"--manifest", Kind::Text, "m.json", ""},
      {"--cache-dir", Kind::Text, "cache", ""},
      {"--no-cache", Kind::Switch, "", ""},
      {"--threads", Kind::Integer, "0", "-1"},
      {"--quiet", Kind::Switch, "", ""},
      {"--trace-out", Kind::Text, "t.json", ""},
      {"--faults", Kind::Text, "cache-store:3:die", ""},
      {"--isolate", Kind::Choice, "process", "bogus"},
      {"--workers", Kind::Integer, "3", "0"},
      {"--cell-timeout", Kind::Real, "0", "-1"},
      {"--term-grace", Kind::Real, "2", "-1"},
      {"--drain-grace", Kind::Real, "10", "-1"},
      {"--max-attempts", Kind::Integer, "3", "0"},
      {"--backoff-base", Kind::Real, "250", "-1"},
      {"--backoff-cap", Kind::Real, "10000", "-1"},
      {"--mem-limit", Kind::Integer, "0", "-1"},
      {"--work-dir", Kind::Text, "w", ""},
      {"--keep-work", Kind::Switch, "", ""},
      {"--inject", Kind::Text, "0:hang", ""},
      {"--fault-cell", Kind::CellSpec, "0:exact-solve:1:die", "-1:exact-solve:1:die"},
  };
}

std::vector<Flag> trial_flags(const std::vector<Flag>& more = {}) {
  return with(
      {
          {"--trials", Kind::Integer, "2", "0"},
          {"--seed", Kind::Integer, "7", "-1"},
          {"--work-dir", Kind::Text, "w", ""},
          {"--feastc", Kind::Text, "feastc", ""},
          {"--keep", Kind::Switch, "", ""},
      },
      more);
}

const std::vector<CommandFlags>& command_flags() {
  static const std::vector<CommandFlags> all{
      {{"generate"},
       {
           {"--seed", Kind::Integer, "3", "-1"},
           {"--shape", Kind::Text, "chain", "moebius"},
           {"--scenario", Kind::Choice, "HDET", "XDET"},
           {"--subtasks", Kind::Range, "10:12", "12:10"},
           {"--depth", Kind::Range, "4:5", "0:3"},
           {"--ccr", Kind::Real, "0.5", ""},
           {"--olr", Kind::Real, "2", ""},
       }},
      {{"distribute"},
       with(metric_flags(), {
                                {"--format", Kind::Choice, "csv", "xml"},
                                {"--windows-out", Kind::Text, "w.txt", ""},
                            })},
      {{"schedule"},
       with(metric_flags(), {
                                {"--contention", Kind::Choice, "bus", "smoke"},
                                {"--release", Kind::Choice, "eager", "lazy"},
                                {"--windows", Kind::Text, "w.txt", ""},
                                {"--gantt", Kind::Switch, "", ""},
                                {"--csv", Kind::Switch, "", ""},
                                {"--report", Kind::Switch, "", ""},
                            })},
      {{"simulate"},
       with(metric_flags(), {
                                {"--runs", Kind::Integer, "5", "0"},
                                {"--overrun", Kind::Range, "1:1.2", "1:0.5"},
                                {"--background", Kind::Real, "0.2", "1.5"},
                                {"--bg-service", Kind::Real, "5", "0"},
                                {"--preemptive", Kind::Switch, "", ""},
                                {"--sim-seed", Kind::Integer, "4", "-1"},
                            })},
      {{"campaign", "run"}, campaign_run_flags()},
      {{"campaign", "resume"}, campaign_run_flags()},
      {{"campaign", "status"}, {{"--json", Kind::Switch, "", ""}}},
      {{"campaign", "exec-cell"},
       {
           {"--cell", Kind::Integer, "0", "-1"},
           {"--out", Kind::Text, "r.result", ""},
           {"--cache-dir", Kind::Text, "cache", ""},
           {"--no-cache", Kind::Switch, "", ""},
           {"--threads", Kind::Integer, "1", "0"},
           {"--inject", Kind::Text, "0:hang", ""},
           {"--faults", Kind::Text, "cache-store:3:die", ""},
       }},
      {{"exact", "solve"},
       with(metric_flags(), {
                                {"--contention", Kind::Choice, "links", "smoke"},
                                {"--release", Kind::Choice, "time-driven", "lazy"},
                                {"--budget", Kind::Integer, "100", "-1"},
                                {"--time-budget", Kind::Real, "1.5", "-1"},
                            })},
      {{"exact", "gap"},
       {
           {"--manifest", Kind::Text, "m.json", ""},
           {"--out", Kind::Text, "gap.csv", ""},
           {"--bench-out", Kind::Text, "b.json", ""},
           {"--budget", Kind::Integer, "100", "-1"},
           {"--cache-dir", Kind::Text, "cache", ""},
           {"--no-cache", Kind::Switch, "", ""},
           {"--threads", Kind::Integer, "0", "-1"},
           {"--quiet", Kind::Switch, "", ""},
           {"--resume", Kind::Switch, "", ""},
       }},
      {{"profile"},
       {
           {"--samples", Kind::Integer, "4", "0"},
           {"--seed", Kind::Integer, "0xFEA57", "-1"},
           {"--sizes", Kind::List, "2,4", "2,0"},
           {"--scenario", Kind::Choice, "LDET", "XDET"},
           {"--contention", Kind::Choice, "free", "smoke"},
           {"--core", Kind::Choice, "reference", "quantum"},
           {"--threads", Kind::Integer, "2", "0"},
           {"--trace-out", Kind::Text, "t.json", ""},
       }},
      {{"diffsched"},
       {
           {"--trials", Kind::Integer, "5", "0"},
           {"--seed", Kind::Integer, "1", "-1"},
           {"--quick", Kind::Switch, "", ""},
       }},
      {{"diffdist"},
       {
           {"--trials", Kind::Integer, "5", "0"},
           {"--seed", Kind::Integer, "1", "-1"},
           {"--quick", Kind::Switch, "", ""},
       }},
      {{"torture"}, trial_flags()},
      {{"chaos"}, trial_flags({
                      {"--workers", Kind::Integer, "2", "0"},
                      {"--timeout", Kind::Real, "30", "0"},
                  })},
      {{"serve"},
       {
           {"--host", Kind::Text, "127.0.0.1", ""},
           {"--port", Kind::Integer, "0", "65536"},
           {"--workers", Kind::Integer, "0", "-1"},
           {"--max-queue", Kind::Integer, "64", "0"},
           {"--max-connections", Kind::Integer, "128", "0"},
           {"--max-attempts", Kind::Integer, "3", "0"},
           {"--cell-timeout", Kind::Real, "0", "-1"},
           {"--term-grace", Kind::Real, "2", "-1"},
           {"--drain-grace", Kind::Real, "10", "-1"},
           {"--header-timeout", Kind::Real, "5", "0"},
           {"--idle-timeout", Kind::Real, "60", "0"},
           {"--mem-limit", Kind::Integer, "0", "-1"},
           {"--threads", Kind::Integer, "1", "0"},
           {"--work-dir", Kind::Text, "w", ""},
           {"--cache-dir", Kind::Text, "cache", ""},
           {"--no-cache", Kind::Switch, "", ""},
           {"--max-body", Kind::Integer, "1048576", "0"},
           {"--quiet", Kind::Switch, "", ""},
           {"--heartbeat-timeout", Kind::Real, "15", "0"},
           {"--lease-timeout", Kind::Real, "0", "-1"},
           {"--poison-deaths", Kind::Integer, "2", "0"},
           {"--retry-after", Kind::Integer, "1", "-1"},
           {"--faults", Kind::Text, "net-send:1:die", ""},
       }},
      {{"submit"},
       {
           {"--cell", Kind::Integer, "0", "-1"},
           {"--server", Kind::Text, "127.0.0.1:7433", ""},
           {"--client", Kind::Text, "me", ""},
           {"--status", Kind::Switch, "", ""},
           {"--timeout", Kind::Real, "600", "0"},
           {"--retries", Kind::Integer, "2", "-1"},
           {"--retry-base", Kind::Real, "250", "0"},
           {"--retry-cap", Kind::Real, "10000", "0"},
           {"--retry-seed", Kind::Integer, "0", "-1"},
           {"--inject", Kind::Text, "0:worker-die", ""},
       }},
      {{"worker"},
       {
           {"--connect", Kind::Text, "127.0.0.1:7433", ""},
           {"--name", Kind::Text, "w1", ""},
           {"--slots", Kind::Integer, "2", "65"},
           {"--work-dir", Kind::Text, "w", ""},
           {"--cache-dir", Kind::Text, "cache", ""},
           {"--no-cache", Kind::Switch, "", ""},
           {"--threads", Kind::Integer, "1", "0"},
           {"--poll-ms", Kind::Integer, "50", "0"},
           {"--backoff-base", Kind::Real, "250", "0"},
           {"--backoff-cap", Kind::Real, "10000", "0"},
           {"--max-reconnects", Kind::Integer, "0", "-1"},
           {"--max-cells", Kind::Integer, "0", "-1"},
           {"--request-timeout", Kind::Real, "10", "0"},
           {"--feastc", Kind::Text, "feastc", ""},
           {"--faults", Kind::Text, "net-send:1:die", ""},
           {"--quiet", Kind::Switch, "", ""},
       }},
  };
  return all;
}

std::string label(const std::vector<std::string>& argv) { return joined(argv); }

void expect_usage_error(const std::vector<std::string>& args, const std::string& needle) {
  const CliRun r = run(args);
  EXPECT_EQ(r.code, 2) << joined(args) << "\n" << r.err;
  EXPECT_NE(r.err.find(needle), std::string::npos)
      << joined(args) << ": stderr lacks '" << needle << "':\n"
      << r.err;
}

std::vector<std::string> args_of(const std::vector<std::string>& argv,
                                  std::initializer_list<std::string> tail) {
  std::vector<std::string> args = argv;
  args.insert(args.end(), tail);
  return args;
}

TEST(CliContract, HelpTextIsGolden) {
  std::ifstream file(std::string(FEAST_GOLDEN_DIR) + "/feastc_help.txt");
  ASSERT_TRUE(file) << "missing golden feastc_help.txt";
  std::ostringstream golden;
  golden << file.rdbuf();
  for (const std::string form : {"--help", "-h", "help"}) {
    const CliRun r = run({form});
    EXPECT_EQ(r.code, 0) << form;
    EXPECT_EQ(r.out, golden.str()) << form;
  }
  const CliRun bare = run({});
  EXPECT_EQ(bare.code, 2);
  EXPECT_EQ(bare.out, golden.str());
}

TEST(CliContract, CommandHelpListsOnlyThatCommand) {
  const CliRun r = run({"schedule", "--help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_EQ(r.out.rfind("usage: feastc <command> [options]", 0), 0u) << r.out;
  EXPECT_NE(r.out.find("--gantt"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("--metric"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("--connect"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("simulate options"), std::string::npos) << r.out;

  // Every documented flag of a command is in that command's help.
  for (const CommandFlags& command : command_flags()) {
    if (command.argv.back() == "exec-cell") continue;  // Spawned, not typed.
    const CliRun help = run({command.argv.front(), "--help"});
    for (const Flag& f : command.flags) {
      if (command.argv.front() == "worker" && f.flag == "--quiet") continue;
      EXPECT_NE(help.out.find(f.flag), std::string::npos)
          << label(command.argv) << " --help lacks " << f.flag;
    }
  }
}

TEST(CliContract, HelpOnlyWhereAFlagIsExpected) {
  // As a flag's value, -h and --help are that value, not a help request.
  const CliRun seed = run({"generate", "--seed", "-h"});
  EXPECT_EQ(seed.code, 2);
  EXPECT_EQ(seed.out, "");
  EXPECT_NE(seed.err.find("bad number for --seed"), std::string::npos) << seed.err;
  const CliRun name = run({"worker", "--name", "--help"});
  EXPECT_EQ(name.code, 2);
  EXPECT_EQ(name.out, "");
  EXPECT_NE(name.err.find("--connect HOST:PORT is required"), std::string::npos)
      << name.err;

  // Where a flag or a verb is expected, both still ask for help.
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"generate", "--seed", "3", "-h"},
                                             {"campaign", "--help"},
                                             {"campaign", "run", "-h"},
                                             {"exact", "-h"}}) {
    const CliRun r = run(args);
    EXPECT_EQ(r.code, 0) << joined(args) << "\n" << r.err;
    EXPECT_EQ(r.out.rfind("usage: feastc <command> [options]", 0), 0u) << joined(args);
  }
}

TEST(CliContract, EveryFlagIsAccepted) {
  // A trailing unknown option proves the parser got past the flag: the
  // error then names '--bogus', not the flag under test.
  for (const CommandFlags& command : command_flags()) {
    const std::string needle = label(command.argv) + ": unknown option '--bogus'";
    for (const Flag& f : command.flags) {
      std::vector<std::string> args = args_of(command.argv, {f.flag});
      if (f.kind != Kind::Switch) args.push_back(f.ok);
      args.push_back("--bogus");
      expect_usage_error(args, needle);
    }
  }
}

TEST(CliContract, MissingValueNeedsAValue) {
  for (const CommandFlags& command : command_flags()) {
    for (const Flag& f : command.flags) {
      if (f.kind == Kind::Switch) continue;
      expect_usage_error(args_of(command.argv, {f.flag}), "needs a value");
    }
  }
}

TEST(CliContract, NonNumericValueNamesTheFlag) {
  for (const CommandFlags& command : command_flags()) {
    for (const Flag& f : command.flags) {
      if (!numeric(f.kind)) continue;
      expect_usage_error(args_of(command.argv, {f.flag, non_numeric(f.kind)}), f.flag);
    }
  }
}

TEST(CliContract, OutOfRangeValueIsAUsageError) {
  for (const CommandFlags& command : command_flags()) {
    for (const Flag& f : command.flags) {
      if (f.out_of_range.empty()) continue;
      const std::vector<std::string> args = args_of(command.argv, {f.flag, f.out_of_range});
      const CliRun r = run(args);
      EXPECT_EQ(r.code, 2) << joined(args) << "\n" << r.err;
    }
  }
}

TEST(CliContract, SeedsSpanTheFullU64Range) {
  const CliRun max = run({"generate", "--seed", "18446744073709551615"});
  EXPECT_EQ(max.code, 0) << max.err;
  EXPECT_EQ(run({"generate", "--seed", "0xFFFFFFFFFFFFFFFF"}).out, max.out);
  EXPECT_EQ(run({"generate", "--seed", "0"}).code, 0);
  expect_usage_error({"generate", "--seed", "-1"}, "bad number for --seed: '-1'");
  expect_usage_error({"generate", "--seed", "18446744073709551616"}, "--seed");
}

TEST(CliContract, UnknownOptionNamesTheCommand) {
  for (const Command& command : commands()) {
    expect_usage_error(args_of(command.argv, {"--bogus"}),
                       label(command.argv) + ": unknown option '--bogus'");
  }
}

TEST(CliContract, PositionalArguments) {
  for (const Command& command : commands()) {
    const std::string prefix = label(command.argv) + ": unknown option ";
    if (!command.positional) {
      expect_usage_error(args_of(command.argv, {"extra"}), prefix + "'extra'");
      continue;
    }
    // One positional argument at most.
    expect_usage_error(args_of(command.argv, {"first", "second"}), prefix + "'second'");
    // '-' reads stdin only where the command says so.
    expect_usage_error(args_of(command.argv, {"-", "--bogus"}),
                       prefix + (command.stdin_dash ? "'--bogus'" : "'-'"));
  }
}

}  // namespace
}  // namespace feast
