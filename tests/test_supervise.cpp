/// \file test_supervise.cpp
/// \brief Supervised process isolation: subprocess decoding and watchdog
///        escalation, deterministic retry backoff, poison-cell quarantine
///        with degraded-manifest round-trip, SIGTERM drain + resume, and
///        the attempt ledger's verdict table.
///
/// The campaign-level tests drive the real feastc binary (path baked in by
/// CMake as FEAST_FEASTC_PATH) through run_supervised_campaign and the CLI,
/// using the deterministic --inject poison actions so every failure mode is
/// reproduced on purpose, never by luck.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "campaign/campaign.hpp"
#include "supervise/attempts.hpp"
#include "supervise/subprocess.hpp"
#include "supervise/supervisor.hpp"
#include "util/fsio.hpp"

namespace feast::supervise {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the system temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              (tag + "-" + std::to_string(::getpid()))) {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A small campaign spec file: 2 strategies x 2 sizes = 4 cells.
fs::path write_spec(const fs::path& dir, int samples) {
  const fs::path path = dir / "spec.feast";
  std::ofstream out(path);
  out << "name = supervise-test\n"
      << "samples = " << samples << "\n"
      << "seed = 1234\n"
      << "strategies = pure, norm\n"
      << "sizes = 2, 4\n";
  return path;
}

// ------------------------------------------------------------- Subprocess

TEST(Subprocess, DecodesExitCodesAndSignalsDistinctly) {
  const ExitStatus exited =
      Subprocess::spawn({"/bin/sh", "-c", "exit 7"}).wait();
  EXPECT_EQ(exited.kind, ExitStatus::Kind::Exited);
  EXPECT_TRUE(exited.exited(7));
  EXPECT_FALSE(exited.success());

  const ExitStatus signaled =
      Subprocess::spawn({"/bin/sh", "-c", "kill -USR1 $$"}).wait();
  EXPECT_EQ(signaled.kind, ExitStatus::Kind::Signaled);
  EXPECT_EQ(signaled.term_signal, SIGUSR1);
  EXPECT_FALSE(signaled.success());
  EXPECT_NE(signaled.describe().find("signal"), std::string::npos);
}

TEST(Subprocess, SpawnFailureThrowsInsteadOfFakingAnExitCode) {
  EXPECT_THROW(Subprocess::spawn({"/nonexistent/feast-no-such-binary"}),
               std::runtime_error);
}

TEST(Subprocess, CapturesOutputToFile) {
  ScratchDir dir("feast-subproc-capture");
  const fs::path log = dir.path() / "out.log";
  SubprocessOptions options;
  options.stdout_path = log.string();
  options.stderr_path = "+stdout";
  const ExitStatus status =
      Subprocess::spawn({"/bin/sh", "-c", "echo to-out; echo to-err 1>&2"},
                        options)
          .wait();
  EXPECT_TRUE(status.success());
  const std::string text = read_file(log);
  EXPECT_NE(text.find("to-out"), std::string::npos);
  EXPECT_NE(text.find("to-err"), std::string::npos);
}

TEST(Subprocess, WatchdogEscalatesSigtermIgnoringChildToSigkill) {
  // The child ignores SIGTERM and loops; only the SIGKILL escalation can
  // end it.  kill_and_reap must report a signal kill with timed_out set.
  // The child announces readiness *after* installing the trap so the test
  // never races SIGTERM against the trap setup.
  ScratchDir dir("feast-subproc-escalate");
  const fs::path ready = dir.path() / "ready";
  Subprocess child = Subprocess::spawn(
      {"/bin/sh", "-c",
       "trap '' TERM; : > " + ready.string() + "; while :; do sleep 0.05; done"});
  ASSERT_TRUE(child.spawned());
  for (int i = 0; i < 500 && !fs::exists(ready); ++i) ::usleep(10 * 1000);
  ASSERT_TRUE(fs::exists(ready)) << "child never became ready";
  EXPECT_FALSE(child.poll());
  const ExitStatus status = child.kill_and_reap(/*term_grace_s=*/0.3);
  EXPECT_TRUE(status.timed_out);
  EXPECT_EQ(status.kind, ExitStatus::Kind::Signaled);
  EXPECT_EQ(status.term_signal, SIGKILL);
}

TEST(Subprocess, LostChildSurfacesAsTerminalStatus) {
  // With SIGCHLD set to SIG_IGN the kernel auto-reaps children, so waitpid
  // fails with ECHILD once the child exits.  poll() must then report a
  // terminal Lost status — never "still running", or wait_for spins forever.
  struct sigaction ignore {}, old {};
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  ::sigaction(SIGCHLD, &ignore, &old);
  Subprocess child = Subprocess::spawn({"/bin/sh", "-c", "exit 0"});
  const auto status = child.wait_for(/*seconds=*/10.0);
  ::sigaction(SIGCHLD, &old, nullptr);
  ASSERT_TRUE(status.has_value()) << "poll never reported the lost child";
  EXPECT_EQ(status->kind, ExitStatus::Kind::Lost);
  EXPECT_FALSE(status->success());
  EXPECT_NE(status->describe().find("lost"), std::string::npos);
}

TEST(Subprocess, NewProcessGroupDetachesChildFromOurs) {
  // setpgid happens between fork and exec, and spawn() only returns after
  // the exec succeeded, so the group is observable immediately.
  // `sleep` spawned directly (no shell): dash forks single commands, and
  // the orphaned grandchild would hold our stdout pipe open long after the
  // kill below, stalling ctest.
  SubprocessOptions options;
  options.new_process_group = true;
  Subprocess child = Subprocess::spawn({"sleep", "30"}, options);
  ASSERT_TRUE(child.spawned());
  EXPECT_EQ(::getpgid(child.pid()), child.pid());
  EXPECT_NE(::getpgid(child.pid()), ::getpgrp());
  child.kill_and_reap(/*term_grace_s=*/1.0);

  Subprocess inherited = Subprocess::spawn({"sleep", "30"});
  ASSERT_TRUE(inherited.spawned());
  EXPECT_EQ(::getpgid(inherited.pid()), ::getpgrp());
  inherited.kill_and_reap(/*term_grace_s=*/1.0);
}

TEST(Subprocess, RunCommandEnforcesDeadline) {
  // Direct argv, no shell: dash forks single commands, so killing the shell
  // would orphan the sleep, which then holds the test's stdout pipe open
  // for the full 30 s and stalls ctest's output collection.
  const ExitStatus status = run_command({"sleep", "30"}, {}, /*timeout_s=*/0.3);
  EXPECT_TRUE(status.timed_out);
  EXPECT_FALSE(status.success());
}

// ---------------------------------------------------------------- backoff

TEST(Backoff, DeterministicDoublingWithBoundedJitter) {
  BackoffPolicy policy;
  policy.base_ms = 100.0;
  policy.cap_ms = 800.0;
  policy.seed = 99;

  // Identical (seed, cell, attempt) -> identical delay, every time.
  EXPECT_EQ(backoff_delay_ms(policy, 3, 1), backoff_delay_ms(policy, 3, 1));
  EXPECT_EQ(backoff_delay_ms(policy, 0, 4), backoff_delay_ms(policy, 0, 4));

  // Nominal schedule 100, 200, 400, 800, 800 (capped), each scaled by a
  // jitter in [0.75, 1.25).
  const double nominal[] = {100.0, 200.0, 400.0, 800.0, 800.0};
  for (int attempt = 1; attempt <= 5; ++attempt) {
    const double delay = backoff_delay_ms(policy, 7, attempt);
    const double base = nominal[attempt - 1];
    EXPECT_GE(delay, 0.75 * base) << "attempt " << attempt;
    EXPECT_LT(delay, 1.25 * base) << "attempt " << attempt;
  }

  // The jitter stream depends on the seed and the cell.
  BackoffPolicy other = policy;
  other.seed = 100;
  EXPECT_NE(backoff_delay_ms(policy, 3, 1), backoff_delay_ms(other, 3, 1));
  EXPECT_NE(backoff_delay_ms(policy, 3, 1), backoff_delay_ms(policy, 4, 1));
}

// --------------------------------------------------------- attempt ledger

AttemptPolicy ledger_policy() {
  AttemptPolicy policy;
  policy.max_attempts = 3;
  policy.backoff.base_ms = 100.0;
  policy.backoff.cap_ms = 800.0;
  policy.backoff.seed = 7;
  policy.poison_deaths = 2;
  return policy;
}

using Action = AttemptVerdict::Action;
using LedgerClock = AttemptLedger::Clock;

LedgerClock::time_point after_ms(LedgerClock::time_point now, double ms) {
  return now + std::chrono::duration_cast<LedgerClock::duration>(
                   std::chrono::duration<double, std::milli>(ms));
}

TEST(AttemptLedger, StartChargesAndResolvesTheInjectAttempt) {
  AttemptLedger ledger(ledger_policy(), 4);
  EXPECT_EQ(ledger.attempts(), 0);
  const std::string expected[] = {"", "crash", ""};  // crash@2: attempt 2 only.
  for (int attempt = 1; attempt <= 3; ++attempt) {
    EXPECT_EQ(ledger.start("crash@2"), expected[attempt - 1]) << attempt;
    EXPECT_EQ(ledger.attempts(), attempt);
  }
  AttemptLedger plain(ledger_policy(), 4);
  EXPECT_EQ(plain.start("hang"), "hang");
  EXPECT_EQ(plain.start(""), "");
}

TEST(AttemptLedger, FailRetriesUnderBudgetThenQuarantinesWithKindAndError) {
  const AttemptPolicy policy = ledger_policy();
  AttemptLedger ledger(policy, 4);
  const LedgerClock::time_point now = LedgerClock::now();
  struct Row {
    ErrorKind kind;
    const char* error;
    Action action;
  };
  const Row table[] = {
      {ErrorKind::Crash, "worker exit 1", Action::Retry},
      {ErrorKind::Io, "spawn failed", Action::Retry},
      {ErrorKind::Timeout, "watchdog", Action::Quarantine},
  };
  int attempt = 0;
  for (const Row& row : table) {
    ledger.start("");
    ++attempt;
    const AttemptVerdict verdict = ledger.fail(row.kind, row.error, now);
    EXPECT_EQ(verdict.action, row.action) << attempt;
    EXPECT_EQ(verdict.attempts, attempt);
    EXPECT_EQ(verdict.kind, row.kind);
    EXPECT_EQ(verdict.error, row.error);
    if (row.action == Action::Retry) {
      EXPECT_EQ(verdict.delay_ms, backoff_delay_ms(policy.backoff, 4, attempt));
      EXPECT_EQ(verdict.due, after_ms(now, verdict.delay_ms));
    }
  }
  EXPECT_TRUE(ledger.fail(ErrorKind::Crash, "again", now).quarantined());

  // Serve's zero backoff: every retry is due immediately.
  const AttemptPolicy zero{2, BackoffPolicy{0.0, 0.0, 0}, 2};
  AttemptLedger immediate(zero, 9);
  immediate.start("");
  const AttemptVerdict retry = immediate.fail(ErrorKind::Crash, "boom", now);
  EXPECT_EQ(retry.action, Action::Retry);
  EXPECT_EQ(retry.delay_ms, 0.0);
  EXPECT_EQ(retry.due, now);
}

TEST(AttemptLedger, LostIsUnchargedAndDistinctWorkerDeathsTripPoison) {
  AttemptLedger ledger(ledger_policy(), 0);
  struct Row {
    int starts;  ///< Attempts charged before the loss.
    const char* worker;
    Action action;
    int attempts;
  };
  const Row table[] = {
      {0, "w0", Action::Requeue, 0},     // Never below zero.
      {2, "w0", Action::Requeue, 1},     // Same name again: still one death.
      {0, "w1", Action::Quarantine, 0},  // Second distinct name: poison.
  };
  for (const Row& row : table) {
    for (int i = 0; i < row.starts; ++i) ledger.start("");
    const AttemptVerdict verdict = ledger.lost(row.worker, "lease deadline missed");
    EXPECT_EQ(verdict.action, row.action) << row.worker;
    EXPECT_EQ(verdict.attempts, row.attempts) << row.worker;
    EXPECT_EQ(ledger.attempts(), row.attempts);
  }
  const AttemptVerdict poison = ledger.lost("w1", "heartbeat missed");
  EXPECT_EQ(poison.kind, ErrorKind::Net);
  EXPECT_EQ(poison.error,
            "cross-worker poison: 2 distinct workers lost while running this "
            "cell (last 'w1': heartbeat missed)");
}

TEST(AttemptLedger, ReleaseIsUncharged) {
  AttemptLedger ledger(ledger_policy(), 0);
  ledger.start("");
  ledger.start("");
  ledger.release();
  EXPECT_EQ(ledger.attempts(), 1);
  ledger.release();
  ledger.release();
  EXPECT_EQ(ledger.attempts(), 0);
}

// ---------------------------------------------------------- shard results

TEST(ShardResult, RoundTripsAndRejectsCorruption) {
  ShardResult shard;
  shard.cell_index = 5;
  shard.from_cache = true;
  shard.wall_ms = 123.25;
  shard.stats.max_lateness.count = 8;
  shard.stats.max_lateness.mean = -3.5;
  shard.stats.infeasible_runs = 2;

  const std::string text = render_shard_result(shard, "some-canonical-key");
  const auto parsed = parse_shard_result(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cell_index, 5u);
  EXPECT_TRUE(parsed->from_cache);
  EXPECT_DOUBLE_EQ(parsed->wall_ms, 123.25);
  EXPECT_DOUBLE_EQ(parsed->stats.max_lateness.mean, -3.5);
  EXPECT_EQ(parsed->stats.infeasible_runs, 2u);

  EXPECT_FALSE(parse_shard_result("").has_value());
  EXPECT_FALSE(parse_shard_result("garbage\n").has_value());
  // Truncation tears the embedded cell record; its checksum rejects it.
  EXPECT_FALSE(parse_shard_result(text.substr(0, text.size() - 10)).has_value());
  // A flipped stats byte breaks the whole-record checksum.
  std::string flipped = text;
  flipped[flipped.find("-3.5") + 1] = '4';
  EXPECT_FALSE(parse_shard_result(flipped).has_value());
}

TEST(InjectSpec, ParsesAndValidates) {
  const auto inject = parse_inject_spec("0:hang, 2:crash@1,7:signal");
  ASSERT_EQ(inject.size(), 3u);
  EXPECT_EQ(inject.at(0), "hang");
  EXPECT_EQ(inject.at(2), "crash@1");
  EXPECT_EQ(inject.at(7), "signal");
  EXPECT_TRUE(parse_inject_spec("").empty());
  EXPECT_THROW(parse_inject_spec("0"), std::invalid_argument);
  EXPECT_THROW(parse_inject_spec("x:hang"), std::invalid_argument);
  EXPECT_THROW(parse_inject_spec("0:explode"), std::invalid_argument);
  // Attempts are numbered from 1: a suffix that can never match is an error,
  // not a poison that silently never fires.
  EXPECT_THROW(parse_inject_spec("0:crash@x"), std::invalid_argument);
  EXPECT_THROW(parse_inject_spec("0:crash@0"), std::invalid_argument);
  EXPECT_THROW(parse_inject_spec("0:crash@-1"), std::invalid_argument);
}

// ------------------------------------------------------------------- fsio

TEST(FsIo, UniqueTmpPathsNeverCollide) {
  const fs::path a = unique_tmp_path("/tmp/x.json");
  const fs::path b = unique_tmp_path("/tmp/x.json");
  EXPECT_NE(a, b);
  // Both embed the pid, so two processes cannot collide either.
  EXPECT_NE(a.string().find(std::to_string(::getpid())), std::string::npos);
}

TEST(FsIo, AtomicWriteFilePublishesDurably) {
  ScratchDir dir("feast-fsio");
  const fs::path target = dir.path() / "out.txt";
  std::string error;
  ASSERT_TRUE(atomic_write_file(target, "first", &error)) << error;
  EXPECT_EQ(read_file(target), "first");
  ASSERT_TRUE(atomic_write_file(target, "second", &error)) << error;
  EXPECT_EQ(read_file(target), "second");
  // No stray temporaries left behind.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);

  EXPECT_FALSE(
      atomic_write_file(dir.path() / "missing-dir" / "out.txt", "x", &error));
  EXPECT_FALSE(error.empty());
}

TEST(FsIo, FileLockRemovesSidecarOnRelease) {
  ScratchDir dir("feast-fsio-lock");
  const fs::path target = dir.path() / "record";
  const fs::path sidecar = target.string() + ".lock";
  {
    FileLock lock(target);
    EXPECT_TRUE(lock.locked());
    EXPECT_TRUE(fs::exists(sidecar));
  }
  EXPECT_FALSE(fs::exists(sidecar));
  {
    // Re-acquirable after cleanup (the constructor's identity re-check must
    // accept the freshly created sidecar first try).
    FileLock lock(target);
    EXPECT_TRUE(lock.locked());
  }
  EXPECT_FALSE(fs::exists(sidecar));
}

// ------------------------------------------------- supervised campaigns

SupervisorOptions fast_supervisor(const fs::path& spec_path) {
  SupervisorOptions sup;
  sup.workers = 2;
  sup.max_attempts = 2;
  sup.backoff.base_ms = 5.0;
  sup.backoff.cap_ms = 20.0;
  sup.feastc_path = FEAST_FEASTC_PATH;
  sup.spec_path = spec_path.string();
  sup.no_cache = true;
  return sup;
}

TEST(Supervise, QuarantinesPoisonCellAndCompletesDegraded) {
  ScratchDir dir("feast-supervise-quarantine");
  const fs::path spec_path = write_spec(dir.path(), /*samples=*/4);
  const CampaignSpec spec = CampaignSpec::parse_file(spec_path.string());

  CampaignOptions options;
  options.manifest_path = (dir.path() / "m.json").string();

  SupervisorOptions sup = fast_supervisor(spec_path);
  sup.work_dir = (dir.path() / "work").string();
  sup.inject[0] = "crash";    // Every attempt of cell 0 crashes.
  sup.inject[2] = "crash@1";  // Cell 2 crashes once, then recovers.

  const CampaignResult result = run_supervised_campaign(spec, options, sup);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.degraded());
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.quarantined, 1u);
  EXPECT_EQ(result.failed, 0u);

  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.cells[0].state, CellState::Quarantined);
  EXPECT_EQ(result.cells[0].attempts, 2);
  EXPECT_EQ(result.cells[0].error_kind, "crash");
  EXPECT_NE(result.cells[0].error.find("injected crash"), std::string::npos);
  EXPECT_EQ(result.cells[2].state, CellState::Computed);
  EXPECT_EQ(result.cells[2].attempts, 2);  // Failed once, retried, recovered.
  EXPECT_EQ(result.cells[1].state, CellState::Computed);
  EXPECT_EQ(result.cells[3].state, CellState::Computed);

  // The degraded manifest round-trips: schema v2 carries the attempt counts
  // and the error taxonomy.
  const Manifest manifest = read_manifest_file(options.manifest_path);
  EXPECT_EQ(manifest.quarantined, 1u);
  ASSERT_EQ(manifest.cells.size(), 4u);
  EXPECT_EQ(manifest.cells[0].state, CellState::Quarantined);
  EXPECT_EQ(manifest.cells[0].attempts, 2);
  EXPECT_EQ(manifest.cells[0].error_kind, "crash");
  EXPECT_EQ(manifest.cells[2].attempts, 2);

  // Resume without the poison: the quarantined cell is retried, the healthy
  // cells restore, and the final results are byte-identical to a clean
  // in-process run of the same spec.
  CampaignOptions resume = options;
  resume.resume = true;
  SupervisorOptions clean = fast_supervisor(spec_path);
  clean.work_dir = (dir.path() / "work2").string();
  const CampaignResult resumed = run_supervised_campaign(spec, resume, clean);
  EXPECT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.quarantined, 0u);

  CampaignOptions base_options;
  base_options.manifest_path = (dir.path() / "base.json").string();
  const CampaignResult baseline = run_campaign(spec, base_options);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(manifest_fingerprint(read_manifest_file(options.manifest_path)),
            manifest_fingerprint(read_manifest_file(base_options.manifest_path)));
}

TEST(Supervise, SpawnFailuresRetryThenQuarantineAsIo) {
  // Every spawn throws (nonexistent worker binary), so fail_attempt runs
  // *inside* the dispatch pass and re-queues onto the ready deque — the
  // exact path that used to spawn from invalidated deque iterators.  The
  // run must charge each attempt, quarantine every cell as `io`, and
  // terminate instead of crashing or spinning.
  ScratchDir dir("feast-supervise-spawnfail");
  const fs::path spec_path = write_spec(dir.path(), /*samples=*/2);
  const CampaignSpec spec = CampaignSpec::parse_file(spec_path.string());

  CampaignOptions options;
  options.manifest_path = (dir.path() / "m.json").string();

  SupervisorOptions sup = fast_supervisor(spec_path);
  sup.work_dir = (dir.path() / "work").string();
  sup.feastc_path = "/nonexistent/feast-no-such-binary";

  const CampaignResult result = run_supervised_campaign(spec, options, sup);
  EXPECT_TRUE(result.degraded());
  EXPECT_EQ(result.quarantined, result.cells.size());
  for (const CellOutcome& cell : result.cells) {
    EXPECT_EQ(cell.state, CellState::Quarantined);
    EXPECT_EQ(cell.attempts, sup.max_attempts);
    EXPECT_EQ(cell.error_kind, "io");
    EXPECT_NE(cell.error.find("spawn failed"), std::string::npos);
  }
}

TEST(Supervise, WatchdogKillsHangingCellAndTaxonomizesTimeout) {
  ScratchDir dir("feast-supervise-watchdog");
  const fs::path spec_path = write_spec(dir.path(), /*samples=*/4);
  const CampaignSpec spec = CampaignSpec::parse_file(spec_path.string());

  CampaignOptions options;
  options.manifest_path = (dir.path() / "m.json").string();

  SupervisorOptions sup = fast_supervisor(spec_path);
  sup.work_dir = (dir.path() / "work").string();
  sup.cell_timeout_s = 0.5;
  sup.term_grace_s = 0.5;
  sup.inject[1] = "hang";    // Wedges every attempt; the watchdog must kill.
  sup.inject[3] = "signal";  // Dies on SIGUSR1 every attempt.

  const CampaignResult result = run_supervised_campaign(spec, options, sup);
  EXPECT_TRUE(result.degraded());
  EXPECT_EQ(result.quarantined, 2u);
  EXPECT_EQ(result.cells[1].state, CellState::Quarantined);
  EXPECT_EQ(result.cells[1].error_kind, "timeout");
  EXPECT_EQ(result.cells[3].state, CellState::Quarantined);
  EXPECT_EQ(result.cells[3].error_kind, "signal");
  EXPECT_EQ(result.cells[0].state, CellState::Computed);
  EXPECT_EQ(result.cells[2].state, CellState::Computed);
}

TEST(Supervise, SigtermDrainsToResumableCheckpoint) {
  ScratchDir dir("feast-supervise-drain");
  const fs::path spec_path = write_spec(dir.path(), /*samples=*/8);
  const CampaignSpec spec = CampaignSpec::parse_file(spec_path.string());
  const fs::path manifest = dir.path() / "m.json";

  // Baseline: clean in-process run for the fingerprint comparison.
  CampaignOptions base_options;
  base_options.manifest_path = (dir.path() / "base.json").string();
  ASSERT_TRUE(run_campaign(spec, base_options).ok());

  // Supervised run through the real CLI with cell 0 wedged forever (the
  // watchdog is off) so the run deterministically never finishes on its
  // own: worker A hangs on cell 0 while worker B completes the rest.
  SubprocessOptions capture;
  capture.stdout_path = (dir.path() / "run.log").string();
  capture.stderr_path = "+stdout";
  Subprocess run = Subprocess::spawn(
      {FEAST_FEASTC_PATH, "campaign", "run", spec_path.string(), "--manifest",
       manifest.string(), "--no-cache", "--isolate=process", "--workers", "2",
       "--work-dir", (dir.path() / "work").string(), "--inject", "0:hang",
       "--drain-grace", "0.5", "--quiet"},
      capture);
  ASSERT_TRUE(run.spawned());

  // Wait until the healthy cells are checkpointed, then pull the plug.
  for (int i = 0; i < 600; ++i) {
    if (read_file(manifest).find("\"computed\": 3") != std::string::npos) break;
    ASSERT_FALSE(run.poll()) << "campaign finished early: " << run.status().describe()
                             << "\n" << read_file(capture.stdout_path);
    ::usleep(50 * 1000);
  }
  run.send_signal(SIGTERM);
  const auto status = run.wait_for(/*seconds=*/30.0);
  ASSERT_TRUE(status.has_value()) << "drain did not finish";
  EXPECT_TRUE(status->exited(130)) << status->describe() << "\n"
                                   << read_file(capture.stdout_path);

  // The checkpoint holds the three finished cells; the wedged cell is still
  // pending (an attempt killed by drain is not charged).
  const Manifest drained = read_manifest_file(manifest.string());
  EXPECT_EQ(drained.computed + drained.cached, 3u);
  EXPECT_EQ(drained.quarantined, 0u);

  // Resume without the poison: completes and reproduces the baseline
  // fingerprint byte-for-byte.
  const ExitStatus resumed = run_command(
      {FEAST_FEASTC_PATH, "campaign", "resume", spec_path.string(), "--manifest",
       manifest.string(), "--no-cache", "--isolate=process", "--workers", "2",
       "--work-dir", (dir.path() / "work2").string(), "--quiet"},
      capture, /*timeout_s=*/120.0);
  ASSERT_TRUE(resumed.success()) << resumed.describe() << "\n"
                                 << read_file(capture.stdout_path);
  EXPECT_EQ(manifest_fingerprint(read_manifest_file(manifest.string())),
            manifest_fingerprint(read_manifest_file(base_options.manifest_path)));
}

TEST(Supervise, FailureDuringDrainLeavesTheCellPending) {
  ScratchDir dir("feast-supervise-drain-failure");
  const fs::path spec_path = write_spec(dir.path(), /*samples=*/8);
  const fs::path manifest = dir.path() / "m.json";

  // Cell 0 hangs until its 1 s watchdog fires, which lands inside the 5 s
  // drain window: that failure must leave the cell exactly like
  // never-dispatched work — no retry, no row update.
  SubprocessOptions capture;
  capture.stdout_path = (dir.path() / "run.log").string();
  capture.stderr_path = "+stdout";
  Subprocess run = Subprocess::spawn(
      {FEAST_FEASTC_PATH, "campaign", "run", spec_path.string(), "--manifest",
       manifest.string(), "--no-cache", "--isolate=process", "--workers", "2",
       "--work-dir", (dir.path() / "work").string(), "--inject", "0:hang",
       "--cell-timeout", "1", "--max-attempts", "5", "--drain-grace", "5"},
      capture);
  ASSERT_TRUE(run.spawned());
  for (int i = 0; i < 600; ++i) {
    if (read_file(manifest).find("\"computed\": 3") != std::string::npos) break;
    ASSERT_FALSE(run.poll()) << "campaign finished early: " << run.status().describe()
                             << "\n" << read_file(capture.stdout_path);
    ::usleep(50 * 1000);
  }
  run.send_signal(SIGTERM);
  const auto status = run.wait_for(/*seconds=*/30.0);
  ASSERT_TRUE(status.has_value()) << "drain did not finish";
  const std::string log = read_file(capture.stdout_path);
  EXPECT_TRUE(status->exited(130)) << status->describe() << "\n" << log;

  const std::size_t drain_line = log.find("drain: signal");
  ASSERT_NE(drain_line, std::string::npos) << log;
  EXPECT_EQ(log.find("retry in", drain_line), std::string::npos) << log;
  EXPECT_EQ(log.find("quarantined after", drain_line), std::string::npos) << log;

  const Manifest drained = read_manifest_file(manifest.string());
  ASSERT_EQ(drained.cells.size(), 4u);
  EXPECT_EQ(drained.cells[0].state, CellState::Pending);
  EXPECT_EQ(drained.cells[0].attempts, 0);
  EXPECT_EQ(drained.cells[0].error_kind, "");
  EXPECT_EQ(drained.quarantined, 0u);
  EXPECT_EQ(drained.computed + drained.cached, 3u);
}

TEST(Supervise, ExactSolveFaultIsQuarantinedEndToEnd) {
  // A Gap-mode campaign with the `exact-solve:1:die` fault armed inside
  // cell 0's worker: unlike --inject (which fakes a crash before the cell
  // runs), this kills the worker at a real library injection site in the
  // middle of the oracle solve.  The supervisor must taxonomize the death
  // as a crash, re-arm the fault on the retry, quarantine the cell after
  // its attempt budget, and finish the sibling gap cell normally.
  ScratchDir dir("feast-supervise-exact-fault");
  const fs::path spec_path = dir.path() / "gap.feast";
  {
    std::ofstream out(spec_path);
    out << "name = supervise-exact-fault\n"
        << "samples = 4\n"
        << "seed = 42\n"
        << "subtasks = 8:10\n"
        << "depth = 3:4\n"
        << "mode = gap\n"
        << "exact_nodes = 100000\n"
        << "strategies = norm, pure\n"
        << "sizes = 2\n";
  }
  const CampaignSpec spec = CampaignSpec::parse_file(spec_path.string());
  ASSERT_EQ(spec.mode, CampaignMode::Gap);
  ASSERT_EQ(spec.cell_count(), 2u);

  CampaignOptions options;
  options.manifest_path = (dir.path() / "m.json").string();

  SupervisorOptions sup = fast_supervisor(spec_path);
  sup.work_dir = (dir.path() / "work").string();
  sup.fault_cells[0] = "exact-solve:1:die";

  const CampaignResult result = run_supervised_campaign(spec, options, sup);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.degraded());
  EXPECT_EQ(result.quarantined, 1u);

  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].state, CellState::Quarantined);
  EXPECT_EQ(result.cells[0].attempts, 2);  // The fault re-arms every attempt.
  EXPECT_EQ(result.cells[0].error_kind, "crash");
  EXPECT_EQ(result.cells[1].state, CellState::Computed);
  // The healthy gap cell carries real oracle statistics (field mapping in
  // exact/gap.hpp): every sample searched nodes, and unproven samples are
  // reported, not hidden (the proven-rate gate itself lives in CI's
  // gap-sweep smoke, not here).
  EXPECT_GT(result.cells[1].stats.min_laxity.mean, 0.0);
  EXPECT_LE(result.cells[1].stats.infeasible_runs,
            static_cast<std::size_t>(result.samples));

  // A malformed fault spec is rejected before any worker spawns.
  SupervisorOptions bad = fast_supervisor(spec_path);
  bad.work_dir = (dir.path() / "work-bad").string();
  bad.fault_cells[0] = "no-such-site:1:die";
  EXPECT_THROW(run_supervised_campaign(spec, options, bad), std::invalid_argument);

  // Resume without the fault: the quarantined cell recovers and the final
  // manifest matches a clean in-process run of the same Gap spec.
  CampaignOptions resume = options;
  resume.resume = true;
  SupervisorOptions clean = fast_supervisor(spec_path);
  clean.work_dir = (dir.path() / "work2").string();
  const CampaignResult resumed = run_supervised_campaign(spec, resume, clean);
  EXPECT_TRUE(resumed.ok());

  CampaignOptions base_options;
  base_options.manifest_path = (dir.path() / "base.json").string();
  ASSERT_TRUE(run_campaign(spec, base_options).ok());
  EXPECT_EQ(manifest_fingerprint(read_manifest_file(options.manifest_path)),
            manifest_fingerprint(read_manifest_file(base_options.manifest_path)));
}

}  // namespace
}  // namespace feast::supervise
