#include "check/chaos.hpp"

#include <csignal>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "check/fault.hpp"
#include "check/trial.hpp"
#include "serve/server.hpp"
#include "supervise/subprocess.hpp"
#include "util/rng.hpp"

namespace feast::check {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// The fault armed in worker 0 for one trial family, plus driver-side
/// behavior flags.  Network faults live in the worker's transport (its
/// FaultPlan is process-local), so the daemon and the submit client always
/// see honest sockets — only the worker's link misbehaves.
struct TrialFamily {
  std::string name;
  std::string fault_spec;   ///< --faults for worker 0 ("" = none).
  bool kill_worker = false; ///< Driver SIGKILLs worker 0 mid-run.
  bool poison = false;      ///< Submit injects worker-die on cell 0.
};

TrialFamily family_for(int index, Pcg32& rng) {
  const auto nth = [&](int lo, int hi) {
    return std::to_string(lo + static_cast<int>(rng.uniform_index(
                                   static_cast<std::size_t>(hi - lo + 1))));
  };
  switch (index % 8) {
    case 0: return {"clean", ""};
    case 1: return {"worker-kill", "", /*kill_worker=*/true};
    case 2:
      // A request frame torn mid-write on the worker's link: the daemon
      // sees a truncated request, the worker sees a dead connection.
      return {"torn-frame", "net-send:" + nth(2, 5) + ":partial-write"};
    case 3:
      // The response evaporates mid-read: the worker must treat the lease
      // (or result ack) as lost and reconnect.
      return {"short-read", "net-recv:" + nth(2, 5) + ":short-read"};
    case 4:
      // A blackholed dial plus a stalled one: reconnect backoff territory.
      return {"blackhole",
              "net-connect:" + nth(2, 3) + ":throw,net-connect:5:stall"};
    case 5:
      // The same shard frame delivered twice; the daemon must settle once
      // and 410 the duplicate.
      return {"dup-delivery", "worker-result-dup:1:throw"};
    case 6:
      // Three consecutive registration drops: a reconnect storm under
      // deterministic backoff.
      return {"reconnect-storm",
              "worker-reconnect:1:throw,worker-reconnect:2:throw,"
              "worker-reconnect:3:throw"};
    default:
      return {"poison", "", /*kill_worker=*/false, /*poison=*/true};
  }
}

/// One `feastc worker` subprocess and the identity it registered under.
struct WorkerProc {
  supervise::Subprocess proc;
  std::string name;
};

WorkerProc spawn_worker(const std::string& feastc, const fs::path& dir,
                        std::uint16_t port, int slot, int generation,
                        const std::string& fault_spec) {
  WorkerProc worker;
  worker.name = "chaos-w" + std::to_string(slot) + "-g" +
                std::to_string(generation);
  const fs::path scratch = dir / ("worker-" + worker.name);
  std::vector<std::string> argv = {feastc,
                                   "worker",
                                   "--connect",
                                   "127.0.0.1:" + std::to_string(port),
                                   "--name",
                                   worker.name,
                                   "--work-dir",
                                   scratch.string(),
                                   "--no-cache",
                                   "--poll-ms",
                                   "20",
                                   "--backoff-base",
                                   "100",
                                   "--backoff-cap",
                                   "2000"};
  if (!fault_spec.empty()) {
    argv.emplace_back("--faults");
    argv.push_back(fault_spec);
  }
  supervise::SubprocessOptions sub;
  sub.stdout_path = (dir / (worker.name + ".log")).string();
  sub.stderr_path = "+stdout";
  sub.new_process_group = true;
  worker.proc = supervise::Subprocess::spawn(argv, sub);
  return worker;
}

void run_trial(const ChaosOptions& options, ChaosTrial& trial, Pcg32& rng,
               const CampaignSpec& spec, const std::string& feastc, int index) {
  const TrialFamily family = family_for(index, rng);
  trial.family = family.name;
  trial.fault_spec = family.fault_spec;

  const double timeout_s = options.subprocess_timeout_s;
  detail::TrialDir trial_dir;
  trial.error = detail::prepare_trial(options.work_dir, index, spec, feastc,
                                      timeout_s, trial_dir);
  if (!trial.error.empty()) return;
  const fs::path& dir = trial_dir.dir;

  // The remote-only daemon, in-process over a real loopback socket.  Tight
  // failure-detection knobs so worker deaths surface within the trial.
  serve::ServeOptions serve_options;
  serve_options.host = "127.0.0.1";
  serve_options.port = 0;
  serve_options.workers = 0;
  serve_options.work_dir = (dir / "serve-work").string();
  serve_options.cache_dir = (dir / "serve-cache").string();
  serve_options.max_attempts = 3;
  serve_options.lease_timeout_s = 15.0;
  serve_options.heartbeat_timeout_s = 10.0;
  serve_options.poison_worker_deaths = 2;
  std::ofstream serve_log(dir / "serve.log");
  serve_options.log = &serve_log;

  serve::Server server(std::move(serve_options));
  try {
    server.start();
  } catch (const std::exception& e) {
    trial.error = std::string("daemon start: ") + e.what();
    return;
  }
  const std::uint16_t port = server.port();
  std::thread server_thread([&server] { server.run(); });
  // Everything past this point must stop the daemon before returning.
  const auto teardown = [&](std::vector<WorkerProc>& workers) {
    for (WorkerProc& worker : workers) {
      if (worker.proc.spawned() && !worker.proc.poll()) {
        worker.proc.kill_and_reap(2.0);
      }
    }
    server.request_stop();
    server_thread.join();
  };

  std::vector<WorkerProc> workers;
  int generation = 0;
  try {
    for (int i = 0; i < options.workers; ++i) {
      workers.push_back(spawn_worker(feastc, dir, port, i, generation,
                                     i == 0 ? family.fault_spec : ""));
    }
  } catch (const std::exception& e) {
    trial.error = std::string("worker spawn: ") + e.what();
    teardown(workers);
    return;
  }
  ++generation;

  std::vector<std::string> submit_argv = {
      feastc,     "submit",     trial_dir.spec_path.string(),
      "--server", "127.0.0.1:" + std::to_string(port),
      "--client", "chaos",      "--timeout",
      "240",      "--retries",  "8"};
  if (family.poison) {
    submit_argv.emplace_back("--inject");
    submit_argv.emplace_back("0:worker-die");
  }
  supervise::SubprocessOptions submit_sub;
  submit_sub.stdout_path = (dir / "submit.log").string();
  submit_sub.stderr_path = "+stdout";
  supervise::Subprocess submit;
  try {
    submit = supervise::Subprocess::spawn(submit_argv, submit_sub);
  } catch (const std::exception& e) {
    trial.error = std::string("submit spawn: ") + e.what();
    teardown(workers);
    return;
  }

  // Drive the run: watch the submit, kill worker 0 when the family says so,
  // and replace dead workers (fresh names — a respawn is a *new* failure
  // domain, which is what makes cross-worker poison countable).
  const int max_respawns = options.workers + 4;
  const auto started = Clock::now();
  bool killed = false;
  while (!submit.poll()) {
    if (elapsed_s(started) > timeout_s) {
      submit.kill_and_reap(2.0);
      trial.error = "distributed run exceeded " + std::to_string(timeout_s) +
                    " s (family " + family.name + ", logs in " + dir.string() +
                    ")";
      teardown(workers);
      return;
    }
    if (family.kill_worker && !killed && elapsed_s(started) > 0.5) {
      workers[0].proc.send_signal(SIGKILL);
      killed = true;
    }
    for (int i = 0; i < static_cast<int>(workers.size()); ++i) {
      if (workers[i].proc.spawned() && workers[i].proc.poll() &&
          trial.workers_respawned < max_respawns) {
        workers[static_cast<std::size_t>(i)] = spawn_worker(
            feastc, dir, port, i, generation++, /*fault_spec=*/"");
        ++trial.workers_respawned;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  trial.submit_exit = submit.status().kind == supervise::ExitStatus::Kind::Exited
                          ? submit.status().exit_code
                          : -1;
  teardown(workers);

  const std::string spec_hash = hash_hex(fnv1a64(spec.canonical_text()));
  const std::string manifest_path =
      (dir / "serve-work" / (spec_hash + ".manifest.json")).string();
  try {
    const Manifest manifest = read_manifest_file(manifest_path);
    trial.quarantined = manifest.quarantined;
    if (family.poison) {
      // The poisoned cell must be quarantined (bounded worker deaths, never
      // retried forever) and submit must report the degraded campaign.
      trial.match = trial.quarantined >= 1 && trial.submit_exit == 3;
      if (!trial.match) {
        trial.error = "poison family: quarantined=" +
                      std::to_string(trial.quarantined) + " submit exit " +
                      std::to_string(trial.submit_exit) +
                      " (want >=1 and exit 3; logs in " + dir.string() + ")";
        return;
      }
    } else {
      if (trial.submit_exit != 0) {
        trial.error = "submit exited " + std::to_string(trial.submit_exit) +
                      " (family " + family.name + ", logs in " + dir.string() +
                      ")";
        return;
      }
      trial.match = detail::matches_baseline(trial_dir, manifest);
      if (!trial.match) {
        trial.error = "distributed results differ from the baseline (family " +
                      family.name + ", manifests in " + dir.string() + ")";
      }
    }
  } catch (const std::exception& e) {
    trial.error = std::string("manifest comparison failed: ") + e.what();
  }
}

}  // namespace

ChaosResult run_chaos(const ChaosOptions& options) {
  ChaosResult result;
  if (options.workers < 1) {
    ChaosTrial trial;
    trial.error = "chaos: workers < 1";
    result.trials.push_back(std::move(trial));
    return result;
  }
  result.trials = detail::run_trials<ChaosTrial>(
      options, run_trial,
      [](const ChaosTrial& trial) {
        return " family " + trial.family +
               (trial.fault_spec.empty() ? "" : " fault " + trial.fault_spec) +
               (trial.workers_respawned > 0
                    ? " respawned " + std::to_string(trial.workers_respawned)
                    : "");
      });
  return result;
}

}  // namespace feast::check
