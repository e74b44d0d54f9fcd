#include "check/torture.hpp"

#include <filesystem>

#include "campaign/campaign.hpp"
#include "check/fault.hpp"
#include "check/trial.hpp"
#include "util/rng.hpp"

namespace feast::check {

namespace {

namespace fs = std::filesystem;

/// The fault armed for one trial family over a campaign of \p cells cells,
/// and whether the faulted+resumed runs go through the supervised runner
/// (--isolate=process).  Every returned plan is guaranteed to fire (and
/// kill) within the faulted run.
struct TrialFault {
  std::string spec;
  bool supervised = false;
};

TrialFault fault_for(int family, std::size_t cells, Pcg32& rng) {
  const auto nth = [&](std::size_t upper) {
    return std::to_string(1 + rng.uniform_index(upper));
  };
  switch (family % 7) {
    case 0:
      // Worker dies at the start of a cell task.
      return {"pool-task:" + nth(cells) + ":die"};
    case 1:
      // Killed mid-record-write: torn cache temporary, no renamed record.
      return {"cache-store:" + nth(cells) + ":die"};
    case 2:
      // Killed between the manifest tmp write and its rename: the
      // checkpoint on disk goes stale.  cells + 1 occurrences are
      // guaranteed (initial + one per cell).
      return {"manifest-write:" + nth(cells + 1) + ":die"};
    case 3: {
      // A torn manifest published in place, then death on the next
      // checkpoint: resume faces unparseable JSON and must start over.
      const std::size_t k = 1 + rng.uniform_index(cells);
      return {"manifest-write:" + std::to_string(k) +
              ":partial-write,manifest-write:" + std::to_string(k + 1) + ":die"};
    }
    case 4: {
      if (cells < 2) return {"cache-store:1:die"};
      // A truncated record persisted into the cache, then death at a later
      // cell: resume must read the corrupt record as a miss and recompute.
      const std::size_t k = 2 + rng.uniform_index(cells - 1);
      return {"cache-store:1:truncate,pool-task:" + std::to_string(k) + ":die"};
    }
    case 5:
      // Supervisor dies while spawning a worker (at least one spawn per
      // pending cell is guaranteed).
      return {"supervise-spawn:" + nth(cells) + ":die", true};
    default:
      // Supervisor dies mid-harvest, after the worker finished but before
      // its shard was merged (one heartbeat-harvest per attempt).
      return {"supervise-heartbeat:" + nth(cells) + ":die", true};
  }
}

void run_trial(const TortureOptions& options, TortureTrial& trial, Pcg32& rng,
               const CampaignSpec& spec, const std::string& feastc, int index) {
  const TrialFault fault = fault_for(index, trial.cells, rng);
  trial.fault_spec = fault.spec;
  trial.supervised = fault.supervised;

  const double timeout_s = options.subprocess_timeout_s;
  detail::TrialDir dir;
  trial.error =
      detail::prepare_trial(options.work_dir, index, spec, feastc, timeout_s, dir);
  if (!trial.error.empty()) return;

  const fs::path torture_manifest = dir.dir / "torture.manifest.json";
  std::vector<std::string> torture_args = {
      dir.spec_path.string(), "--manifest",  torture_manifest.string(),
      "--cache-dir",          (dir.dir / "cache").string(),
      "--threads",            "2",
      "--quiet"};
  if (fault.supervised) {
    torture_args.emplace_back("--isolate=process");
    torture_args.emplace_back("--workers");
    torture_args.emplace_back("2");
  }

  std::vector<std::string> faulted_argv = {feastc, "campaign", "run"};
  faulted_argv.insert(faulted_argv.end(), torture_args.begin(), torture_args.end());
  faulted_argv.emplace_back("--faults");
  faulted_argv.push_back(trial.fault_spec);
  std::string outcome;
  const supervise::ExitStatus faulted = detail::run_feastc(
      faulted_argv, dir.dir / "faulted.log", timeout_s, outcome);
  trial.killed = faulted.exited(kFaultExitCode) && !faulted.timed_out;
  if (!trial.killed) {
    trial.error = "faulted run finished with " + outcome +
                  " instead of dying with exit " + std::to_string(kFaultExitCode) +
                  " (fault " + trial.fault_spec + ")";
    return;
  }

  std::vector<std::string> resumed_argv = {feastc, "campaign", "resume"};
  resumed_argv.insert(resumed_argv.end(), torture_args.begin(), torture_args.end());
  if (!detail::run_feastc(resumed_argv, dir.dir / "resumed.log", timeout_s, outcome)
           .success()) {
    trial.error = "resumed run: " + outcome;
    return;
  }

  try {
    trial.match = detail::matches_baseline(
        dir, read_manifest_file(torture_manifest.string()));
    if (!trial.match) {
      trial.error = "resumed results differ from the uninterrupted run (fault " +
                    trial.fault_spec + ", manifests in " + dir.dir.string() + ")";
    }
  } catch (const std::exception& e) {
    trial.error = std::string("manifest comparison failed: ") + e.what();
  }
}

}  // namespace

TortureResult run_torture(const TortureOptions& options) {
  TortureResult result;
  result.trials = detail::run_trials<TortureTrial>(
      options, run_trial,
      [](const TortureTrial& trial) {
        return " fault " + trial.fault_spec +
               (trial.supervised ? " (supervised)" : "");
      });
  return result;
}

}  // namespace feast::check
