#include "check/trial.hpp"

#include <fstream>

namespace feast::check::detail {

namespace fs = std::filesystem;

fs::path trial_path(const std::string& work_dir, int index) {
  return fs::path(work_dir) / ("trial-" + std::to_string(index));
}

supervise::ExitStatus run_feastc(const std::vector<std::string>& argv,
                                 const fs::path& log_path, double timeout_s,
                                 std::string& outcome) {
  supervise::SubprocessOptions options;
  options.stdout_path = log_path.string();
  options.stderr_path = "+stdout";
  std::string spawn_error;
  const supervise::ExitStatus status =
      supervise::run_command(argv, options, timeout_s, &spawn_error);
  outcome = status.kind == supervise::ExitStatus::Kind::None ? spawn_error
                                                             : status.describe();
  return status;
}

std::string prepare_trial(const std::string& work_dir, int index,
                          const CampaignSpec& spec, const std::string& feastc,
                          double timeout_s, TrialDir& trial) {
  trial.dir = trial_path(work_dir, index);
  trial.spec_path = trial.dir / "campaign.spec";
  trial.baseline_manifest = trial.dir / "baseline.manifest.json";
  std::error_code ec;
  fs::remove_all(trial.dir, ec);
  fs::create_directories(trial.dir);
  {
    std::ofstream out(trial.spec_path);
    if (!out) return "cannot write " + trial.spec_path.string();
    out << spec.canonical_text();
  }
  // The plain in-process runner on a fresh cache: its fingerprint is the
  // ground truth every faulted, supervised or networked run must reproduce.
  std::string outcome;
  const supervise::ExitStatus status =
      run_feastc({feastc, "campaign", "run", trial.spec_path.string(), "--manifest",
                  trial.baseline_manifest.string(), "--cache-dir",
                  (trial.dir / "cache-base").string(), "--threads", "2", "--quiet"},
                 trial.dir / "baseline.log", timeout_s, outcome);
  return status.success() ? "" : "baseline run: " + outcome;
}

bool matches_baseline(const TrialDir& trial, const Manifest& manifest) {
  return manifest_fingerprint(manifest) ==
         manifest_fingerprint(read_manifest_file(trial.baseline_manifest.string()));
}

}  // namespace feast::check::detail
