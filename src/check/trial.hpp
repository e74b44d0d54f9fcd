/// \file trial.hpp
/// \brief The trial scaffold the torture and chaos drivers share (internal).
///
/// Both drivers run numbered trials of a seeded random campaign against an
/// uninterrupted baseline: a fresh per-trial directory, the spec written
/// into it, a plain in-process `feastc campaign run` as ground truth, a
/// manifest_fingerprint comparison at the end, and an outer loop that logs
/// one line per trial and removes the scratch of every trial that passed.
#pragma once

#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "check/gen.hpp"
#include "supervise/subprocess.hpp"
#include "util/rng.hpp"

namespace feast::check::detail {

/// One trial's scratch directory and what prepare_trial put in it.
struct TrialDir {
  std::filesystem::path dir;                ///< <work_dir>/trial-<index>
  std::filesystem::path spec_path;          ///< <dir>/campaign.spec
  std::filesystem::path baseline_manifest;  ///< <dir>/baseline.manifest.json
};

std::filesystem::path trial_path(const std::string& work_dir, int index);

/// Runs one feastc subprocess (argv, no shell) with stdout and stderr in
/// \p log_path, under a defensive wall-clock deadline.  \p outcome gets the
/// decoded status ("exit 0", "signal 11 (...)"), or the spawn error when it
/// never ran.
supervise::ExitStatus run_feastc(const std::vector<std::string>& argv,
                                 const std::filesystem::path& log_path,
                                 double timeout_s, std::string& outcome);

/// Recreates trial \p index's directory under \p work_dir, writes \p spec
/// into it and runs the baseline.  Returns "" or what went wrong.
std::string prepare_trial(const std::string& work_dir, int index,
                          const CampaignSpec& spec, const std::string& feastc,
                          double timeout_s, TrialDir& trial);

/// True when \p manifest's fingerprint equals the baseline's.  Throws when
/// the baseline manifest cannot be read.
bool matches_baseline(const TrialDir& trial, const Manifest& manifest);

/// Runs options.trials trials.  Trial i gets seed_for(options.seed, {i}) and
/// a random campaign spec drawn from it; \p run_one(options, trial, rng,
/// spec, feastc, i) does the rest.  Each trial is logged as "trial i/N seed S cells
/// C<detail(trial)>: ok|<error>".  A passing trial's directory is removed,
/// and the whole work dir once all passed (unless options.keep_work_dir).
/// feastc defaults to this executable.
template <class Trial, class Options, class RunOne, class Detail>
std::vector<Trial> run_trials(const Options& options, RunOne run_one,
                              Detail detail) {
  const std::string feastc = options.feastc_path.empty()
                                 ? supervise::self_exe_path()
                                 : options.feastc_path;
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  std::vector<Trial> trials;
  bool all_ok = true;
  for (int t = 0; t < options.trials; ++t) {
    Trial trial;
    trial.seed = seed_for(options.seed, {static_cast<std::uint64_t>(t)});
    Pcg32 rng(trial.seed);
    const CampaignSpec spec = gen_campaign_spec(rng);
    trial.cells = spec.cell_count();
    run_one(options, trial, rng, spec, feastc, t);
    if (options.log != nullptr) {
      *options.log << "trial " << (t + 1) << "/" << options.trials << " seed "
                   << trial.seed << " cells " << trial.cells << detail(trial)
                   << ": " << (trial.ok() ? "ok" : trial.error) << std::endl;
    }
    all_ok = all_ok && trial.ok();
    if (trial.ok() && !options.keep_work_dir) {
      std::filesystem::remove_all(trial_path(options.work_dir, t), ec);
    }
    trials.push_back(std::move(trial));
  }
  if (all_ok && !options.keep_work_dir) {
    std::filesystem::remove_all(options.work_dir, ec);
  }
  return trials;
}

}  // namespace feast::check::detail
