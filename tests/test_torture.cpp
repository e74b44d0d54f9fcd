/// \file test_torture.cpp
/// \brief Crash-resume torture: a campaign killed at an injected fault and
///        resumed must produce byte-identical results.
///
/// Drives check::run_torture against the real feastc binary (path baked in
/// by CMake as FEAST_FEASTC_PATH).  Seven trials rotate through every fault
/// family — worker death in the pool, death mid-cache-write, death before
/// the manifest rename, a torn manifest, a truncated cache record, and the
/// supervised runner dying at a worker spawn or a harvest inside its
/// WorkerPool.  Each trial asserts the faulted run actually died with
/// check::kFaultExitCode and that the resumed manifest fingerprint equals an
/// uninterrupted baseline's.  A two-trial chaos run covers the networked
/// fabric the same way.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>

#include "check/chaos.hpp"
#include "check/fault.hpp"
#include "check/torture.hpp"

namespace feast::check {
namespace {

TEST(Torture, KilledCampaignsResumeToIdenticalResults) {
  TortureOptions options;
  options.trials = 7;  // One trial per fault family.
  options.seed = 42;
  options.feastc_path = FEAST_FEASTC_PATH;
  options.work_dir = (std::filesystem::temp_directory_path() /
                      ("feast-torture-test-" + std::to_string(::getpid())))
                         .string();
  std::ostringstream log;
  options.log = &log;

  const TortureResult result = run_torture(options);
  ASSERT_EQ(result.trials.size(), 7u);
  for (const TortureTrial& trial : result.trials) {
    EXPECT_TRUE(trial.killed) << trial.error << "\n" << log.str();
    EXPECT_TRUE(trial.match) << trial.error << "\n" << log.str();
    EXPECT_TRUE(trial.ok()) << trial.error << "\n" << log.str();
  }
  // The three families hit three distinct injection sites.
  EXPECT_NE(result.trials[0].fault_spec.find("pool-task"), std::string::npos);
  EXPECT_NE(result.trials[1].fault_spec.find("cache-store"), std::string::npos);
  EXPECT_NE(result.trials[2].fault_spec.find("manifest-write"), std::string::npos);
  // The last two families kill the supervisor inside its worker pool.
  EXPECT_TRUE(result.trials[5].supervised);
  EXPECT_NE(result.trials[5].fault_spec.find("supervise-spawn"), std::string::npos);
  EXPECT_TRUE(result.trials[6].supervised);
  EXPECT_NE(result.trials[6].fault_spec.find("supervise-heartbeat"),
            std::string::npos);
}

TEST(Chaos, CleanAndWorkerKillFamiliesMatchTheBaseline) {
  ChaosOptions options;
  options.trials = 2;  // Families 0..1: clean, worker-kill.
  options.seed = 42;
  options.feastc_path = FEAST_FEASTC_PATH;
  options.work_dir = (std::filesystem::temp_directory_path() /
                      ("feast-chaos-test-" + std::to_string(::getpid())))
                         .string();
  std::ostringstream log;
  options.log = &log;

  const ChaosResult result = run_chaos(options);
  ASSERT_EQ(result.trials.size(), 2u);
  for (const ChaosTrial& trial : result.trials) {
    EXPECT_TRUE(trial.ok()) << trial.error << "\n" << log.str();
    EXPECT_EQ(trial.submit_exit, 0) << log.str();
  }
  EXPECT_EQ(result.trials[0].family, "clean");
  EXPECT_EQ(result.trials[1].family, "worker-kill");
}

TEST(Torture, UnresolvableBinaryFailsLoudly) {
  TortureOptions options;
  options.trials = 1;
  options.feastc_path = "/nonexistent/feastc";
  options.work_dir = (std::filesystem::temp_directory_path() /
                      ("feast-torture-bad-" + std::to_string(::getpid())))
                         .string();
  const TortureResult result = run_torture(options);
  EXPECT_FALSE(result.ok());
  ASSERT_FALSE(result.trials.empty());
  EXPECT_FALSE(result.trials.front().error.empty());
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
}

}  // namespace
}  // namespace feast::check
