/// \file perf_faults.cpp
/// \brief Overhead gate for the fault-injection sites.
///
/// The injection sites in the campaign pool, the cell cache and the
/// manifest writer are compiled in permanently (check/fault.hpp), exactly
/// like the scheduler's obs instrumentation — so the production
/// configuration, *no plan installed*, must cost one relaxed atomic load
/// and a branch.  This bench times check::fire() per call in three
/// configurations: no plan, an installed plan with no rule for the site,
/// and an installed plan armed at an occurrence that never arrives.  Gate
/// with --max-ns to fail the build when a "cheap" refactor makes the
/// disabled path take real time; a malformed --max-ns exits 2 with the
/// usage rather than turning the gate off.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "check/fault.hpp"
#include "util/flags.hpp"

namespace {

using namespace feast;

constexpr std::uint64_t kIterations = 20'000'000;

/// ns per fire() call under the currently installed plan.
double time_fire_ns() {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t armed = 0;
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    if (check::fire(check::FaultSite::PoolTask)) ++armed;
  }
  const auto stop = std::chrono::steady_clock::now();
  if (armed != 0) std::abort();  // Plans in this bench must never fire.
  const double ns =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count());
  return ns / static_cast<double>(kIterations);
}

}  // namespace

int main(int argc, char** argv) {
  double max_ns = 0.0;  // 0: report only.
  Flags flags;
  flags.number("--max-ns", "N", "fail when a disabled fire() costs more (default 0 = off)",
               max_ns, Bound::non_negative());
  try {
    flags.parse(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const UsageError& e) {
    std::cerr << "perf_faults: " << e.what() << "\nusage: perf_faults [options]\n";
    std::vector<Flags::HelpLine> lines;
    flags.help(lines, 24);
    for (const Flags::HelpLine& line : lines) std::cerr << line.text << "\n";
    return 2;
  }

  const double disabled_ns = time_fire_ns();

  check::FaultPlan unrelated("cache-store:1:throw");
  double unrelated_ns = 0.0;
  {
    check::ScopedFaultPlan scope(&unrelated);
    unrelated_ns = time_fire_ns();
  }

  // Armed for this site, but at an occurrence beyond the loop: the worst
  // counted-but-never-firing case (rule scan on every call).
  check::FaultPlan distant("pool-task:999999999999:die");
  double distant_ns = 0.0;
  {
    check::ScopedFaultPlan scope(&distant);
    distant_ns = time_fire_ns();
  }

  std::cout << "fire() per call, " << kIterations << " iterations:\n";
  std::cout << "  no plan installed:   " << disabled_ns << " ns\n";
  std::cout << "  plan, other site:    " << unrelated_ns << " ns\n";
  std::cout << "  plan, distant nth:   " << distant_ns << " ns\n";

  if (max_ns > 0.0 && disabled_ns > max_ns) {
    std::cerr << "FAIL: disabled fire() costs " << disabled_ns << " ns > --max-ns "
              << max_ns << "\n";
    return 1;
  }
  return 0;
}
