/// \file perf_algorithms.cpp
/// \brief Google-benchmark microbenchmarks of the core algorithms: how
///        distribution (the exact hop-indexed DP; docs/ALGORITHM.md records
///        the fits against §8's O(n^3) claim) and the list scheduler grow
///        with the number of subtasks n.
///
/// Run with --benchmark_filter=... as usual; the asymptotic fit is printed
/// by google-benchmark's complexity reporting (BigO).
#include <benchmark/benchmark.h>

#include "core/metrics.hpp"
#include "core/slicing.hpp"
#include "experiment/figures.hpp"
#include "sched/list_scheduler.hpp"
#include "taskgraph/algorithms.hpp"
#include "taskgraph/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace feast;

/// A random graph with ~n subtasks, depth scaled with sqrt(n) so both the
/// width and the path length grow with the size.
TaskGraph sized_graph(int n, std::uint64_t seed) {
  RandomGraphConfig config = paper_workload(ExecSpreadScenario::MDET);
  config.min_subtasks = n;
  config.max_subtasks = n;
  const int depth = std::max(3, static_cast<int>(std::sqrt(static_cast<double>(n)) * 1.4));
  config.min_depth = depth;
  config.max_depth = depth;
  Pcg32 rng(seed);
  return generate_random_graph(config, rng);
}

void BM_DistributePure(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const TaskGraph graph = sized_graph(n, 1);
  const auto ccne = make_ccne();
  for (auto _ : state) {
    auto metric = make_pure();
    benchmark::DoNotOptimize(distribute_deadlines(graph, *metric, *ccne));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_DistributePure)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_DistributeAdapt(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const TaskGraph graph = sized_graph(n, 2);
  const auto ccne = make_ccne();
  for (auto _ : state) {
    auto metric = make_adapt(8, 1.25);
    benchmark::DoNotOptimize(distribute_deadlines(graph, *metric, *ccne));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_DistributeAdapt)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_DistributeCcaa(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const TaskGraph graph = sized_graph(n, 3);
  const auto ccaa = make_ccaa();
  for (auto _ : state) {
    auto metric = make_pure();
    benchmark::DoNotOptimize(distribute_deadlines(graph, *metric, *ccaa));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_DistributeCcaa)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_ListSchedule(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const TaskGraph graph = sized_graph(n, 4);
  auto metric = make_pure();
  const auto ccne = make_ccne();
  const DeadlineAssignment asg = distribute_deadlines(graph, *metric, *ccne);
  Machine machine;
  machine.n_procs = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list_schedule(graph, asg, machine));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ListSchedule)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_ListScheduleSharedBus(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const TaskGraph graph = sized_graph(n, 5);
  auto metric = make_pure();
  const auto ccne = make_ccne();
  const DeadlineAssignment asg = distribute_deadlines(graph, *metric, *ccne);
  Machine machine;
  machine.n_procs = 8;
  machine.contention = CommContention::SharedBus;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list_schedule(graph, asg, machine));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ListScheduleSharedBus)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_GenerateGraph(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sized_graph(n, seed++));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_GenerateGraph)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_LongestPath(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const TaskGraph graph = sized_graph(n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(longest_path_length(graph, computation_cost));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_LongestPath)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_FullPaperRun(benchmark::State& state) {
  // One complete experiment run at the paper's workload scale: generate,
  // distribute with ADAPT, schedule on 8 processors.
  std::uint64_t seed = 100;
  const auto ccne = make_ccne();
  Machine machine;
  machine.n_procs = 8;
  for (auto _ : state) {
    Pcg32 rng(seed++);
    const TaskGraph graph =
        generate_random_graph(paper_workload(ExecSpreadScenario::MDET), rng);
    auto metric = make_adapt(8, 1.25);
    const DeadlineAssignment asg = distribute_deadlines(graph, *metric, *ccne);
    benchmark::DoNotOptimize(list_schedule(graph, asg, machine));
  }
}
BENCHMARK(BM_FullPaperRun);

}  // namespace

BENCHMARK_MAIN();
