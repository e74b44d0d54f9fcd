/// \file test_generator.cpp
/// \brief Property tests for the random task-graph generator: every graph
///        drawn across a seed sweep must satisfy the §5.2 workload
///        parameters exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string_view>

#include "taskgraph/algorithms.hpp"
#include "taskgraph/generator.hpp"
#include "taskgraph/validate.hpp"
#include "util/rng.hpp"

// Allocation counting for Generator.AllocationBudget, thread-local so that
// allocations on other threads cannot perturb a measurement.  Unaligned
// new/delete are replaced pairwise with malloc/free, the nothrow forms
// included (see test_obs.cpp).
namespace {
thread_local std::uint64_t tl_alloc_count = 0;
}  // namespace

// None is inlined: GCC would otherwise see malloc() or free() at an inlined
// site, pair it with the other side's operator and warn
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++tl_alloc_count;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return operator new(size); }
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++tl_alloc_count;
  return std::malloc(size != 0 ? size : 1);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace feast {
namespace {

class GeneratorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorProperty, PaperWorkloadInvariants) {
  RandomGraphConfig config;  // paper defaults
  Pcg32 rng(GetParam());
  const TaskGraph g = generate_random_graph(config, rng);

  // Structure and distribution readiness.
  EXPECT_TRUE(validate_for_distribution(g).ok()) << validate_for_distribution(g).to_string();

  // Node count and depth within the configured ranges.
  EXPECT_GE(static_cast<int>(g.subtask_count()), config.min_subtasks);
  EXPECT_LE(static_cast<int>(g.subtask_count()), config.max_subtasks);
  EXPECT_GE(depth(g), config.min_depth);
  EXPECT_LE(depth(g), config.max_depth);

  // Degree bounds: the sampled fan-in is 1..max_degree; only the coverage
  // pass may exceed it, at wide-to-narrow join points, so the bulk of the
  // nodes must respect the cap.  Every output carries the deadline.
  std::size_t over_cap = 0;
  for (const NodeId id : g.computation_nodes()) {
    const std::size_t in = g.preds(id).size();
    const std::size_t out = g.succs(id).size();
    if (in > static_cast<std::size_t>(config.max_degree)) ++over_cap;
    if (out == 0) {
      // Outputs must carry the end-to-end deadline.
      EXPECT_TRUE(is_set(g.node(id).boundary_deadline));
    }
  }
  EXPECT_LE(over_cap, g.subtask_count() / 5);

  // Execution times within MET(1 ± spread).
  for (const NodeId id : g.computation_nodes()) {
    EXPECT_GE(g.node(id).exec_time, config.mean_exec_time * (1.0 - config.exec_spread));
    EXPECT_LE(g.node(id).exec_time, config.mean_exec_time * (1.0 + config.exec_spread));
  }

  // Message sizes within the CCR-derived range.
  const double mean_items = config.ccr * config.mean_exec_time;
  for (const NodeId id : g.communication_nodes()) {
    EXPECT_GE(g.node(id).message_items, mean_items * (1.0 - config.message_spread));
    EXPECT_LE(g.node(id).message_items, mean_items * (1.0 + config.message_spread));
  }

  // End-to-end deadline honours the OLR against the total workload.
  const Time deadline = 1.5 * g.total_workload();
  for (const NodeId id : g.outputs()) {
    EXPECT_NEAR(g.node(id).boundary_deadline, deadline, 1e-9);
  }
  for (const NodeId id : g.inputs()) {
    EXPECT_DOUBLE_EQ(g.node(id).boundary_release, 0.0);
  }
}

TEST_P(GeneratorProperty, DeterministicInSeed) {
  RandomGraphConfig config;
  Pcg32 rng1(GetParam());
  Pcg32 rng2(GetParam());
  const TaskGraph g1 = generate_random_graph(config, rng1);
  const TaskGraph g2 = generate_random_graph(config, rng2);
  ASSERT_EQ(g1.node_count(), g2.node_count());
  for (const NodeId id : g1.all_nodes()) {
    EXPECT_EQ(g1.node(id).kind, g2.node(id).kind);
    EXPECT_DOUBLE_EQ(g1.node(id).exec_time, g2.node(id).exec_time);
    EXPECT_DOUBLE_EQ(g1.node(id).message_items, g2.node(id).message_items);
    EXPECT_TRUE(std::ranges::equal(g1.preds(id), g2.preds(id)));
    EXPECT_TRUE(std::ranges::equal(g1.succs(id), g2.succs(id)));
  }
}

TEST_P(GeneratorProperty, StrictFaninCapIsInviolable) {
  RandomGraphConfig config;
  config.strict_fanin_cap = true;
  Pcg32 rng(GetParam());
  const TaskGraph g = generate_random_graph(config, rng);
  EXPECT_TRUE(validate_for_distribution(g).ok());
  for (const NodeId id : g.computation_nodes()) {
    EXPECT_LE(g.preds(id).size(), static_cast<std::size_t>(config.max_degree));
  }
}

TEST_P(GeneratorProperty, CriticalPathBasisUsesLongestPath) {
  RandomGraphConfig config;
  config.olr_basis = OlrBasis::CriticalPath;
  Pcg32 rng(GetParam());
  const TaskGraph g = generate_random_graph(config, rng);
  const Time cp = longest_path_length(g, computation_cost);
  for (const NodeId id : g.outputs()) {
    EXPECT_NEAR(g.node(id).boundary_deadline, 1.5 * cp, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, GeneratorProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

/// FNV-1a over the exact bits of every field a generated graph carries.
class GraphHash {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void real(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void text(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

TEST(Generator, FingerprintIsStable) {
  // Pins every generated graph -- and with it the RNG draw order -- across
  // the scenarios, both OLR bases and both fan-in disciplines.  A change
  // to the graph storage or the generator must leave this value alone.
  GraphHash hash;
  for (const ExecSpreadScenario scenario :
       {ExecSpreadScenario::LDET, ExecSpreadScenario::MDET, ExecSpreadScenario::HDET}) {
    for (const OlrBasis basis : {OlrBasis::TotalWorkload, OlrBasis::CriticalPath}) {
      for (const bool strict : {false, true}) {
        RandomGraphConfig config;
        config.set_scenario(scenario);
        config.olr_basis = basis;
        config.strict_fanin_cap = strict;
        for (std::uint64_t seed = 0; seed < 1000; ++seed) {
          Pcg32 rng(seed);
          const TaskGraph g = generate_random_graph(config, rng);
          hash.u64(g.node_count());
          for (const NodeId id : g.all_nodes()) {
            const Node& n = g.node(id);
            hash.u64(static_cast<std::uint64_t>(n.kind));
            hash.real(n.exec_time);
            hash.real(n.message_items);
            hash.u64(n.pinned.value);
            hash.real(n.boundary_release);
            hash.real(n.boundary_deadline);
            hash.text(n.name);
            hash.u64(g.preds(id).size());
            for (const NodeId p : g.preds(id)) hash.u64(p.value);
            hash.u64(g.succs(id).size());
            for (const NodeId s : g.succs(id)) hash.u64(s.value);
          }
        }
      }
    }
  }
  EXPECT_EQ(hash.value(), 0x2e7f5363493d162cULL);
}

TEST(Generator, AllocationBudget) {
  // A default MDET graph has about 140 nodes.  Its arcs share one pool,
  // so building it must not cost a heap allocation per node.
  constexpr std::uint64_t kGraphs = 200;
  RandomGraphConfig config;
  std::uint64_t allocs = 0;
  for (std::uint64_t seed = 0; seed < kGraphs; ++seed) {
    Pcg32 rng(seed);
    const std::uint64_t before = tl_alloc_count;
    const TaskGraph g = generate_random_graph(config, rng);
    allocs += tl_alloc_count - before;
  }
  EXPECT_LE(allocs, 64 * kGraphs) << "allocations per graph: "
                                  << static_cast<double>(allocs) / kGraphs;
}

TEST(Generator, ScenarioSpreads) {
  EXPECT_DOUBLE_EQ(exec_spread_of(ExecSpreadScenario::LDET), 0.25);
  EXPECT_DOUBLE_EQ(exec_spread_of(ExecSpreadScenario::MDET), 0.50);
  EXPECT_DOUBLE_EQ(exec_spread_of(ExecSpreadScenario::HDET), 0.99);
  EXPECT_STREQ(to_string(ExecSpreadScenario::LDET), "LDET");
  EXPECT_STREQ(to_string(ExecSpreadScenario::MDET), "MDET");
  EXPECT_STREQ(to_string(ExecSpreadScenario::HDET), "HDET");

  RandomGraphConfig config;
  config.set_scenario(ExecSpreadScenario::HDET);
  EXPECT_DOUBLE_EQ(config.exec_spread, 0.99);
}

TEST(Generator, HdetProducesWiderSpreadThanLdet) {
  auto spread_of = [](ExecSpreadScenario scenario) {
    RandomGraphConfig config;
    config.set_scenario(scenario);
    Pcg32 rng(7);
    const TaskGraph g = generate_random_graph(config, rng);
    Time lo = kInfiniteTime;
    Time hi = 0.0;
    for (const NodeId id : g.computation_nodes()) {
      lo = std::min(lo, g.node(id).exec_time);
      hi = std::max(hi, g.node(id).exec_time);
    }
    return hi - lo;
  };
  EXPECT_GT(spread_of(ExecSpreadScenario::HDET), spread_of(ExecSpreadScenario::LDET));
}

TEST(Generator, RejectsBadConfig) {
  Pcg32 rng(1);
  RandomGraphConfig config;
  config.min_subtasks = 10;
  config.max_subtasks = 5;
  EXPECT_THROW(generate_random_graph(config, rng), ContractViolation);

  config = RandomGraphConfig{};
  config.exec_spread = 1.0;  // would allow zero execution times
  EXPECT_THROW(generate_random_graph(config, rng), ContractViolation);

  config = RandomGraphConfig{};
  config.level_width_alpha = 0.0;
  EXPECT_THROW(generate_random_graph(config, rng), ContractViolation);
}

TEST(Generator, RejectsNonPositiveOrTinyOlr) {
  // Inputs are released at 0 and every output gets D = olr x basis, so an
  // olr that leaves D within kTimeEps of 0 (or below it) empties every
  // window.  At most 20 subtasks keep 1e-12 x basis under kTimeEps.
  for (const OlrBasis basis : {OlrBasis::TotalWorkload, OlrBasis::CriticalPath}) {
    for (const double olr : {0.0, -1.0, 1e-12}) {
      RandomGraphConfig config;
      config.min_subtasks = 10;
      config.max_subtasks = 20;
      config.olr = olr;
      config.olr_basis = basis;
      Pcg32 rng(5);
      EXPECT_THROW(generate_random_graph(config, rng), ContractViolation) << olr;
    }
  }
}

TEST(Generator, SetOlrBoundaries) {
  TaskGraph g;
  const NodeId a = g.add_subtask("a", 30.0);
  const NodeId b = g.add_subtask("b", 50.0);
  const NodeId c = g.add_subtask("c", 20.0);
  g.add_precedence(a, b, 1.0);
  g.add_precedence(a, c, 1.0);

  set_olr_boundaries(g, 1.5, OlrBasis::TotalWorkload);
  EXPECT_DOUBLE_EQ(g.node(a).boundary_release, 0.0);
  EXPECT_DOUBLE_EQ(g.node(b).boundary_deadline, 150.0);  // 1.5 x 100
  EXPECT_DOUBLE_EQ(g.node(c).boundary_deadline, 150.0);
  set_olr_boundaries(g, 1.5, OlrBasis::CriticalPath);
  EXPECT_DOUBLE_EQ(g.node(b).boundary_deadline, 120.0);  // 1.5 x (30 + 50)
  EXPECT_THROW(set_olr_boundaries(g, 0.0, OlrBasis::TotalWorkload), ContractViolation);
}

TEST(Generator, SmallGraphsWork) {
  RandomGraphConfig config;
  config.min_subtasks = 3;
  config.max_subtasks = 3;
  config.min_depth = 3;
  config.max_depth = 3;
  Pcg32 rng(11);
  const TaskGraph g = generate_random_graph(config, rng);
  EXPECT_EQ(g.subtask_count(), 3u);
  EXPECT_EQ(depth(g), 3);
}

TEST(Generator, ZeroCcrMeansNoMessagePayload) {
  RandomGraphConfig config;
  config.ccr = 0.0;
  Pcg32 rng(3);
  const TaskGraph g = generate_random_graph(config, rng);
  for (const NodeId id : g.communication_nodes()) {
    EXPECT_DOUBLE_EQ(g.node(id).message_items, 0.0);
  }
}

TEST(Generator, PinRandomFraction) {
  RandomGraphConfig config;
  Pcg32 rng(5);
  TaskGraph g = generate_random_graph(config, rng);

  Pcg32 pin_rng(6);
  pin_random_fraction(g, 0.5, 4, pin_rng);
  std::size_t pinned = 0;
  for (const NodeId id : g.computation_nodes()) {
    if (g.node(id).pinned.valid()) {
      ++pinned;
      EXPECT_LT(g.node(id).pinned.index(), 4u);
    }
  }
  const auto expected =
      static_cast<std::size_t>(0.5 * static_cast<double>(g.subtask_count()) + 0.5);
  EXPECT_EQ(pinned, expected);
}

TEST(Generator, PinFractionZeroAndOne) {
  RandomGraphConfig config;
  Pcg32 rng(5);
  TaskGraph g = generate_random_graph(config, rng);
  Pcg32 pin_rng(6);
  pin_random_fraction(g, 0.0, 4, pin_rng);
  for (const NodeId id : g.computation_nodes()) {
    EXPECT_FALSE(g.node(id).pinned.valid());
  }
  pin_random_fraction(g, 1.0, 2, pin_rng);
  for (const NodeId id : g.computation_nodes()) {
    EXPECT_TRUE(g.node(id).pinned.valid());
  }
}

TEST(Generator, WidthAlphaShapesVariance) {
  // Higher alpha => more uniform level widths => smaller max width.
  auto max_width = [](double alpha) {
    RandomGraphConfig config;
    config.level_width_alpha = alpha;
    double total = 0.0;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      Pcg32 rng(seed);
      const TaskGraph g = generate_random_graph(config, rng);
      const auto level = computation_levels(g);
      std::vector<int> width(static_cast<std::size_t>(depth(g)), 0);
      for (const NodeId id : g.computation_nodes()) {
        width[static_cast<std::size_t>(level[id.index()])] += 1;
      }
      total += *std::max_element(width.begin(), width.end());
    }
    return total / 20.0;
  };
  EXPECT_GT(max_width(1.0), max_width(50.0));
}

}  // namespace
}  // namespace feast
