#include "taskgraph/shapes.hpp"

#include <string>
#include <vector>

namespace feast {

namespace {

/// Shared RNG-driven attribute sampling for the structured families.
class ShapeBuilder {
 public:
  ShapeBuilder(const ShapeConfig& config, Pcg32& rng) : config_(config), rng_(&rng) {
    FEAST_REQUIRE(config.mean_exec_time > 0.0);
    FEAST_REQUIRE(config.exec_spread >= 0.0 && config.exec_spread < 1.0);
    FEAST_REQUIRE(config.ccr >= 0.0);
    FEAST_REQUIRE(config.message_spread >= 0.0 && config.message_spread <= 1.0);
  }

  NodeId add(TaskGraph& graph, const std::string& name) {
    const Time lo = config_.mean_exec_time * (1.0 - config_.exec_spread);
    const Time hi = config_.mean_exec_time * (1.0 + config_.exec_spread);
    return graph.add_subtask(name, rng_->uniform_real(lo, hi));
  }

  void connect(TaskGraph& graph, NodeId from, NodeId to) {
    const double mean_items = config_.ccr * config_.mean_exec_time;
    double items = 0.0;
    if (mean_items > 0.0) {
      items = rng_->uniform_real(mean_items * (1.0 - config_.message_spread),
                                 mean_items * (1.0 + config_.message_spread));
    }
    graph.add_precedence(from, to, items);
  }

  void finish(TaskGraph& graph) const {
    set_olr_boundaries(graph, config_.olr, config_.olr_basis);
  }

 private:
  ShapeConfig config_;
  Pcg32* rng_;
};

/// Number of nodes on tree level k (0 = widest level of an in-tree).
int tree_level_width(int depth, int branching, int level) {
  int width = 1;
  for (int i = 0; i < depth - 1 - level; ++i) width *= branching;
  return width;
}

}  // namespace

TaskGraph make_chain(int length, const ShapeConfig& config, Pcg32& rng) {
  FEAST_REQUIRE(length >= 1);
  ShapeBuilder b(config, rng);
  TaskGraph graph;
  NodeId prev;
  for (int i = 0; i < length; ++i) {
    const NodeId cur = b.add(graph, "c" + std::to_string(i));
    if (prev.valid()) b.connect(graph, prev, cur);
    prev = cur;
  }
  b.finish(graph);
  return graph;
}

TaskGraph make_in_tree(int depth, int branching, const ShapeConfig& config, Pcg32& rng) {
  FEAST_REQUIRE(depth >= 1);
  FEAST_REQUIRE(branching >= 1);
  ShapeBuilder b(config, rng);
  TaskGraph graph;
  std::vector<NodeId> prev_level;
  for (int lvl = 0; lvl < depth; ++lvl) {
    const int width = tree_level_width(depth, branching, lvl);
    std::vector<NodeId> level;
    level.reserve(static_cast<std::size_t>(width));
    for (int k = 0; k < width; ++k) {
      level.push_back(b.add(graph, "n" + std::to_string(lvl) + "_" + std::to_string(k)));
    }
    // Children lvl-1 merge in groups of `branching` into each parent.
    for (std::size_t i = 0; i < prev_level.size(); ++i) {
      b.connect(graph, prev_level[i], level[i / static_cast<std::size_t>(branching)]);
    }
    prev_level = std::move(level);
  }
  b.finish(graph);
  return graph;
}

TaskGraph make_out_tree(int depth, int branching, const ShapeConfig& config, Pcg32& rng) {
  FEAST_REQUIRE(depth >= 1);
  FEAST_REQUIRE(branching >= 1);
  ShapeBuilder b(config, rng);
  TaskGraph graph;
  std::vector<NodeId> prev_level;
  for (int lvl = 0; lvl < depth; ++lvl) {
    // Mirror image of the in-tree: level 0 has one node.
    const int width = tree_level_width(depth, branching, depth - 1 - lvl);
    std::vector<NodeId> level;
    level.reserve(static_cast<std::size_t>(width));
    for (int k = 0; k < width; ++k) {
      level.push_back(b.add(graph, "n" + std::to_string(lvl) + "_" + std::to_string(k)));
    }
    for (std::size_t i = 0; i < level.size(); ++i) {
      if (!prev_level.empty()) {
        b.connect(graph, prev_level[i / static_cast<std::size_t>(branching)], level[i]);
      }
    }
    prev_level = std::move(level);
  }
  b.finish(graph);
  return graph;
}

TaskGraph make_fork_join(int stages, int width, int branch_length,
                         const ShapeConfig& config, Pcg32& rng) {
  FEAST_REQUIRE(stages >= 1);
  FEAST_REQUIRE(width >= 1);
  FEAST_REQUIRE(branch_length >= 1);
  ShapeBuilder b(config, rng);
  TaskGraph graph;
  NodeId join;  // sink of the previous stage
  for (int s = 0; s < stages; ++s) {
    const std::string tag = "s" + std::to_string(s);
    const NodeId fork = b.add(graph, tag + "_fork");
    if (join.valid()) b.connect(graph, join, fork);
    join = b.add(graph, tag + "_join");
    for (int w = 0; w < width; ++w) {
      NodeId prev = fork;
      for (int k = 0; k < branch_length; ++k) {
        const NodeId cur =
            b.add(graph, tag + "_b" + std::to_string(w) + "_" + std::to_string(k));
        b.connect(graph, prev, cur);
        prev = cur;
      }
      b.connect(graph, prev, join);
    }
  }
  b.finish(graph);
  return graph;
}

TaskGraph make_diamond(int width, const ShapeConfig& config, Pcg32& rng) {
  return make_fork_join(1, width, 1, config, rng);
}

}  // namespace feast
