// A small adjacency-list directed graph for the test-only references: the
// layering oracle and the acyclicity checks build an assay's dependency graph
// on it (oracles::dependency_graph). The library walks Operation::parents() and
// Assay::children() instead.
#pragma once

#include <cstddef>
#include <vector>

#include "util/check.hpp"

namespace cohls::graph {

using NodeIndex = std::size_t;

/// Directed graph over nodes 0..node_count()-1 with parallel-edge support.
class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(std::size_t node_count)
      : successors_(node_count), predecessors_(node_count) {}

  [[nodiscard]] std::size_t node_count() const { return successors_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

  /// Makes room for `nodes` nodes without moving their edge lists later.
  void reserve(std::size_t nodes) {
    successors_.reserve(nodes);
    predecessors_.reserve(nodes);
  }

  /// Appends a fresh node and returns its index.
  NodeIndex add_node();

  /// Adds the directed edge from -> to. Both endpoints must exist.
  void add_edge(NodeIndex from, NodeIndex to);

  [[nodiscard]] const std::vector<NodeIndex>& successors(NodeIndex n) const {
    COHLS_EXPECT(n < node_count(), "node index out of range");
    return successors_[n];
  }
  [[nodiscard]] const std::vector<NodeIndex>& predecessors(NodeIndex n) const {
    COHLS_EXPECT(n < node_count(), "node index out of range");
    return predecessors_[n];
  }

  [[nodiscard]] bool has_edge(NodeIndex from, NodeIndex to) const;

 private:
  std::vector<std::vector<NodeIndex>> successors_;
  std::vector<std::vector<NodeIndex>> predecessors_;
  std::size_t edge_count_ = 0;
};

}  // namespace cohls::graph
