#include "support/traversal.hpp"

#include <deque>

namespace cohls::graph {

std::optional<std::vector<NodeIndex>> topological_sort(const Digraph& g) {
  std::vector<std::size_t> in_degree(g.node_count(), 0);
  for (NodeIndex n = 0; n < g.node_count(); ++n) {
    in_degree[n] = g.predecessors(n).size();
  }
  std::deque<NodeIndex> ready;
  for (NodeIndex n = 0; n < g.node_count(); ++n) {
    if (in_degree[n] == 0) {
      ready.push_back(n);
    }
  }
  std::vector<NodeIndex> order;
  order.reserve(g.node_count());
  while (!ready.empty()) {
    const NodeIndex n = ready.front();
    ready.pop_front();
    order.push_back(n);
    for (const NodeIndex s : g.successors(n)) {
      if (--in_degree[s] == 0) {
        ready.push_back(s);
      }
    }
  }
  if (order.size() != g.node_count()) {
    return std::nullopt;
  }
  return order;
}

bool has_cycle(const Digraph& g) { return !topological_sort(g).has_value(); }

namespace {
enum class Direction { Forward, Backward };

std::vector<bool> reach_mask(const Digraph& g, NodeIndex start, Direction dir) {
  COHLS_EXPECT(start < g.node_count(), "start node out of range");
  std::vector<bool> seen(g.node_count(), false);
  std::vector<NodeIndex> stack{start};
  std::vector<bool> visited(g.node_count(), false);
  visited[start] = true;
  while (!stack.empty()) {
    const NodeIndex n = stack.back();
    stack.pop_back();
    const auto& next = dir == Direction::Forward ? g.successors(n) : g.predecessors(n);
    for (const NodeIndex m : next) {
      if (!visited[m]) {
        visited[m] = true;
        seen[m] = true;
        stack.push_back(m);
      }
    }
  }
  return seen;
}

std::vector<NodeIndex> mask_to_list(const std::vector<bool>& mask) {
  std::vector<NodeIndex> nodes;
  for (NodeIndex n = 0; n < mask.size(); ++n) {
    if (mask[n]) {
      nodes.push_back(n);
    }
  }
  return nodes;
}
}  // namespace

std::vector<bool> descendant_mask(const Digraph& g, NodeIndex start) {
  return reach_mask(g, start, Direction::Forward);
}

std::vector<bool> ancestor_mask(const Digraph& g, NodeIndex start) {
  return reach_mask(g, start, Direction::Backward);
}

std::vector<NodeIndex> descendants(const Digraph& g, NodeIndex start) {
  return mask_to_list(descendant_mask(g, start));
}

std::vector<NodeIndex> ancestors(const Digraph& g, NodeIndex start) {
  return mask_to_list(ancestor_mask(g, start));
}

}  // namespace cohls::graph

namespace cohls::oracles {

graph::Digraph dependency_graph(const model::Assay& assay) {
  graph::Digraph g(static_cast<std::size_t>(assay.operation_count()));
  for (const model::Operation& op : assay.operations()) {
    for (const OperationId parent : op.parents()) {
      g.add_edge(parent.index(), op.id().index());
    }
  }
  return g;
}

}  // namespace cohls::oracles
