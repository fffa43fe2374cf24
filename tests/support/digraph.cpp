#include "support/digraph.hpp"

#include <algorithm>

namespace cohls::graph {

NodeIndex Digraph::add_node() {
  successors_.emplace_back();
  predecessors_.emplace_back();
  return successors_.size() - 1;
}

void Digraph::add_edge(NodeIndex from, NodeIndex to) {
  COHLS_EXPECT(from < node_count() && to < node_count(), "edge endpoint out of range");
  successors_[from].push_back(to);
  predecessors_[to].push_back(from);
  ++edge_count_;
}

bool Digraph::has_edge(NodeIndex from, NodeIndex to) const {
  COHLS_EXPECT(from < node_count() && to < node_count(), "edge endpoint out of range");
  const auto& succ = successors_[from];
  return std::find(succ.begin(), succ.end(), to) != succ.end();
}

}  // namespace cohls::graph
