// Traversal algorithms over Digraph: topological ordering (dependency graphs
// must be acyclic), and ancestor / descendant cones, which the layering
// oracle uses to evict the descendants of indeterminate operations and to
// build eviction flow networks; plus an assay's dependency digraph.
#pragma once

#include <optional>
#include <vector>

#include "model/assay.hpp"
#include "support/digraph.hpp"

namespace cohls::graph {

/// Kahn topological sort. Returns std::nullopt when the graph has a cycle.
[[nodiscard]] std::optional<std::vector<NodeIndex>> topological_sort(const Digraph& g);

/// True when the graph contains a directed cycle.
[[nodiscard]] bool has_cycle(const Digraph& g);

/// All nodes reachable from `start` via successor edges, excluding `start`.
[[nodiscard]] std::vector<NodeIndex> descendants(const Digraph& g, NodeIndex start);

/// All nodes that reach `start` via successor edges, excluding `start`.
[[nodiscard]] std::vector<NodeIndex> ancestors(const Digraph& g, NodeIndex start);

/// Membership mask of `descendants` (resp. `ancestors`) for bulk queries:
/// result[n] is true iff n is reachable from (reaches) `start`.
[[nodiscard]] std::vector<bool> descendant_mask(const Digraph& g, NodeIndex start);
[[nodiscard]] std::vector<bool> ancestor_mask(const Digraph& g, NodeIndex start);

}  // namespace cohls::graph

namespace cohls::oracles {

/// The assay's dependency digraph: node i == operation id i, one edge
/// parent->child per parent entry, successors in the order of
/// Assay::children().
[[nodiscard]] graph::Digraph dependency_graph(const model::Assay& assay);

}  // namespace cohls::oracles
