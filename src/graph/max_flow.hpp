// Maximum flow / minimum s-t cut. The paper's resource-based layer
// allocation formulates the cost of evicting an indeterminate operation as a
// minimum cut over its ancestor cone and "implement[s the] min-cut algorithm
// based on the Ford-Fulkerson algorithm". We use the Edmonds–Karp
// realisation of Ford–Fulkerson (BFS augmenting paths), which is exact and
// polynomial.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace cohls::graph {

/// A flow network with integer capacities. Nodes are indexed 0..n-1. The
/// arcs live in one flat array (arc `2h` is handle `h`, arc `2h + 1` its
/// residual reverse) with per-node linked adjacency, and the search buffers
/// are members: after `reset`, building and cutting a network of no more
/// nodes and arcs than before allocates nothing.
class FlowNetwork {
 public:
  FlowNetwork() = default;
  explicit FlowNetwork(std::size_t node_count) { reset(node_count); }

  /// Drops every arc and resizes to `node_count` nodes, keeping capacity.
  void reset(std::size_t node_count);

  [[nodiscard]] std::size_t node_count() const { return head_.size(); }

  /// Adds a directed arc with the given capacity; returns an arc handle that
  /// can be used to query flow after solving. Capacity must be >= 0.
  std::size_t add_arc(std::size_t from, std::size_t to, std::int64_t capacity);

  /// Large capacity used to make an arc effectively uncuttable.
  static constexpr std::int64_t kInfinite = INT64_C(1) << 50;

  struct ArcInfo {
    std::size_t from;
    std::size_t to;
    std::int64_t capacity;
    std::int64_t flow;
  };
  [[nodiscard]] ArcInfo arc(std::size_t handle) const;

  struct CutResult {
    std::int64_t value = 0;             ///< max-flow == min-cut value
    std::vector<bool> source_side;      ///< nodes residual-reachable from s
    /// Nodes that still reach the sink in the residual graph. Its
    /// complement is the *largest* source side among minimum cuts, i.e. the
    /// cut with the fewest sink-side vertices — the layering algorithm's
    /// tie-break ("c2 puts fewer vertices to the sink side than c1").
    std::vector<bool> sink_side;
    std::vector<std::size_t> cut_arcs;  ///< saturated crossing arcs (source-side cut)
  };

  /// Runs Edmonds–Karp from `source` to `sink`; returns the cut. Both
  /// canonical minimum cuts are reported: `source_side` describes the cut
  /// closest to the source, `sink_side` the cut closest to the sink. Both
  /// are unique, so they do not depend on the order the arcs were added.
  /// The result is held by the network and stays valid until the next
  /// `min_cut` or `reset`.
  const CutResult& min_cut(std::size_t source, std::size_t sink);

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  struct Arc {
    std::size_t to;
    std::size_t next;       ///< next arc out of the same node, or kNone
    std::int64_t capacity;  ///< residual capacity
  };

  std::int64_t bfs_augment(std::size_t source, std::size_t sink);

  std::vector<std::size_t> head_;  // per-node first arc, or kNone
  std::vector<Arc> arcs_;
  std::vector<std::size_t> parent_arc_;  // BFS: arc that discovered each node
  std::vector<std::size_t> queue_;       // BFS queue and side-search stack
  CutResult cut_;
};

}  // namespace cohls::graph
