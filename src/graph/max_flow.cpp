#include "graph/max_flow.hpp"

#include <algorithm>
#include <limits>

namespace cohls::graph {

void FlowNetwork::reset(std::size_t node_count) {
  head_.assign(node_count, kNone);
  arcs_.clear();
}

std::size_t FlowNetwork::add_arc(std::size_t from, std::size_t to, std::int64_t capacity) {
  COHLS_EXPECT(from < node_count() && to < node_count(), "arc endpoint out of range");
  COHLS_EXPECT(capacity >= 0, "arc capacity must be non-negative");
  COHLS_EXPECT(from != to, "self-loop arcs carry no flow");
  const std::size_t forward = arcs_.size();
  arcs_.push_back(Arc{to, head_[from], capacity});
  head_[from] = forward;
  arcs_.push_back(Arc{from, head_[to], 0});
  head_[to] = forward + 1;
  return forward / 2;
}

FlowNetwork::ArcInfo FlowNetwork::arc(std::size_t handle) const {
  COHLS_EXPECT(handle < arcs_.size() / 2, "unknown arc handle");
  const Arc& fwd = arcs_[2 * handle];
  const Arc& rev = arcs_[2 * handle + 1];
  // The reverse arc's residual capacity is the flow pushed forward.
  return ArcInfo{rev.to, fwd.to, fwd.capacity + rev.capacity, rev.capacity};
}

std::int64_t FlowNetwork::bfs_augment(std::size_t source, std::size_t sink) {
  parent_arc_.assign(node_count(), kNone);
  queue_.assign(1, source);
  bool reached = false;
  for (std::size_t front = 0; front < queue_.size() && !reached; ++front) {
    const std::size_t n = queue_[front];
    for (std::size_t e = head_[n]; e != kNone; e = arcs_[e].next) {
      const std::size_t to = arcs_[e].to;
      if (arcs_[e].capacity > 0 && to != source && parent_arc_[to] == kNone) {
        parent_arc_[to] = e;
        reached = reached || to == sink;
        queue_.push_back(to);
      }
    }
  }
  if (!reached) {
    return 0;
  }
  // Find the bottleneck along the path, then push it. The tail of arc e is
  // the head of its reverse e ^ 1.
  std::int64_t bottleneck = std::numeric_limits<std::int64_t>::max();
  for (std::size_t n = sink; n != source; n = arcs_[parent_arc_[n] ^ 1].to) {
    bottleneck = std::min(bottleneck, arcs_[parent_arc_[n]].capacity);
  }
  for (std::size_t n = sink; n != source; n = arcs_[parent_arc_[n] ^ 1].to) {
    arcs_[parent_arc_[n]].capacity -= bottleneck;
    arcs_[parent_arc_[n] ^ 1].capacity += bottleneck;
  }
  return bottleneck;
}

const FlowNetwork::CutResult& FlowNetwork::min_cut(std::size_t source, std::size_t sink) {
  COHLS_EXPECT(source < node_count() && sink < node_count(), "terminal out of range");
  COHLS_EXPECT(source != sink, "source and sink must differ");

  cut_.value = 0;
  while (true) {
    const std::int64_t pushed = bfs_augment(source, sink);
    if (pushed == 0) {
      break;
    }
    cut_.value += pushed;
  }

  // Source side = nodes reachable in the residual graph.
  cut_.source_side.assign(node_count(), false);
  cut_.source_side[source] = true;
  queue_.assign(1, source);
  while (!queue_.empty()) {
    const std::size_t n = queue_.back();
    queue_.pop_back();
    for (std::size_t e = head_[n]; e != kNone; e = arcs_[e].next) {
      if (arcs_[e].capacity > 0 && !cut_.source_side[arcs_[e].to]) {
        cut_.source_side[arcs_[e].to] = true;
        queue_.push_back(arcs_[e].to);
      }
    }
  }

  // Sink side = nodes that reach the sink through positive-residual arcs:
  // a backward search, where arc e out of n has the reverse e ^ 1 into n.
  cut_.sink_side.assign(node_count(), false);
  cut_.sink_side[sink] = true;
  queue_.assign(1, sink);
  while (!queue_.empty()) {
    const std::size_t n = queue_.back();
    queue_.pop_back();
    for (std::size_t e = head_[n]; e != kNone; e = arcs_[e].next) {
      if (arcs_[e ^ 1].capacity > 0 && !cut_.sink_side[arcs_[e].to]) {
        cut_.sink_side[arcs_[e].to] = true;
        queue_.push_back(arcs_[e].to);
      }
    }
  }

  cut_.cut_arcs.clear();
  for (std::size_t handle = 0; handle < arcs_.size() / 2; ++handle) {
    const ArcInfo info = arc(handle);
    if (cut_.source_side[info.from] && !cut_.source_side[info.to] && info.capacity > 0) {
      cut_.cut_arcs.push_back(handle);
    }
  }
  return cut_;
}

}  // namespace cohls::graph
