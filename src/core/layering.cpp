#include "core/layering.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <tuple>

#include "graph/max_flow.hpp"

namespace cohls::core {

LayerPlan::LayerPlan(std::vector<std::vector<OperationId>> layers)
    : layers_(std::move(layers)) {
  int max_id = -1;
  for (const auto& layer : layers_) {
    for (const OperationId op : layer) {
      max_id = std::max(max_id, op.value());
    }
  }
  layer_of_.assign(static_cast<std::size_t>(max_id + 1), -1);
  for (int li = 0; li < layer_count(); ++li) {
    for (const OperationId op : layers_[static_cast<std::size_t>(li)]) {
      COHLS_EXPECT(layer_of_[op.index()] == -1, "operation assigned to two layers");
      layer_of_[op.index()] = li;
    }
  }
}

const std::vector<OperationId>& LayerPlan::layer(int index) const {
  COHLS_EXPECT(index >= 0 && index < layer_count(), "layer index out of range");
  return layers_[static_cast<std::size_t>(index)];
}

int LayerPlan::layer_of(OperationId op) const {
  if (!op.valid() || op.index() >= layer_of_.size()) {
    return -1;
  }
  return layer_of_[op.index()];
}

namespace {

using Stamp = std::uint32_t;

/// Scratch for the eviction cuts of one layering run. Membership marks are
/// stamped: an entry belongs to the current layer (cone) iff it holds the
/// current stamp, so starting a new layer or cone is one increment, and a
/// cut allocates nothing once the buffers have grown.
///
/// Cones are found by a backward walk that stays inside the layer. That
/// finds the whole in-layer ancestor cone because a layer holds every
/// operation on a path between two of its operations: Algorithm 1's layers
/// together with the layers before them are closed under ancestors, and an
/// eviction removes whole descendant sets.
class CutWorkspace {
 public:
  explicit CutWorkspace(int operation_count)
      : layer_stamp_(static_cast<std::size_t>(operation_count), 0),
        position_(static_cast<std::size_t>(operation_count), 0),
        cone_stamp_(static_cast<std::size_t>(operation_count), 0),
        node_(static_cast<std::size_t>(operation_count), 0) {}

  /// Makes `layer` the set that cones are restricted to.
  void set_layer(const std::vector<OperationId>& layer) {
    ++layer_epoch_;
    for (std::size_t i = 0; i < layer.size(); ++i) {
      layer_stamp_[layer[i].index()] = layer_epoch_;
      position_[layer[i].index()] = i;
    }
  }
  [[nodiscard]] bool in_layer(OperationId op) const {
    return layer_stamp_[op.index()] == layer_epoch_;
  }
  void leave_layer(OperationId op) { layer_stamp_[op.index()] = 0; }

  /// The Fig. 5 cost of evicting `op`: returns the min-cut storage and
  /// appends the operations that move (the sink-side cone in layer order,
  /// then `op`) to `moved`.
  std::int64_t cut(const model::Assay& assay, OperationId op, std::vector<OperationId>& moved) {
    ++cone_epoch_;
    cone_stamp_[op.index()] = cone_epoch_;
    cone_.clear();
    stack_.assign(1, op);
    while (!stack_.empty()) {
      const OperationId o = stack_.back();
      stack_.pop_back();
      for (const OperationId parent : assay.operation(o).parents()) {
        if (in_layer(parent) && cone_stamp_[parent.index()] != cone_epoch_) {
          cone_stamp_[parent.index()] = cone_epoch_;
          cone_.push_back(parent);
          stack_.push_back(parent);
        }
      }
    }
    std::sort(cone_.begin(), cone_.end(), [this](OperationId a, OperationId b) {
      return position_[a.index()] < position_[b.index()];
    });

    // Flow network: node 0 = virtual source o_jv (lives in L_{i-1}); nodes
    // 1..k = cone vertices in layer order; node k+1 = op (the sink).
    const std::size_t source = 0;
    const std::size_t sink = cone_.size() + 1;
    net_.reset(cone_.size() + 2);
    for (std::size_t i = 0; i < cone_.size(); ++i) {
      node_[cone_[i].index()] = i + 1;
    }
    node_[op.index()] = sink;

    // Reagents entering the cone from outside the layer (earlier layers or
    // primary inputs) flow out of the virtual source. One unit per external
    // parent; primary inputs count one unit total. Every in-layer parent of
    // a cone vertex is in the cone.
    const auto add_external = [&](OperationId o) {
      const std::span<const OperationId> parents = assay.operation(o).parents();
      std::int64_t external = parents.empty() ? 1 : 0;
      for (const OperationId parent : parents) {
        external += in_layer(parent) ? 0 : 1;
      }
      if (external > 0) {
        net_.add_arc(source, node_[o.index()], external);
      }
    };
    for (const OperationId o : cone_) {
      add_external(o);
    }
    add_external(op);
    // Dependency edges inside the cone (each crossing edge is one stored
    // intermediate).
    for (const OperationId o : cone_) {
      for (const OperationId child : assay.children(o)) {
        if (cone_stamp_[child.index()] == cone_epoch_) {
          net_.add_arc(node_[o.index()], node_[child.index()], 1);
        }
      }
    }

    const graph::FlowNetwork::CutResult& result = net_.min_cut(source, sink);
    // Fewest vertices on the sink side: take the sink-closest minimum cut.
    for (const OperationId o : cone_) {
      if (result.sink_side[node_[o.index()]]) {
        moved.push_back(o);
      }
    }
    moved.push_back(op);
    return result.value;
  }

 private:
  std::vector<Stamp> layer_stamp_;
  std::vector<std::size_t> position_;  // index in the layer set last
  std::vector<Stamp> cone_stamp_;
  std::vector<std::size_t> node_;      // network node of a cone vertex
  Stamp layer_epoch_ = 0;
  Stamp cone_epoch_ = 0;
  std::vector<OperationId> cone_;
  std::vector<OperationId> stack_;
  graph::FlowNetwork net_;
};

}  // namespace

EvictionCost eviction_cost(const model::Assay& assay,
                           const std::vector<OperationId>& layer_ops, OperationId op) {
  COHLS_EXPECT(std::find(layer_ops.begin(), layer_ops.end(), op) != layer_ops.end(),
               "operation to evict must be in the layer");
  CutWorkspace cuts(assay.operation_count());
  cuts.set_layer(layer_ops);
  EvictionCost cost;
  cost.storage = cuts.cut(assay, op, cost.moved);
  return cost;
}

namespace {

class LayeringRun {
 public:
  LayeringRun(const model::Assay& assay, const LayeringOptions& options)
      : assay_(assay),
        options_(options),
        rng_(options.seed),
        placed_(static_cast<std::size_t>(assay.operation_count()), 0),
        active_(static_cast<std::size_t>(assay.operation_count()), 0),
        below_(static_cast<std::size_t>(assay.operation_count()), 0) {
    COHLS_EXPECT(options.indeterminate_threshold >= 1,
                 "the layer threshold must allow at least one indeterminate operation");
  }

  LayerPlan run() {
    int remaining_count = assay_.operation_count();
    std::vector<std::vector<OperationId>> layers;
    while (remaining_count > 0) {
      std::vector<OperationId> layer = dependency_phase();
      resource_phase(layer);
      COHLS_ASSERT(!layer.empty(), "a layering round must place at least one operation");
      for (const OperationId op : layer) {
        placed_[op.index()] = 1;
      }
      remaining_count -= static_cast<int>(layer.size());
      std::sort(layer.begin(), layer.end());
      layers.push_back(std::move(layer));
    }
    return LayerPlan(std::move(layers));
  }

 private:
  /// Phase 1: modified maximum-independent-set sweep (L12-L24, Fig. 4).
  std::vector<OperationId> dependency_phase() {
    // The working graph 𝓛: every operation not placed yet.
    for (std::size_t n = 0; n < placed_.size(); ++n) {
      active_[n] = placed_[n] == 0 ? 1 : 0;
    }
    // Indeterminate ops in the working graph with no indeterminate ancestor
    // in the working graph. Ids are topological (parents first), so one
    // forward sweep marks every op below an active indeterminate one;
    // ancestry runs through the whole assay, inactive ops included.
    eligible_.clear();
    for (const model::Operation& op : assay_.operations()) {
      bool below = false;
      for (const OperationId parent : op.parents()) {
        below = below || below_[parent.index()] != 0 ||
                (active_[parent.index()] != 0 && assay_.operation(parent).indeterminate());
      }
      below_[op.id().index()] = below ? 1 : 0;
      if (active_[op.id().index()] && op.indeterminate() && !below) {
        eligible_.push_back(op.id());
      }
    }

    // Taking a pick and its descendants out of the working graph never
    // makes another op eligible: an op whose blocking ancestor left
    // descends from the pick and left too. So the eligible list only
    // shrinks, and erasing the ops that left, in order, gives every draw
    // the list a fresh sweep would.
    std::vector<OperationId> layer;
    while (!eligible_.empty()) {
      const OperationId pick =
          eligible_[static_cast<std::size_t>(rng_.uniform_int(
              0, static_cast<std::int64_t>(eligible_.size()) - 1))];
      layer.push_back(pick);
      deactivate_with_descendants(pick);
      std::erase_if(eligible_, [&](OperationId op) { return active_[op.index()] == 0; });
    }
    for (const model::Operation& op : assay_.operations()) {
      if (active_[op.id().index()]) {
        layer.push_back(op.id());
      }
    }
    return layer;
  }

  /// Takes `pick` and its descendants out of the working graph (they go to
  /// later layers). The walk stops at inactive ops: each is an earlier
  /// pick's descendant, whose own descendants left with it.
  void deactivate_with_descendants(OperationId pick) {
    active_[pick.index()] = 0;
    stack_.assign(1, pick);
    while (!stack_.empty()) {
      const OperationId op = stack_.back();
      stack_.pop_back();
      for (const OperationId child : assay_.children(op)) {
        if (active_[child.index()]) {
          active_[child.index()] = 0;
          stack_.push_back(child);
        }
      }
    }
  }

  /// An eviction candidate: an indeterminate op of the layer and its cost,
  /// whose moved ops are moved_[first, first + count).
  struct Candidate {
    OperationId op;
    std::int64_t storage;
    std::size_t first;
    std::size_t count;
  };

  /// Phase 2: evict the cheapest indeterminate operations until the layer
  /// respects the threshold (L25-L34, Fig. 5).
  void resource_phase(std::vector<OperationId>& layer) {
    int indeterminate = static_cast<int>(std::count_if(
        layer.begin(), layer.end(),
        [&](OperationId op) { return assay_.operation(op).indeterminate(); }));
    if (indeterminate <= options_.indeterminate_threshold) {
      return;
    }
    // Every candidate's cost is computed once, on the dependency-phase
    // layer. An eviction removes the victim's moved ops and their in-layer
    // descendants; any of them inside a surviving candidate's in-layer
    // ancestor cone would have dragged that candidate out too. So a
    // survivor's cone, its external-parent counts, its network (the same
    // nodes and arcs in the same order) and its cut never change.
    if (!cuts_) {  // most layers need no eviction, many assays none at all
      cuts_.emplace(assay_.operation_count());
      removal_stamp_.assign(placed_.size(), 0);
    }
    cuts_->set_layer(layer);
    candidates_.clear();
    moved_.clear();
    for (const OperationId op : layer) {
      if (assay_.operation(op).indeterminate()) {
        const std::size_t first = moved_.size();
        const std::int64_t storage = cuts_->cut(assay_, op, moved_);
        candidates_.push_back(Candidate{op, storage, first, moved_.size() - first});
      }
    }
    // Cheapest first: least storage, then fewest moved ops, then lowest id.
    std::sort(candidates_.begin(), candidates_.end(), [](const Candidate& a, const Candidate& b) {
      return std::tie(a.storage, a.count, a.op) < std::tie(b.storage, b.count, b.op);
    });

    while (indeterminate > options_.indeterminate_threshold) {
      // The cheapest surviving candidate whose eviction keeps an
      // indeterminate op in the layer, and so never empties it: a non-final
      // layer without one ends no branch (validate_layering rejects it).
      // When every candidate would take them all, the cheapest moves alone
      // (its trivial cut); it has no in-layer descendant, since the
      // dependency phase keeps those out of the layer.
      bool marked = false;
      for (const Candidate& c : candidates_) {
        if (cuts_->in_layer(c.op) &&
            mark_removal(std::span(moved_).subspan(c.first, c.count)) < indeterminate) {
          marked = true;
          break;
        }
      }
      if (!marked) {
        const auto cheapest = std::find_if(candidates_.begin(), candidates_.end(),
                                           [&](const Candidate& c) { return cuts_->in_layer(c.op); });
        COHLS_ASSERT(cheapest != candidates_.end(),
                     "threshold exceeded but no indeterminate op found");
        (void)mark_removal(std::span(&cheapest->op, 1));
      }
      std::erase_if(layer, [&](OperationId op) {
        if (removal_stamp_[op.index()] != removal_epoch_) {
          return false;
        }
        cuts_->leave_layer(op);
        indeterminate -= assay_.operation(op).indeterminate() ? 1 : 0;
        return true;
      });
      COHLS_ASSERT(!layer.empty(), "an eviction must leave the layer non-empty");
    }
  }

  /// Marks `moved` plus, for dependency consistency, every in-layer
  /// descendant of a moved op (one forward walk from all of them); returns
  /// how many indeterminate ops are marked.
  int mark_removal(std::span<const OperationId> moved) {
    ++removal_epoch_;
    int indeterminate = 0;
    stack_.clear();
    const auto mark = [&](OperationId op) {
      if (removal_stamp_[op.index()] != removal_epoch_) {
        removal_stamp_[op.index()] = removal_epoch_;
        indeterminate += assay_.operation(op).indeterminate() ? 1 : 0;
        stack_.push_back(op);
      }
    };
    for (const OperationId op : moved) {
      mark(op);
    }
    while (!stack_.empty()) {
      const OperationId op = stack_.back();
      stack_.pop_back();
      for (const OperationId child : assay_.children(op)) {
        if (cuts_->in_layer(child)) {
          mark(child);
        }
      }
    }
    return indeterminate;
  }

  const model::Assay& assay_;
  const LayeringOptions& options_;
  Rng rng_;
  std::vector<char> placed_;
  std::vector<char> active_;  // the working graph 𝓛
  std::vector<char> below_;   // below an active indeterminate op
  std::vector<OperationId> eligible_;
  std::vector<OperationId> stack_;
  std::vector<Stamp> removal_stamp_;
  Stamp removal_epoch_ = 0;
  std::vector<Candidate> candidates_;
  std::vector<OperationId> moved_;
  std::optional<CutWorkspace> cuts_;
};

}  // namespace

LayerPlan layer_assay(const model::Assay& assay, const LayeringOptions& options) {
  COHLS_EXPECT(assay.operation_count() > 0, "cannot layer an empty assay");
  LayeringRun run(assay, options);
  return run.run();
}

std::vector<int> boundary_storage(const LayerPlan& plan, const model::Assay& assay) {
  if (plan.layer_count() <= 1) {
    return {};
  }
  std::vector<int> storage(static_cast<std::size_t>(plan.layer_count() - 1), 0);
  for (const model::Operation& op : assay.operations()) {
    const int producer = plan.layer_of(op.id());
    for (const OperationId child : assay.children(op.id())) {
      const int consumer = plan.layer_of(child);
      // The intermediate is alive across every boundary between its
      // producer's layer and its consumer's.
      for (int boundary = producer; boundary < consumer; ++boundary) {
        ++storage[static_cast<std::size_t>(boundary)];
      }
    }
  }
  return storage;
}

std::vector<std::string> validate_layering(const LayerPlan& plan, const model::Assay& assay,
                                           int indeterminate_threshold) {
  std::vector<std::string> violations;

  // Exactly-once coverage.
  std::vector<int> seen(static_cast<std::size_t>(assay.operation_count()), 0);
  for (const auto& layer : plan.layers()) {
    for (const OperationId op : layer) {
      if (!op.valid() || op.value() >= assay.operation_count()) {
        violations.push_back("plan references an unknown operation");
        continue;
      }
      ++seen[op.index()];
    }
  }
  for (const model::Operation& op : assay.operations()) {
    if (seen[op.id().index()] != 1) {
      violations.push_back("operation '" + op.name() + "' appears " +
                           std::to_string(seen[op.id().index()]) + " times in the plan");
    }
  }
  if (!violations.empty()) {
    return violations;
  }

  // Dependencies respect layer order; indeterminate descendants are strict.
  std::vector<char> descends(static_cast<std::size_t>(assay.operation_count()), 0);
  for (const model::Operation& op : assay.operations()) {
    const int child_layer = plan.layer_of(op.id());
    for (const OperationId parent : op.parents()) {
      const int parent_layer = plan.layer_of(parent);
      if (parent_layer > child_layer) {
        violations.push_back("operation '" + op.name() + "' precedes its parent's layer");
      }
      if (assay.operation(parent).indeterminate() && parent_layer >= child_layer) {
        violations.push_back("child of indeterminate '" + assay.operation(parent).name() +
                             "' must sit in a strictly later layer");
      }
    }
    // Also strict for transitive descendants of indeterminate operations.
    // Ids are topological, so one forward sweep from `op` marks its
    // descendants in id order (entries at or below `op` are stale).
    if (op.indeterminate()) {
      for (std::size_t n = op.id().index() + 1; n < descends.size(); ++n) {
        const model::Operation& other = assay.operations()[n];
        descends[n] = std::any_of(other.parents().begin(), other.parents().end(),
                                  [&](OperationId parent) {
                                    return parent == op.id() ||
                                           (op.id() < parent && descends[parent.index()] != 0);
                                  });
        if (descends[n] && plan.layer_of(other.id()) <= plan.layer_of(op.id())) {
          violations.push_back("descendant '" + other.name() + "' of indeterminate '" +
                               op.name() + "' is not in a later layer");
        }
      }
    }
  }

  // Threshold and at-least-one-indeterminate-per-non-final-layer.
  for (int li = 0; li < plan.layer_count(); ++li) {
    int indeterminate = 0;
    for (const OperationId op : plan.layer(li)) {
      if (assay.operation(op).indeterminate()) {
        ++indeterminate;
      }
    }
    if (indeterminate > indeterminate_threshold) {
      violations.push_back("layer " + std::to_string(li) + " holds " +
                           std::to_string(indeterminate) +
                           " indeterminate operations, above the threshold");
    }
    if (li + 1 < plan.layer_count() && indeterminate == 0) {
      violations.push_back("non-final layer " + std::to_string(li) +
                           " has no indeterminate operation");
    }
  }
  return violations;
}

}  // namespace cohls::core
