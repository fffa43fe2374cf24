#include "core/layering.hpp"

#include <algorithm>

#include "graph/max_flow.hpp"
#include "graph/traversal.hpp"

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

using Mask = std::vector<char>;

Mask make_mask(int n) { return Mask(static_cast<std::size_t>(n), 0); }

}  // namespace

EvictionCost eviction_cost(const model::Assay& assay,
                           const std::vector<OperationId>& layer_ops, OperationId op) {
  COHLS_EXPECT(std::find(layer_ops.begin(), layer_ops.end(), op) != layer_ops.end(),
               "operation to evict must be in the layer");
  const graph::Digraph& g = assay.dependency_graph();
  Mask in_layer = make_mask(assay.operation_count());
  for (const OperationId o : layer_ops) {
    in_layer[o.index()] = 1;
  }

  // The ancestor cone of `op` inside the layer.
  const auto anc = graph::ancestor_mask(g, op.index());
  std::vector<OperationId> cone;
  for (const OperationId o : layer_ops) {
    if (anc[o.index()]) {
      cone.push_back(o);
    }
  }

  // Flow network: node 0 = virtual source o_jv (lives in L_{i-1}); nodes
  // 1..k = cone vertices; node k+1 = op (the sink).
  graph::FlowNetwork net(cone.size() + 2);
  // Network node of each operation, indexed by operation id (0 = none).
  std::vector<std::size_t> index(static_cast<std::size_t>(assay.operation_count()), 0);
  for (std::size_t i = 0; i < cone.size(); ++i) {
    index[cone[i].index()] = i + 1;
  }
  const std::size_t source = 0;
  const std::size_t sink = cone.size() + 1;
  index[op.index()] = sink;

  for (const OperationId o : cone) {
    // Reagents entering the cone from outside the layer (earlier layers or
    // primary inputs) flow out of the virtual source. One unit per
    // external parent; primary inputs count one unit total.
    std::int64_t external = 0;
    for (const OperationId parent : assay.operation(o).parents()) {
      if (!in_layer[parent.index()] || !anc[parent.index()]) {
        ++external;
      }
    }
    if (assay.operation(o).parents().empty()) {
      external = 1;
    }
    if (external > 0) {
      net.add_arc(source, index[o.index()], external);
    }
  }
  // Direct external parents of `op` itself.
  {
    std::int64_t external = 0;
    for (const OperationId parent : assay.operation(op).parents()) {
      if (!in_layer[parent.index()] || !anc[parent.index()]) {
        ++external;
      }
    }
    if (assay.operation(op).parents().empty()) {
      external = 1;
    }
    if (external > 0) {
      net.add_arc(source, sink, external);
    }
  }
  // Dependency edges inside the cone (each crossing edge is one stored
  // intermediate).
  for (const OperationId o : cone) {
    for (const auto succ : g.successors(o.index())) {
      if (index[succ] != 0) {
        net.add_arc(index[o.index()], index[succ], 1);
      }
    }
  }

  const auto cut = net.min_cut(source, sink);
  EvictionCost cost;
  cost.storage = cut.value;
  // Fewest vertices on the sink side: take the sink-closest minimum cut.
  for (const OperationId o : cone) {
    if (cut.sink_side[index[o.index()]]) {
      cost.moved.push_back(o);
    }
  }
  cost.moved.push_back(op);
  return cost;
}

namespace {

class LayeringRun {
 public:
  LayeringRun(const model::Assay& assay, const LayeringOptions& options)
      : assay_(assay), options_(options), rng_(options.seed) {
    COHLS_EXPECT(options.indeterminate_threshold >= 1,
                 "the layer threshold must allow at least one indeterminate operation");
  }

  LayerPlan run() {
    Mask remaining = make_mask(assay_.operation_count());
    for (const model::Operation& op : assay_.operations()) {
      remaining[op.id().index()] = 1;
    }
    int remaining_count = assay_.operation_count();

    std::vector<std::vector<OperationId>> layers;
    while (remaining_count > 0) {
      std::vector<OperationId> layer = dependency_phase(remaining);
      resource_phase(layer);
      COHLS_ASSERT(!layer.empty(), "a layering round must place at least one operation");
      for (const OperationId op : layer) {
        remaining[op.index()] = 0;
      }
      remaining_count -= static_cast<int>(layer.size());
      std::sort(layer.begin(), layer.end());
      layers.push_back(std::move(layer));
    }
    return LayerPlan(std::move(layers));
  }

 private:
  /// Phase 1: modified maximum-independent-set sweep (L12-L24, Fig. 4).
  std::vector<OperationId> dependency_phase(const Mask& remaining) const {
    const graph::Digraph& g = assay_.dependency_graph();
    Mask active = remaining;  // the working graph 𝓛
    std::vector<OperationId> chosen_indeterminate;

    std::vector<char> below_indeterminate(active.size());
    while (true) {
      // Indeterminate ops in the working graph with no indeterminate
      // ancestor in the working graph. Ids are topological (parents first),
      // so one forward sweep marks every op below an active indeterminate
      // one; ancestry runs through the whole assay, inactive ops included.
      std::vector<OperationId> eligible;
      for (const model::Operation& op : assay_.operations()) {
        bool below = false;
        for (const OperationId parent : op.parents()) {
          below = below || below_indeterminate[parent.index()] != 0 ||
                  (active[parent.index()] != 0 && assay_.operation(parent).indeterminate());
        }
        below_indeterminate[op.id().index()] = below ? 1 : 0;
        if (active[op.id().index()] && op.indeterminate() && !below) {
          eligible.push_back(op.id());
        }
      }
      if (eligible.empty()) {
        break;
      }
      const OperationId pick =
          eligible[static_cast<std::size_t>(rng_.uniform_int(
              0, static_cast<std::int64_t>(eligible.size()) - 1))];
      chosen_indeterminate.push_back(pick);
      active[pick.index()] = 0;
      const auto desc = graph::descendant_mask(g, pick.index());
      for (std::size_t n = 0; n < desc.size(); ++n) {
        if (desc[n]) {
          active[n] = 0;  // descendants go to later layers
        }
      }
    }

    std::vector<OperationId> layer = chosen_indeterminate;
    for (const model::Operation& op : assay_.operations()) {
      if (active[op.id().index()]) {
        layer.push_back(op.id());
      }
    }
    return layer;
  }

  /// Phase 2: evict the cheapest indeterminate operations until the layer
  /// respects the threshold (L25-L34, Fig. 5).
  void resource_phase(std::vector<OperationId>& layer) const {
    while (count_indeterminate(layer) > options_.indeterminate_threshold) {
      OperationId victim;
      EvictionCost victim_cost;
      bool have = false;
      for (const OperationId op : layer) {
        if (!assay_.operation(op).indeterminate()) {
          continue;
        }
        EvictionCost cost = eviction_cost(assay_, layer, op);
        const bool better =
            !have || cost.storage < victim_cost.storage ||
            (cost.storage == victim_cost.storage &&
             (cost.moved.size() < victim_cost.moved.size() ||
              (cost.moved.size() == victim_cost.moved.size() && op < victim)));
        if (better) {
          victim = op;
          victim_cost = std::move(cost);
          have = true;
        }
      }
      COHLS_ASSERT(have, "threshold exceeded but no indeterminate op found");

      // Remove the cut's sink side plus, for dependency consistency, every
      // in-layer descendant of a removed operation.
      Mask removed = make_mask(assay_.operation_count());
      for (const OperationId op : victim_cost.moved) {
        removed[op.index()] = 1;
      }
      const graph::Digraph& g = assay_.dependency_graph();
      for (const OperationId op : victim_cost.moved) {
        const auto desc = graph::descendant_mask(g, op.index());
        for (const OperationId other : layer) {
          if (desc[other.index()]) {
            removed[other.index()] = 1;
          }
        }
      }
      std::erase_if(layer, [&](OperationId op) { return removed[op.index()] == 1; });
      COHLS_ASSERT(!layer.empty(),
                   "eviction emptied the layer; threshold too small for this assay");
    }
  }

  int count_indeterminate(const std::vector<OperationId>& layer) const {
    return static_cast<int>(
        std::count_if(layer.begin(), layer.end(), [&](OperationId op) {
          return assay_.operation(op).indeterminate();
        }));
  }

  const model::Assay& assay_;
  const LayeringOptions& options_;
  mutable Rng rng_;
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
  const graph::Digraph& g = assay.dependency_graph();

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
    if (op.indeterminate()) {
      const auto desc = graph::descendant_mask(g, op.id().index());
      for (const model::Operation& other : assay.operations()) {
        if (desc[other.id().index()] &&
            plan.layer_of(other.id()) <= plan.layer_of(op.id())) {
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
