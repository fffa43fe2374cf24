// The parent implementations of the flow's bookkeeping, kept as they were
// (std::map / std::set keyed by OperationId and DevicePath) as the
// differential-testing oracle for the flat-array versions in src/. See
// flow_reference.hpp.
#include "support/flow_reference.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "graph/max_flow.hpp"
#include "model/compatibility.hpp"
#include "support/traversal.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cohls::oracles {

using schedule::DevicePath;
using schedule::LayerSchedule;
using schedule::ScheduledOperation;
using schedule::SynthesisResult;
using schedule::TransportPlan;

SynthesisResult run_pass_reference(const model::Assay& assay, const core::LayerPlan& plan,
                                   const TransportPlan& transport,
                                   const core::SynthesisOptions& options,
                                   const std::vector<core::KnownDevice>& known_devices,
                                   const core::PassPolicy& policy,
                                   std::vector<LayerBookkeeping>& layers) {
  SynthesisResult result;
  result.devices = model::DeviceInventory(options.max_devices);
  for (const model::DeviceConfig& config : policy.initial_devices) {
    result.devices.instantiate(config, LayerId{});
  }
  std::map<OperationId, DeviceId> prior_binding;
  std::set<DevicePath> existing_paths;
  std::vector<bool> hint_consumed(known_devices.size(), false);

  for (int li = 0; li < plan.layer_count(); ++li) {
    layers.push_back(LayerBookkeeping{prior_binding, existing_paths});
    schedule::LayerRequest request;
    request.layer = LayerId{li};
    request.ops = plan.layer(li);
    for (const auto& [op, device] : prior_binding) {
      request.prior_binding.bind(op, device);
    }
    for (const model::Device& device : result.devices.devices()) {
      request.usable_devices.push_back(device.id);
    }
    for (std::size_t k = 0; k < known_devices.size(); ++k) {
      if (!hint_consumed[k] && known_devices[k].created_in_layer > li) {
        request.hints.push_back(
            schedule::DeviceHint{known_devices[k].config, static_cast<int>(k)});
      }
    }
    for (const DevicePath& path : existing_paths) {
      request.existing_paths.insert(path.first, path.second);
    }
    for (const OperationId op : request.ops) {
      const auto pin = policy.pinned.find(op);
      if (pin != policy.pinned.end()) {
        request.pinned.emplace(op, pin->second);
      }
    }
    request.allow_new_devices = policy.allow_new_devices;
    request.binds = policy.binds;
    request.new_config = policy.new_config;
    request.slot_size = policy.slot_size;

    core::LayerOutcome outcome = core::synthesize_layer(
        request, assay, transport, options.costs, options.engine, result.devices);
    result.devices = std::move(outcome.inventory);
    for (const int key : outcome.result.consumed_hints) {
      hint_consumed[static_cast<std::size_t>(key)] = true;
    }
    for (const auto& item : outcome.result.schedule.items) {
      prior_binding[item.op] = item.device;
    }
    for (const auto& item : outcome.result.schedule.items) {
      const model::Operation& op = assay.operation(item.op);
      std::vector<OperationId> neighbours(op.parents().begin(), op.parents().end());
      for (const OperationId child : assay.children(item.op)) {
        neighbours.push_back(child);
      }
      for (const OperationId other : neighbours) {
        const auto bound = prior_binding.find(other);
        if (bound != prior_binding.end() && bound->second != item.device) {
          existing_paths.insert(schedule::make_path(item.device, bound->second));
        }
      }
    }
    result.layers.push_back(std::move(outcome.result.schedule));
  }
  return result;
}

std::set<DevicePath> paths_reference(const SynthesisResult& result,
                                     const model::Assay& assay) {
  const auto bound = result.binding();
  std::set<DevicePath> paths;
  for (const auto& [op, device] : bound) {
    for (const OperationId child : assay.children(op)) {
      const auto it = bound.find(child);
      if (it != bound.end() && it->second != device) {
        paths.insert(schedule::make_path(device, it->second));
      }
    }
  }
  return paths;
}

schedule::ObjectiveBreakdown evaluate_objective_reference(const SynthesisResult& result,
                                                          const model::Assay& assay,
                                                          const model::CostModel& costs) {
  schedule::ObjectiveBreakdown out;
  out.time_minutes = static_cast<double>(result.total_time(assay).fixed().count());

  std::set<DeviceId> used;
  for (const LayerSchedule& layer : result.layers) {
    for (const ScheduledOperation& item : layer.items) {
      used.insert(item.device);
    }
  }
  for (const DeviceId id : used) {
    const model::Device& device = result.devices.device(id);
    out.area += model::device_area(device.config, costs);
    out.processing += model::device_processing(device.config, costs, assay.registry());
  }
  out.path_count = static_cast<double>(paths_reference(result, assay).size());

  out.weighted_total = costs.weight_time() * out.time_minutes +
                       costs.weight_area() * out.area +
                       costs.weight_processing() * out.processing +
                       costs.weight_paths() * out.path_count;
  return out;
}

EdgeId edge_between(const model::Assay& assay, OperationId parent, OperationId child) {
  const model::Operation& op = assay.operation(child);
  auto edge = op.parent_edges().begin();
  for (const OperationId candidate : op.parents()) {
    if (candidate == parent) {
      return *edge;
    }
    ++edge;
  }
  throw PreconditionError("no edge between the two operations");
}

Minutes edge_time_between(const TransportPlan& transport, const model::Assay& assay,
                          OperationId parent, OperationId child) {
  return transport.edge_time(edge_between(assay, parent, child));
}

EdgeTimes refine_transport_reference(const schedule::SynthesisResult& result,
                                     const model::Assay& assay,
                                     const schedule::TransportProgression& progression) {
  EdgeTimes times;
  const auto binding = result.binding();

  // Count how many transfers use each inter-device path.
  std::map<schedule::DevicePath, int> usage;
  for (const model::Operation& op : assay.operations()) {
    const auto parent_device = binding.find(op.id());
    if (parent_device == binding.end()) {
      continue;
    }
    for (const OperationId child : assay.children(op.id())) {
      const auto child_device = binding.find(child);
      if (child_device == binding.end()) {
        continue;
      }
      if (parent_device->second != child_device->second) {
        ++usage[schedule::make_path(parent_device->second, child_device->second)];
      }
    }
  }

  // Rank paths by usage (descending); the busiest paths get the shortest
  // terms. Rank r of P paths maps to term floor(r * terms / P).
  std::vector<std::pair<schedule::DevicePath, int>> ranked(usage.begin(), usage.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;
  });
  std::map<schedule::DevicePath, Minutes> path_time;
  const int path_count = static_cast<int>(ranked.size());
  for (int r = 0; r < path_count; ++r) {
    const int term_index = (r * progression.terms) / std::max(path_count, 1);
    path_time[ranked[static_cast<std::size_t>(r)].first] = progression.term(term_index);
  }

  // Write per-edge times.
  for (const model::Operation& op : assay.operations()) {
    const auto parent_device = binding.find(op.id());
    if (parent_device == binding.end()) {
      continue;
    }
    for (const OperationId child : assay.children(op.id())) {
      const auto child_device = binding.find(child);
      if (child_device == binding.end()) {
        continue;
      }
      times[{op.id(), child}] =
          parent_device->second == child_device->second
              ? Minutes{0}
              : path_time.at(
                    schedule::make_path(parent_device->second, child_device->second));
    }
  }
  return times;
}


namespace {

struct Placement {
  int layer_index;  // position in result.layers
  const ScheduledOperation* item;
};

/// Occupation end of `item` on its device: completion plus the longest
/// outgoing transport to a same-layer child on a different device.
Minutes occupation_end(const ScheduledOperation& item, const model::Assay& assay,
                       const TransportPlan& transport,
                       const std::map<OperationId, Placement>& placements) {
  Minutes end = item.end();
  const auto self = placements.at(item.op);
  for (const OperationId child : assay.children(item.op)) {
    const auto it = placements.find(child);
    if (it == placements.end()) {
      continue;
    }
    if (it->second.layer_index == self.layer_index &&
        it->second.item->device != item.device) {
      end = std::max(end, item.end() + edge_time_between(transport, assay, item.op, child));
    }
  }
  return end;
}

}  // namespace

std::vector<diag::Diagnostic> certify_result_reference(const SynthesisResult& result,
                                                       const model::Assay& assay,
                                                       const TransportPlan& transport) {
  std::vector<diag::Diagnostic> diagnostics;
  const auto report = [&diagnostics](const char* code, const std::string& message) {
    diag::Diagnostic d;
    d.code = code;
    d.message = message;
    diagnostics.push_back(std::move(d));
  };
  const auto op_name = [&assay](OperationId id) {
    return "op '" + assay.operation(id).name() + "' (#" + std::to_string(id.value()) + ")";
  };

  // -- coverage: each operation exactly once ------------------------------
  std::map<OperationId, Placement> placements;
  for (int li = 0; li < static_cast<int>(result.layers.size()); ++li) {
    for (const ScheduledOperation& item : result.layers[static_cast<std::size_t>(li)].items) {
      if (!item.op.valid() || item.op.value() >= assay.operation_count()) {
        report(diag::codes::kUnknownOperation,
               "schedule references an operation outside the assay");
        continue;
      }
      if (!placements.emplace(item.op, Placement{li, &item}).second) {
        report(diag::codes::kDuplicateSchedule,
               op_name(item.op) + " is scheduled more than once");
      }
    }
  }
  for (const model::Operation& op : assay.operations()) {
    if (!placements.count(op.id())) {
      report(diag::codes::kMissingOperation,
             op_name(op.id()) + " is missing from the schedule");
    }
  }
  if (!diagnostics.empty()) {
    return diagnostics;  // structural problems make later checks meaningless
  }

  // -- per-item checks: start, duration, binding legality ------------------
  for (const auto& [id, placement] : placements) {
    const ScheduledOperation& item = *placement.item;
    const model::Operation& op = assay.operation(id);
    if (item.start < Minutes{0}) {
      report(diag::codes::kNegativeStart,
             op_name(id) + " starts before the layer begins");
    }
    if (item.duration != op.duration()) {
      std::ostringstream msg;
      msg << op_name(id) << " scheduled with duration " << item.duration
          << " but the assay declares " << op.duration();
      report(diag::codes::kWrongDuration, msg.str());
    }
    if (!item.device.valid() || item.device.value() >= result.devices.size()) {
      report(diag::codes::kUnknownDevice,
             op_name(id) + " is bound to a device missing from the inventory");
      continue;
    }
    const model::Device& device = result.devices.device(item.device);
    if (!model::is_compatible(op, device.config)) {
      report(diag::codes::kIncompatibleBinding,
             op_name(id) + " is bound to an incompatible device #" +
                 std::to_string(item.device.value()));
    }
  }

  // -- dependency constraints ----------------------------------------------
  for (const model::Operation& op : assay.operations()) {
    const Placement child = placements.at(op.id());
    for (const OperationId parent_id : op.parents()) {
      const Placement parent = placements.at(parent_id);
      if (parent.layer_index > child.layer_index) {
        report(diag::codes::kParentLayerOrder,
               op_name(op.id()) + " is layered before its parent " + op_name(parent_id));
        continue;
      }
      const bool same_device = parent.item->device == child.item->device;
      const Minutes t =
          same_device ? Minutes{0} : edge_time_between(transport, assay, parent_id, op.id());
      if (parent.layer_index == child.layer_index) {
        if (child.item->start < parent.item->end() + t) {
          std::ostringstream msg;
          msg << op_name(op.id()) << " starts at " << child.item->start
              << " before parent " << op_name(parent_id) << " completes at "
              << parent.item->end() << " plus transport " << t;
          report(diag::codes::kDependencyStart, msg.str());
        }
      } else if (child.item->start < t) {
        std::ostringstream msg;
        msg << op_name(op.id()) << " starts at " << child.item->start
            << " before its inherited reagent arrives (transport " << t << ")";
        report(diag::codes::kTransportStart, msg.str());
      }
    }
  }

  // -- device-conflict prevention ------------------------------------------
  for (const LayerSchedule& layer : result.layers) {
    for (std::size_t a = 0; a < layer.items.size(); ++a) {
      for (std::size_t b = a + 1; b < layer.items.size(); ++b) {
        const ScheduledOperation& oa = layer.items[a];
        const ScheduledOperation& ob = layer.items[b];
        if (oa.device != ob.device) {
          continue;
        }
        const Minutes end_a = occupation_end(oa, assay, transport, placements);
        const Minutes end_b = occupation_end(ob, assay, transport, placements);
        if (oa.start < end_b && ob.start < end_a) {
          report(diag::codes::kDeviceOverlap,
                 op_name(oa.op) + " and " + op_name(ob.op) +
                     " overlap on device #" + std::to_string(oa.device.value()));
        }
      }
    }
  }

  // -- indeterminate operations end their layer -----------------------------
  for (const LayerSchedule& layer : result.layers) {
    std::vector<const ScheduledOperation*> indeterminate;
    for (const ScheduledOperation& item : layer.items) {
      if (assay.operation(item.op).indeterminate()) {
        indeterminate.push_back(&item);
      }
    }
    for (const ScheduledOperation* ind : indeterminate) {
      for (const ScheduledOperation& other : layer.items) {
        if (other.start > ind->end()) {
          report(diag::codes::kStartAfterIndeterminate,
                 op_name(other.op) + " starts after indeterminate " + op_name(ind->op) +
                     " may already have completed (constraint 14)");
        }
      }
      for (const OperationId child : assay.children(ind->op)) {
        const Placement child_placement = placements.at(child);
        if (&result.layers[static_cast<std::size_t>(child_placement.layer_index)] == &layer) {
          report(diag::codes::kIndeterminateSameLayerChild,
                 "indeterminate " + op_name(ind->op) + " has same-layer child " +
                     op_name(child));
        }
      }
    }
    for (std::size_t a = 0; a < indeterminate.size(); ++a) {
      for (std::size_t b = a + 1; b < indeterminate.size(); ++b) {
        if (indeterminate[a]->device == indeterminate[b]->device) {
          report(diag::codes::kIndeterminateSharedDevice,
                 "indeterminate " + op_name(indeterminate[a]->op) + " and " +
                     op_name(indeterminate[b]->op) +
                     " share a device; they must run in parallel");
        }
      }
    }
  }

  return diagnostics;
}

namespace {

using core::EvictionCost;
using core::LayerPlan;
using core::LayeringOptions;

using Mask = std::vector<char>;

Mask make_mask(int n) { return Mask(static_cast<std::size_t>(n), 0); }

}  // namespace

EvictionCost eviction_cost_reference(const model::Assay& assay,
                                     const std::vector<OperationId>& layer_ops,
                                     OperationId op) {
  COHLS_EXPECT(std::find(layer_ops.begin(), layer_ops.end(), op) != layer_ops.end(),
               "operation to evict must be in the layer");
  const graph::Digraph g = dependency_graph(assay);
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

  const graph::FlowNetwork::CutResult cut = net.min_cut(source, sink);
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

class LayeringRunReference {
 public:
  LayeringRunReference(const model::Assay& assay, const LayeringOptions& options,
                       const LayerObserver& observe)
      : assay_(assay),
        options_(options),
        observe_(observe),
        graph_(dependency_graph(assay)),
        rng_(options.seed) {
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
      if (observe_) {
        observe_(layer, false);
      }
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
    Mask active = remaining;  // the working graph 𝓛
    std::vector<OperationId> chosen_indeterminate;

    while (true) {
      // Indeterminate ops in the working graph with no indeterminate
      // ancestor in the working graph.
      std::vector<OperationId> eligible;
      for (const model::Operation& op : assay_.operations()) {
        if (!active[op.id().index()] || !op.indeterminate()) {
          continue;
        }
        const auto anc = graph::ancestor_mask(graph_, op.id().index());
        bool has_ind_ancestor = false;
        for (const model::Operation& other : assay_.operations()) {
          if (other.indeterminate() && active[other.id().index()] &&
              anc[other.id().index()]) {
            has_ind_ancestor = true;
            break;
          }
        }
        if (!has_ind_ancestor) {
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
      const auto desc = graph::descendant_mask(graph_, pick.index());
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
  /// respects the threshold (L25-L34, Fig. 5), recomputing every
  /// candidate's cost in every round.
  void resource_phase(std::vector<OperationId>& layer) const {
    while (count_indeterminate(layer) > options_.indeterminate_threshold) {
      std::vector<std::pair<OperationId, EvictionCost>> ranked;
      for (const OperationId op : layer) {
        if (assay_.operation(op).indeterminate()) {
          ranked.emplace_back(op, eviction_cost_reference(assay_, layer, op));
        }
      }
      COHLS_ASSERT(!ranked.empty(), "threshold exceeded but no indeterminate op found");
      std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
        if (a.second.storage != b.second.storage) {
          return a.second.storage < b.second.storage;
        }
        if (a.second.moved.size() != b.second.moved.size()) {
          return a.second.moved.size() < b.second.moved.size();
        }
        return a.first < b.first;
      });

      // The cheapest candidate whose removal leaves an indeterminate op in
      // the layer; when none does, the cheapest one alone.
      Mask removed;
      bool found = false;
      for (const auto& [op, cost] : ranked) {
        removed = removal_mask(layer, cost.moved);
        if (std::count_if(layer.begin(), layer.end(), [&](OperationId o) {
              return removed[o.index()] == 0 && assay_.operation(o).indeterminate();
            }) > 0) {
          found = true;
          break;
        }
      }
      if (!found) {
        removed = removal_mask(layer, {ranked.front().first});
      }
      std::erase_if(layer, [&](OperationId op) { return removed[op.index()] == 1; });
      COHLS_ASSERT(!layer.empty(), "an eviction must leave the layer non-empty");
      if (observe_) {
        observe_(layer, true);
      }
    }
  }

  /// The cut's sink side plus, for dependency consistency, every in-layer
  /// descendant of a removed operation.
  Mask removal_mask(const std::vector<OperationId>& layer,
                    const std::vector<OperationId>& moved) const {
    Mask removed = make_mask(assay_.operation_count());
    for (const OperationId op : moved) {
      removed[op.index()] = 1;
    }
    for (const OperationId op : moved) {
      const auto desc = graph::descendant_mask(graph_, op.index());
      for (const OperationId other : layer) {
        if (desc[other.index()]) {
          removed[other.index()] = 1;
        }
      }
    }
    return removed;
  }

  int count_indeterminate(const std::vector<OperationId>& layer) const {
    return static_cast<int>(
        std::count_if(layer.begin(), layer.end(), [&](OperationId op) {
          return assay_.operation(op).indeterminate();
        }));
  }

  const model::Assay& assay_;
  const LayeringOptions& options_;
  const LayerObserver& observe_;
  graph::Digraph graph_;
  mutable Rng rng_;
};

}  // namespace

core::LayerPlan layer_assay_reference(const model::Assay& assay,
                                      const core::LayeringOptions& options,
                                      const LayerObserver& observe) {
  COHLS_EXPECT(assay.operation_count() > 0, "cannot layer an empty assay");
  LayeringRunReference run(assay, options, observe);
  return run.run();
}

}  // namespace cohls::oracles
