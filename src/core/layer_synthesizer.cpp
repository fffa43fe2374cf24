#include "core/layer_synthesizer.hpp"

#include <algorithm>
#include <vector>

#include "model/compatibility.hpp"

namespace cohls::core {

double layer_score(const schedule::LayerResult& result,
                   const model::DeviceInventory& inventory,
                   const schedule::LayerRequest& request, const model::Assay& assay,
                   const model::CostModel& costs) {
  double score =
      costs.weight_time() * static_cast<double>(result.schedule.makespan().count());

  // Integration cost of devices created by this layer, hints excluded
  // (their cost is owned by the layer that integrates them in the global
  // accounting — Fig. 6).
  for (const model::Device& device : inventory.devices()) {
    if (device.created_in != request.layer) {
      continue;
    }
    bool from_hint = false;
    for (const int key : result.consumed_hints) {
      for (const auto& hint : request.hints) {
        if (hint.key == key && hint.config == device.config) {
          from_hint = true;
          break;
        }
      }
    }
    if (from_hint) {
      continue;
    }
    score += costs.weight_area() * model::device_area(device.config, costs) +
             costs.weight_processing() *
                 model::device_processing(device.config, costs, assay.registry());
  }

  // Newly created inter-device paths. A parent is bound by this layer's
  // schedule first, by an earlier layer otherwise.
  schedule::Binding layer_binding(assay.operation_count());
  for (const auto& item : result.schedule.items) {
    COHLS_EXPECT(item.op.valid() && item.op.value() < assay.operation_count(),
                 "unknown operation id");
    layer_binding.bind(item.op, item.device);
  }
  std::vector<schedule::DevicePath> created;
  for (const auto& item : result.schedule.items) {
    for (const OperationId parent : assay.operation(item.op).parents()) {
      DeviceId parent_device = layer_binding.device(parent);
      if (!parent_device.valid()) {
        parent_device = request.prior_binding.device(parent);
      }
      if (!parent_device.valid() || parent_device == item.device) {
        continue;
      }
      const schedule::DevicePath path = schedule::make_path(parent_device, item.device);
      if (!request.existing_paths.contains(parent_device, item.device) &&
          std::find(created.begin(), created.end(), path) == created.end()) {
        created.push_back(path);
      }
    }
  }
  score += costs.weight_paths() * static_cast<int>(created.size());
  return score;
}

namespace {

bool ilp_applicable(const schedule::LayerRequest& request, const model::Assay& assay,
                    const EngineOptions& engine,
                    const model::DeviceInventory& inventory) {
  if (!engine.enable_ilp) {
    return false;
  }
  if (static_cast<int>(request.ops.size()) > engine.ilp_max_ops) {
    return false;
  }
  const int devices = static_cast<int>(request.usable_devices.size() +
                                       request.hints.size()) +
                      engine.ilp_new_slots;
  if (devices > engine.ilp_max_devices) {
    return false;
  }
  // Recovery pins (forced bindings of in-flight operations) have an exact
  // ILP form — fixed binding rows — as long as every pinned device is among
  // the layer's usable devices and can actually run the pinned operation.
  for (const auto& [op, device] : request.pinned) {
    if (std::find(request.usable_devices.begin(), request.usable_devices.end(),
                  device) == request.usable_devices.end()) {
      return false;
    }
    if (!model::is_compatible(assay.operation(op), inventory.device(device).config)) {
      return false;
    }
  }
  // The ILP expresses the component-oriented binding rule (6)-(8); custom
  // binding predicates (the conventional baseline) have no ILP form here.
  return !request.binds && !request.new_config;
}

}  // namespace

LayerOutcome synthesize_layer(const schedule::LayerRequest& request,
                              const model::Assay& assay,
                              const schedule::TransportPlan& transport,
                              const model::CostModel& costs, const EngineOptions& engine,
                              const model::DeviceInventory& inventory) {
  // Heuristic candidate.
  LayerOutcome heuristic;
  heuristic.inventory = inventory;
  heuristic.result = schedule_layer(request, assay, transport, costs, heuristic.inventory);
  heuristic.score = layer_score(heuristic.result, heuristic.inventory, request, assay, costs);

  if (!ilp_applicable(request, assay, engine, inventory)) {
    return heuristic;
  }

  // Exact candidate.
  IlpLayerInputs inputs;
  inputs.layer = request.layer;
  inputs.ops = request.ops;
  for (const DeviceId id : request.usable_devices) {
    inputs.fixed_devices.emplace_back(id, inventory.device(id).config);
  }
  inputs.hints = request.hints;
  inputs.new_slots =
      request.allow_new_devices
          ? std::min(engine.ilp_new_slots, inventory.max_devices() - inventory.size())
          : 0;
  inputs.prior_binding = request.prior_binding;
  inputs.existing_paths = request.existing_paths;
  inputs.pinned = request.pinned;

  try {
    const IlpLayerModel ilp(assay, std::move(inputs), transport, costs);
    milp::MilpOptions options = engine.milp;
    // Bound-driven search: combinatorial node bounds over the scheduling
    // structure, and the heuristic result as the initial incumbent every
    // worker prunes against from node 1.
    options.bounds = ilp.bound_provider();
    if (!options.warm_start.has_value()) {
      std::vector<double> seed = ilp.encode(heuristic.result, heuristic.inventory);
      if (!seed.empty()) {
        options.warm_start = std::move(seed);
      }
    }
    const auto solution = milp::solve_milp(ilp.model(), options);
    static_cast<milp::MilpStats&>(heuristic) = solution;
    if (solution.status != milp::MilpStatus::Optimal &&
        solution.status != milp::MilpStatus::Feasible) {
      return heuristic;
    }
    LayerOutcome exact;
    exact.inventory = inventory;
    exact.result = ilp.decode(solution.values, exact.inventory);
    exact.used_ilp = true;
    exact.score = layer_score(exact.result, exact.inventory, request, assay, costs);
    static_cast<milp::MilpStats&>(exact) = solution;
    return exact.score < heuristic.score - 1e-9 ? exact : heuristic;
  } catch (const InfeasibleError&) {
    return heuristic;  // e.g. inventory exhausted while decoding
  }
}

}  // namespace cohls::core
