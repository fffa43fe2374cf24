#include "model/compatibility.hpp"

#include <limits>

namespace cohls::model {

bool requirements_subsume(const Operation& outer, const Operation& inner) {
  if (inner.container().has_value() &&
      (!outer.container().has_value() || *outer.container() != *inner.container())) {
    return false;
  }
  if (inner.capacity().has_value() &&
      (!outer.capacity().has_value() || *outer.capacity() != *inner.capacity())) {
    return false;
  }
  return inner.accessories().is_subset_of(outer.accessories());
}

std::vector<DeviceConfig> admissible_configs(const Operation& op) {
  std::vector<DeviceConfig> configs;
  for (const ContainerKind kind : {ContainerKind::Ring, ContainerKind::Chamber}) {
    if (op.container().has_value() && *op.container() != kind) {
      continue;
    }
    for (const Capacity cap : kAllCapacities) {
      if (!capacity_allowed(kind, cap)) {
        continue;
      }
      if (op.capacity().has_value() && *op.capacity() != cap) {
        continue;
      }
      configs.push_back(DeviceConfig{kind, cap, op.accessories()});
    }
  }
  return configs;
}

DeviceConfig minimal_config(const Operation& op, const CostModel& costs,
                            const AccessoryRegistry& registry) {
  return minimal_config(op, costs, costs.accessory_set_processing(registry, op.accessories()))
      .config;
}

PricedConfig minimal_config(const Operation& op, const CostModel& costs,
                            double accessory_processing) {
  // admissible_configs' order, without materializing the list.
  PricedConfig best{DeviceConfig{}, std::numeric_limits<double>::infinity()};
  bool found = false;
  for (const ContainerKind kind : {ContainerKind::Ring, ContainerKind::Chamber}) {
    if (op.container().has_value() && *op.container() != kind) {
      continue;
    }
    for (const Capacity cap : kAllCapacities) {
      if (!capacity_allowed(kind, cap) ||
          (op.capacity().has_value() && *op.capacity() != cap)) {
        continue;
      }
      const DeviceConfig config{kind, cap, op.accessories()};
      const double cost = costs.weight_area() * device_area(config, costs) +
                          costs.weight_processing() *
                              (costs.container_processing(kind, cap) + accessory_processing);
      if (cost < best.cost) {
        best = PricedConfig{config, cost};
        found = true;
      }
    }
  }
  if (!found) {
    throw InfeasibleError("no device configuration can execute operation '" + op.name() +
                          "'");
  }
  return best;
}

OperationSignature signature_of(const Operation& op) {
  OperationSignature sig;
  sig.container = op.container().has_value() ? static_cast<int>(*op.container()) : -1;
  sig.capacity = op.capacity().has_value() ? static_cast<int>(*op.capacity()) : -1;
  sig.accessories = op.accessories();
  return sig;
}

}  // namespace cohls::model
