#include "support/config_reference.hpp"

#include <limits>

namespace cohls::oracles {

model::PricedConfig minimal_config_reference(const model::Operation& op,
                                             const model::CostModel& costs,
                                             const model::AccessoryRegistry& registry) {
  const auto configs = model::admissible_configs(op);
  if (configs.empty()) {
    throw InfeasibleError("no device configuration can execute operation '" + op.name() +
                          "'");
  }
  const model::DeviceConfig* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const model::DeviceConfig& config : configs) {
    const double cost =
        costs.weight_area() * model::device_area(config, costs) +
        costs.weight_processing() * model::device_processing(config, costs, registry);
    if (cost < best_cost) {
      best_cost = cost;
      best = &config;
    }
  }
  return model::PricedConfig{*best, best_cost};
}

}  // namespace cohls::oracles
