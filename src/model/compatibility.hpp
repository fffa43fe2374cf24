// The binding rule of Sec. 2.2 in code: "an operation is allowed to be
// bound to a device, if their containers match with each other and the
// device includes the accessories required by the operation". These are
// constraints (6)-(8) of the ILP, shared by the heuristic scheduler, the
// model builder, and the validators so every engine agrees on legality.
#pragma once

#include <vector>

#include "model/cost_model.hpp"
#include "model/device.hpp"
#include "model/operation.hpp"

namespace cohls::model {

/// True when `op` may execute on a device configured as `config`.
[[nodiscard]] inline bool is_compatible(const Operation& op, const DeviceConfig& config) {
  if (!config.valid()) {
    return false;
  }
  if (op.container().has_value() && *op.container() != config.container) {
    return false;  // constraint (6)
  }
  if (op.capacity().has_value() && *op.capacity() != config.capacity) {
    return false;  // constraint (8)
  }
  return op.accessories().is_subset_of(config.accessories);  // constraint (7)
}

/// True when every requirement of `inner` is implied by the requirements of
/// `outer` — i.e. any device suitable for `outer` also suits `inner`
/// (the C_{o2} ⊆ C_{o1}, A_{o2} ⊆ A_{o1} test of Sec. 3.2).
[[nodiscard]] bool requirements_subsume(const Operation& outer, const Operation& inner);

/// All valid device configurations that can execute `op`, restricted to the
/// operation's accessory set (devices never get accessories nobody asked
/// for). Used by exhaustive checks and the conventional baseline.
[[nodiscard]] std::vector<DeviceConfig> admissible_configs(const Operation& op);

/// A device configuration with its weighted integration cost:
/// weight_area * device_area + weight_processing * device_processing.
struct PricedConfig {
  DeviceConfig config;
  double cost = 0.0;
};

/// The cheapest configuration (by weighted area + processing) that can
/// execute `op`, first in admissible_configs order among equal costs.
/// Throws InfeasibleError when no configuration fits (e.g. a chamber is
/// demanded at large capacity).
[[nodiscard]] DeviceConfig minimal_config(const Operation& op, const CostModel& costs,
                                          const AccessoryRegistry& registry);
/// minimal_config given the processing sum of `op`'s accessories, which
/// every admissible configuration shares; also returns the cost. Allocates
/// nothing and reads no registry.
[[nodiscard]] PricedConfig minimal_config(const Operation& op, const CostModel& costs,
                                          double accessory_processing);

/// Exact component-requirement signature used by the *modified conventional*
/// method of Sec. 5: operations are classified by requirements rather than
/// functionality, but binding still demands an exact class match.
struct OperationSignature {
  // -1 encodes "unspecified" for container/capacity.
  int container = -1;
  int capacity = -1;
  AccessorySet accessories;

  friend bool operator==(const OperationSignature&, const OperationSignature&) = default;
};

[[nodiscard]] OperationSignature signature_of(const Operation& op);

}  // namespace cohls::model
