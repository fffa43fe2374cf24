// Test-only reference for model::minimal_config: the original argmin over
// the materialized admissible_configs list, pricing each configuration
// through the registry. The library version walks the same configurations
// without a list and sums the accessory costs once; the differential test
// holds it to the same configuration and a bit-identical cost.
#pragma once

#include "model/compatibility.hpp"

namespace cohls::oracles {

/// model::minimal_config as an argmin over admissible_configs; throws
/// InfeasibleError when the list is empty.
[[nodiscard]] model::PricedConfig minimal_config_reference(const model::Operation& op,
                                                           const model::CostModel& costs,
                                                           const model::AccessoryRegistry& registry);

}  // namespace cohls::oracles
