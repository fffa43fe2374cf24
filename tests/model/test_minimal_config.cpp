// model::minimal_config against the list-based argmin kept in tests/support:
// the same configuration and a bit-identical cost for every container /
// capacity / accessory requirement combination, under the default cost
// model and under randomized ones drawn from a few values so that
// configurations often tie.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/compatibility.hpp"
#include "support/config_reference.hpp"
#include "util/rng.hpp"

namespace cohls::model {
namespace {

/// One operation per requirement combination over the registry's first
/// `accessory_kinds` accessories. (An Operation cannot demand a capacity its
/// container lacks, so every combination has an admissible configuration.)
std::vector<Operation> every_requirement_combination(int accessory_kinds) {
  const std::optional<ContainerKind> containers[] = {std::nullopt, ContainerKind::Ring,
                                                     ContainerKind::Chamber};
  std::vector<std::optional<Capacity>> capacities{std::nullopt};
  capacities.insert(capacities.end(), kAllCapacities.begin(), kAllCapacities.end());
  std::vector<Operation> ops;
  for (const auto container : containers) {
    for (const auto capacity : capacities) {
      if (container && capacity && !capacity_allowed(*container, *capacity)) {
        continue;
      }
      for (std::uint32_t bits = 0; bits < (std::uint32_t{1} << accessory_kinds); ++bits) {
        OperationSpec spec;
        spec.name = "op" + std::to_string(ops.size());
        spec.duration = 10_min;
        spec.container = container;
        spec.capacity = capacity;
        for (AccessoryId id = 0; id < accessory_kinds; ++id) {
          if ((bits >> id & 1) != 0) {
            spec.accessories.insert(id);
          }
        }
        ops.emplace_back(OperationId{static_cast<std::int32_t>(ops.size())}, spec);
      }
    }
  }
  return ops;
}

void expect_matches_reference(const Operation& op, const CostModel& costs,
                              const AccessoryRegistry& registry) {
  const PricedConfig expected = oracles::minimal_config_reference(op, costs, registry);
  const double accessories = registry.total_processing_cost(op.accessories());
  const PricedConfig priced = minimal_config(op, costs, accessories);
  EXPECT_EQ(priced.config, expected.config) << op.name();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(priced.cost), std::bit_cast<std::uint64_t>(expected.cost))
      << op.name() << ": " << priced.cost << " vs " << expected.cost;
  EXPECT_EQ(minimal_config(op, costs, registry), expected.config) << op.name();
  // The cost table sums exactly like the registry.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(registry.cost_table().total(op.accessories())),
            std::bit_cast<std::uint64_t>(accessories));
}

TEST(MinimalConfig, MatchesReferenceUnderDefaultCosts) {
  const CostModel costs;
  const AccessoryRegistry registry;
  for (const Operation& op : every_requirement_combination(BuiltinAccessory::kCount)) {
    expect_matches_reference(op, costs, registry);
  }
}

TEST(MinimalConfig, MatchesReferenceUnderRandomCosts) {
  static constexpr double kValues[] = {0.0, 0.1, 0.5, 0.7, 1.0, 1.5, 3.0};
  Rng rng{20170618};
  const auto pick = [&] { return kValues[rng.uniform_int(0, std::size(kValues) - 1)]; };
  for (int draw = 0; draw < 60; ++draw) {
    CostModel costs;
    for (const ContainerKind kind : {ContainerKind::Ring, ContainerKind::Chamber}) {
      for (const Capacity capacity : kAllCapacities) {
        costs.set_area(kind, capacity, pick());
        costs.set_container_processing(kind, capacity, pick());
      }
    }
    costs.set_weights(pick(), pick(), pick(), pick());
    AccessoryRegistry registry;
    (void)registry.register_accessory("sorter", pick());
    (void)registry.register_accessory("electrode", pick());
    for (const Operation& op : every_requirement_combination(BuiltinAccessory::kCount + 2)) {
      expect_matches_reference(op, costs, registry);
    }
  }
}

TEST(MinimalConfig, TiesGoToTheFirstAdmissibleConfiguration) {
  CostModel costs;
  for (const ContainerKind kind : {ContainerKind::Ring, ContainerKind::Chamber}) {
    for (const Capacity capacity : kAllCapacities) {
      costs.set_area(kind, capacity, 1.0);
      costs.set_container_processing(kind, capacity, 1.0);
    }
  }
  const AccessoryRegistry registry;
  for (const Operation& op : every_requirement_combination(2)) {
    EXPECT_EQ(minimal_config(op, costs, registry), admissible_configs(op).front()) << op.name();
    expect_matches_reference(op, costs, registry);
  }
}

}  // namespace
}  // namespace cohls::model
