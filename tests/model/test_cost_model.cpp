#include "model/cost_model.hpp"

#include <gtest/gtest.h>

namespace cohls::model {
namespace {

TEST(CostModel, RingsCostMoreThanChambers) {
  const CostModel costs;
  for (const Capacity cap : {Capacity::Small, Capacity::Medium}) {
    EXPECT_GT(costs.area(ContainerKind::Ring, cap), costs.area(ContainerKind::Chamber, cap));
    EXPECT_GT(costs.container_processing(ContainerKind::Ring, cap),
              costs.container_processing(ContainerKind::Chamber, cap));
  }
}

TEST(CostModel, AreaGrowsWithCapacity) {
  const CostModel costs;
  EXPECT_LT(costs.area(ContainerKind::Ring, Capacity::Small),
            costs.area(ContainerKind::Ring, Capacity::Large));
  EXPECT_LT(costs.area(ContainerKind::Chamber, Capacity::Tiny),
            costs.area(ContainerKind::Chamber, Capacity::Medium));
}

TEST(CostModel, SettersOverride) {
  CostModel costs;
  costs.set_area(ContainerKind::Ring, Capacity::Small, 42.0);
  EXPECT_DOUBLE_EQ(costs.area(ContainerKind::Ring, Capacity::Small), 42.0);
  costs.set_container_processing(ContainerKind::Chamber, Capacity::Tiny, 7.5);
  EXPECT_DOUBLE_EQ(costs.container_processing(ContainerKind::Chamber, Capacity::Tiny), 7.5);
}

TEST(CostModel, SettersRejectNegative) {
  CostModel costs;
  EXPECT_THROW(costs.set_area(ContainerKind::Ring, Capacity::Small, -1.0),
               PreconditionError);
  EXPECT_THROW(costs.set_container_processing(ContainerKind::Ring, Capacity::Small, -1.0),
               PreconditionError);
  EXPECT_THROW(costs.set_weights(-1, 0, 0, 0), PreconditionError);
}

TEST(CostModel, AccessorySetProcessingSumsRegistryCosts) {
  const CostModel costs;
  const AccessoryRegistry registry;
  const AccessorySet set{BuiltinAccessory::kPump, BuiltinAccessory::kCellTrap};
  EXPECT_DOUBLE_EQ(costs.accessory_set_processing(registry, set),
                   registry.processing_cost(BuiltinAccessory::kPump) +
                       registry.processing_cost(BuiltinAccessory::kCellTrap));
  EXPECT_DOUBLE_EQ(costs.accessory_set_processing(registry, AccessorySet{}), 0.0);
}

TEST(CostModel, AccessorySetProcessingAddsInAscendingIdOrder) {
  const CostModel costs;
  AccessoryRegistry registry;
  const AccessoryId sorter = registry.register_accessory("droplet sorter", 0.1);
  const AccessorySet set{sorter, BuiltinAccessory::kOpticalSystem, BuiltinAccessory::kPump};
  double expected = 0.0;
  for (const AccessoryId id : set) {
    expected += registry.processing_cost(id);
  }
  EXPECT_EQ(costs.accessory_set_processing(registry, set), expected);
  // An id the registry does not know is still rejected.
  EXPECT_THROW((void)costs.accessory_set_processing(registry, AccessorySet{sorter + 1}),
               PreconditionError);
}

TEST(CostModel, WeightsRoundTrip) {
  CostModel costs;
  costs.set_weights(1.5, 2.5, 3.5, 4.5);
  EXPECT_DOUBLE_EQ(costs.weight_time(), 1.5);
  EXPECT_DOUBLE_EQ(costs.weight_area(), 2.5);
  EXPECT_DOUBLE_EQ(costs.weight_processing(), 3.5);
  EXPECT_DOUBLE_EQ(costs.weight_paths(), 4.5);
}

}  // namespace
}  // namespace cohls::model
