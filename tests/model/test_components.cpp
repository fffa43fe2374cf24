#include "model/components.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

namespace cohls::model {
namespace {

TEST(Capacity, RingAllowsAllButTiny) {
  EXPECT_FALSE(capacity_allowed(ContainerKind::Ring, Capacity::Tiny));
  EXPECT_TRUE(capacity_allowed(ContainerKind::Ring, Capacity::Small));
  EXPECT_TRUE(capacity_allowed(ContainerKind::Ring, Capacity::Medium));
  EXPECT_TRUE(capacity_allowed(ContainerKind::Ring, Capacity::Large));
}

TEST(Capacity, ChamberAllowsAllButLarge) {
  EXPECT_TRUE(capacity_allowed(ContainerKind::Chamber, Capacity::Tiny));
  EXPECT_TRUE(capacity_allowed(ContainerKind::Chamber, Capacity::Small));
  EXPECT_TRUE(capacity_allowed(ContainerKind::Chamber, Capacity::Medium));
  EXPECT_FALSE(capacity_allowed(ContainerKind::Chamber, Capacity::Large));
}

TEST(Components, Names) {
  EXPECT_EQ(to_string(ContainerKind::Ring), "ring");
  EXPECT_EQ(to_string(ContainerKind::Chamber), "chamber");
  EXPECT_EQ(to_string(Capacity::Tiny), "tiny");
  EXPECT_EQ(to_string(Capacity::Large), "large");
}

TEST(AccessoryRegistry, BuiltinsPreRegistered) {
  const AccessoryRegistry registry;
  EXPECT_EQ(registry.count(), BuiltinAccessory::kCount);
  EXPECT_EQ(registry.name(BuiltinAccessory::kPump), "pump");
  EXPECT_EQ(registry.name(BuiltinAccessory::kHeatingPad), "heating pad");
  EXPECT_EQ(registry.name(BuiltinAccessory::kOpticalSystem), "optical system");
  EXPECT_EQ(registry.name(BuiltinAccessory::kSieveValve), "sieve valve");
  EXPECT_EQ(registry.name(BuiltinAccessory::kCellTrap), "cell trap");
}

TEST(AccessoryRegistry, RegisterExtendsTheVocabulary) {
  AccessoryRegistry registry;
  const AccessoryId sorter = registry.register_accessory("droplet sorter", 3.5);
  EXPECT_EQ(sorter, BuiltinAccessory::kCount);
  EXPECT_EQ(registry.name(sorter), "droplet sorter");
  EXPECT_DOUBLE_EQ(registry.processing_cost(sorter), 3.5);
  EXPECT_EQ(registry.find("droplet sorter"), sorter);
  const std::vector<std::string> names = registry.names();
  ASSERT_EQ(static_cast<int>(names.size()), registry.count());
  for (AccessoryId id = 0; id < registry.count(); ++id) {
    EXPECT_EQ(names[static_cast<std::size_t>(id)], registry.name(id));
  }
}

TEST(AccessoryRegistry, FindUnknownReturnsNegative) {
  const AccessoryRegistry registry;
  EXPECT_LT(registry.find("tractor beam"), 0);
}

TEST(AccessoryRegistry, RejectsDuplicatesAndBadInput) {
  AccessoryRegistry registry;
  EXPECT_THROW(registry.register_accessory("pump", 1.0), PreconditionError);
  EXPECT_THROW(registry.register_accessory("", 1.0), PreconditionError);
  EXPECT_THROW(registry.register_accessory("x", -1.0), PreconditionError);
}

TEST(AccessoryRegistry, UnknownIdThrows) {
  const AccessoryRegistry registry;
  EXPECT_THROW((void)registry.name(99), PreconditionError);
  EXPECT_THROW((void)registry.processing_cost(-1), PreconditionError);
}

TEST(AccessorySet, InsertEraseContains) {
  AccessorySet set;
  EXPECT_TRUE(set.empty());
  set.insert(BuiltinAccessory::kPump);
  set.insert(BuiltinAccessory::kSieveValve);
  EXPECT_TRUE(set.contains(BuiltinAccessory::kPump));
  EXPECT_FALSE(set.contains(BuiltinAccessory::kCellTrap));
  EXPECT_EQ(set.count(), 2);
  set.erase(BuiltinAccessory::kPump);
  EXPECT_FALSE(set.contains(BuiltinAccessory::kPump));
}

TEST(AccessorySet, SubsetTestIsTheBindingRule) {
  const AccessorySet need{BuiltinAccessory::kSieveValve};
  const AccessorySet rich{BuiltinAccessory::kSieveValve, BuiltinAccessory::kPump};
  EXPECT_TRUE(need.is_subset_of(rich));
  EXPECT_FALSE(rich.is_subset_of(need));
  EXPECT_TRUE(AccessorySet{}.is_subset_of(need));
  EXPECT_TRUE(need.is_subset_of(need));
}

TEST(AccessorySet, UnionAndList) {
  const AccessorySet a{BuiltinAccessory::kPump};
  const AccessorySet b{BuiltinAccessory::kCellTrap};
  const AccessorySet u = a.united_with(b);
  EXPECT_EQ(u.count(), 2);
  const std::vector<AccessoryId> list(u.begin(), u.end());
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0], BuiltinAccessory::kPump);
  EXPECT_EQ(list[1], BuiltinAccessory::kCellTrap);
}

TEST(AccessorySet, IteratesIdsAscending) {
  EXPECT_EQ(AccessorySet{}.begin(), AccessorySet{}.end());
  const AccessorySet set{31, 4, 0, 17};
  std::vector<AccessoryId> ids;
  for (const AccessoryId id : set) {
    ids.push_back(id);
  }
  EXPECT_EQ(ids, (std::vector<AccessoryId>{0, 4, 17, 31}));
  EXPECT_EQ(std::distance(set.begin(), set.end()), set.count());
}

TEST(AccessorySet, ToStringUsesRegistryNames) {
  const AccessoryRegistry registry;
  const AccessorySet set{BuiltinAccessory::kPump, BuiltinAccessory::kSieveValve};
  EXPECT_EQ(to_string(set, registry), "{pump, sieve valve}");
  EXPECT_EQ(to_string(AccessorySet{}, registry), "{}");
}

TEST(AccessorySet, RejectsOutOfRangeIds) {
  AccessorySet set;
  EXPECT_THROW(set.insert(-1), PreconditionError);
  EXPECT_THROW(set.insert(AccessoryRegistry::kMaxAccessories), PreconditionError);
}

}  // namespace
}  // namespace cohls::model
