#include "model/operation.hpp"

#include <gtest/gtest.h>

namespace cohls::model {
namespace {

OperationSpec valid_spec() {
  OperationSpec spec;
  spec.name = "mix";
  spec.duration = 10_min;
  return spec;
}

TEST(Operation, StoresSpec) {
  OperationSpec spec = valid_spec();
  spec.container = ContainerKind::Ring;
  spec.capacity = Capacity::Medium;
  spec.accessories = {BuiltinAccessory::kPump};
  spec.indeterminate = true;
  const Operation op(OperationId{3}, spec);
  EXPECT_EQ(op.id(), OperationId{3});
  EXPECT_EQ(op.name(), "mix");
  EXPECT_EQ(op.container(), ContainerKind::Ring);
  EXPECT_EQ(op.capacity(), Capacity::Medium);
  EXPECT_TRUE(op.accessories().contains(BuiltinAccessory::kPump));
  EXPECT_TRUE(op.indeterminate());
  EXPECT_EQ(op.duration(), 10_min);
  EXPECT_TRUE(op.parents().empty());
  EXPECT_TRUE(op.parent_edges().empty());
}

// Dependencies live in the assay's edge arrays: a stand-alone operation
// cannot carry parents (Assay::add_operation takes them instead).
TEST(Operation, ParentsExistOnlyInAnAssay) {
  OperationSpec spec = valid_spec();
  spec.parents = {OperationId{0}};
  EXPECT_THROW(Operation(OperationId{3}, spec), PreconditionError);
}

TEST(Operation, UnspecifiedContainerAndCapacityStayUnset) {
  const Operation op(OperationId{0}, valid_spec());
  EXPECT_FALSE(op.container().has_value());
  EXPECT_FALSE(op.capacity().has_value());
  EXPECT_TRUE(op.accessories().empty());
  EXPECT_FALSE(op.indeterminate());
}

TEST(Operation, RejectsEmptyName) {
  OperationSpec spec = valid_spec();
  spec.name.clear();
  EXPECT_THROW(Operation(OperationId{0}, spec), PreconditionError);
}

TEST(Operation, RejectsNonPositiveDuration) {
  OperationSpec spec = valid_spec();
  spec.duration = Minutes{0};
  EXPECT_THROW(Operation(OperationId{0}, spec), PreconditionError);
  spec.duration = Minutes{-5};
  EXPECT_THROW(Operation(OperationId{0}, spec), PreconditionError);
}

TEST(Operation, RejectsInvalidId) {
  EXPECT_THROW(Operation(OperationId{}, valid_spec()), PreconditionError);
}

TEST(Operation, RejectsContradictoryContainerCapacity) {
  OperationSpec spec = valid_spec();
  spec.container = ContainerKind::Chamber;
  spec.capacity = Capacity::Large;  // chambers cannot be large
  EXPECT_THROW(Operation(OperationId{0}, spec), PreconditionError);
  spec.container = ContainerKind::Ring;
  spec.capacity = Capacity::Tiny;  // rings cannot be tiny
  EXPECT_THROW(Operation(OperationId{0}, spec), PreconditionError);
}

}  // namespace
}  // namespace cohls::model
