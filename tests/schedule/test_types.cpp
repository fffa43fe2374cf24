#include "schedule/types.hpp"

#include <gtest/gtest.h>

namespace cohls::schedule {
namespace {

model::Assay two_layer_assay() {
  model::Assay assay("t");
  model::OperationSpec a;
  a.name = "a";
  a.duration = 10_min;
  a.indeterminate = true;
  const auto a_id = assay.add_operation(a);
  model::OperationSpec b;
  b.name = "b";
  b.duration = 20_min;
  b.parents = {a_id};
  (void)assay.add_operation(b);
  return assay;
}

TEST(ScheduledOperation, EndAndRelease) {
  const ScheduledOperation item{OperationId{0}, DeviceId{0}, 5_min, 10_min, 2_min};
  EXPECT_EQ(item.end(), 15_min);
  EXPECT_EQ(item.release(), 17_min);
}

TEST(LayerSchedule, MakespanIsLatestCompletion) {
  LayerSchedule layer;
  layer.items = {{OperationId{0}, DeviceId{0}, 0_min, 10_min, 0_min},
                 {OperationId{1}, DeviceId{1}, 5_min, 3_min, 0_min}};
  EXPECT_EQ(layer.makespan(), 10_min);
}

TEST(LayerSchedule, EmptyLayerMakespanZero) {
  EXPECT_EQ(LayerSchedule{}.makespan(), 0_min);
}

TEST(LayerSchedule, FindLocatesItems) {
  LayerSchedule layer;
  layer.items = {{OperationId{3}, DeviceId{0}, 0_min, 10_min, 0_min}};
  EXPECT_NE(layer.find(OperationId{3}), nullptr);
  EXPECT_EQ(layer.find(OperationId{4}), nullptr);
}

TEST(MakePath, Unordered) {
  EXPECT_EQ(make_path(DeviceId{3}, DeviceId{1}), make_path(DeviceId{1}, DeviceId{3}));
}

TEST(SynthesisResult, BindingUnionsLayers) {
  const model::Assay assay = two_layer_assay();
  SynthesisResult result;
  result.devices = model::DeviceInventory(3);
  const model::DeviceConfig ring{model::ContainerKind::Ring, model::Capacity::Small, {}};
  const auto d0 = result.devices.instantiate(ring, LayerId{0});
  const auto d1 = result.devices.instantiate(ring, LayerId{1});
  result.layers.push_back(
      {LayerId{0}, {{OperationId{0}, d0, 0_min, 10_min, 0_min}}});
  result.layers.push_back(
      {LayerId{1}, {{OperationId{1}, d1, 0_min, 20_min, 0_min}}});
  const auto binding = result.binding();
  EXPECT_EQ(binding.at(OperationId{0}), d0);
  EXPECT_EQ(binding.at(OperationId{1}), d1);
  // Cross-layer parent->child on different devices = one path.
  EXPECT_EQ(result.path_count(assay), 1);
  EXPECT_EQ(result.used_device_count(), 2);
}

TEST(SynthesisResult, SameDeviceEdgesCreateNoPath) {
  const model::Assay assay = two_layer_assay();
  SynthesisResult result;
  result.devices = model::DeviceInventory(2);
  const model::DeviceConfig ring{model::ContainerKind::Ring, model::Capacity::Small, {}};
  const auto d0 = result.devices.instantiate(ring, LayerId{0});
  result.layers.push_back({LayerId{0}, {{OperationId{0}, d0, 0_min, 10_min, 0_min}}});
  result.layers.push_back({LayerId{1}, {{OperationId{1}, d0, 0_min, 20_min, 0_min}}});
  EXPECT_EQ(result.path_count(assay), 0);
}

// Operation ids index the flat binding: an id outside the assay must be a
// precondition error, never an out-of-bounds access.
TEST(SynthesisResult, PathsRejectOperationsOutsideTheAssay) {
  const model::Assay assay = two_layer_assay();
  for (const int foreign : {-1, 2, 1 << 30}) {
    SynthesisResult result;
    result.devices = model::DeviceInventory(2);
    const model::DeviceConfig ring{model::ContainerKind::Ring, model::Capacity::Small, {}};
    const auto d0 = result.devices.instantiate(ring, LayerId{0});
    result.layers.push_back({LayerId{0}, {{OperationId{0}, d0, 0_min, 10_min, 0_min}}});
    result.layers.push_back({LayerId{1}, {{OperationId{foreign}, d0, 0_min, 20_min, 0_min}}});
    EXPECT_THROW((void)result.paths(assay), PreconditionError) << foreign;
    EXPECT_THROW((void)result.path_count(assay), PreconditionError) << foreign;
    EXPECT_THROW((void)result.dense_binding(assay), PreconditionError) << foreign;
  }
}

TEST(SynthesisResult, DenseBindingIndexesByOperationId) {
  const model::Assay assay = two_layer_assay();
  SynthesisResult result;
  result.devices = model::DeviceInventory(2);
  const model::DeviceConfig ring{model::ContainerKind::Ring, model::Capacity::Small, {}};
  const auto d0 = result.devices.instantiate(ring, LayerId{0});
  result.layers.push_back({LayerId{0}, {{OperationId{1}, d0, 0_min, 20_min, 0_min}}});
  const auto binding = result.dense_binding(assay);
  ASSERT_EQ(binding.size(), 2);
  EXPECT_FALSE(binding.device(OperationId{0}).valid());
  EXPECT_EQ(binding.device(OperationId{1}), d0);
}

TEST(SynthesisResult, TotalTimeAddsSymbolPerIndeterminateLayer) {
  const model::Assay assay = two_layer_assay();
  SynthesisResult result;
  result.devices = model::DeviceInventory(2);
  const model::DeviceConfig ring{model::ContainerKind::Ring, model::Capacity::Small, {}};
  const auto d0 = result.devices.instantiate(ring, LayerId{0});
  result.layers.push_back({LayerId{0}, {{OperationId{0}, d0, 0_min, 10_min, 0_min}}});
  result.layers.push_back({LayerId{1}, {{OperationId{1}, d0, 0_min, 20_min, 0_min}}});
  const SymbolicDuration total = result.total_time(assay);
  EXPECT_EQ(total.fixed(), 30_min);
  EXPECT_EQ(total.to_string(), "30m+I1");  // only layer 1 holds indeterminate ops
}

}  // namespace
}  // namespace cohls::schedule
