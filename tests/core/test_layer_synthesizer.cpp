#include "core/layer_synthesizer.hpp"

#include <gtest/gtest.h>

#include "schedule/validate.hpp"

namespace cohls::core {
namespace {

using model::BuiltinAccessory;
using model::Capacity;
using model::ContainerKind;

OperationId add_op(model::Assay& assay, const std::string& name, Minutes duration,
                   std::vector<OperationId> parents = {}) {
  model::OperationSpec spec;
  spec.name = name;
  spec.duration = duration;
  spec.parents = std::move(parents);
  return assay.add_operation(spec);
}

TEST(LayerSynthesizer, HeuristicOnlyWhenIlpDisabled) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min);
  schedule::LayerRequest request;
  request.layer = LayerId{0};
  request.ops = {a};
  EngineOptions engine;
  engine.enable_ilp = false;
  const model::DeviceInventory inventory(3);
  const auto outcome = synthesize_layer(request, assay, schedule::TransportPlan{2_min},
                                        model::CostModel{}, engine, inventory);
  EXPECT_FALSE(outcome.used_ilp);
  EXPECT_EQ(outcome.result.schedule.items.size(), 1u);
}

TEST(LayerSynthesizer, IlpSkippedAboveSizeThresholds) {
  model::Assay assay{"t"};
  std::vector<OperationId> ops;
  for (int i = 0; i < 10; ++i) {
    ops.push_back(add_op(assay, "op" + std::to_string(i), 10_min));
  }
  schedule::LayerRequest request;
  request.layer = LayerId{0};
  request.ops = ops;
  EngineOptions engine;
  engine.ilp_max_ops = 4;  // 10 ops exceed the cap
  const model::DeviceInventory inventory(12);
  const auto outcome = synthesize_layer(request, assay, schedule::TransportPlan{2_min},
                                        model::CostModel{}, engine, inventory);
  EXPECT_FALSE(outcome.used_ilp);
}

TEST(LayerSynthesizer, IlpSkippedForCustomBindingPolicies) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min);
  schedule::LayerRequest request;
  request.layer = LayerId{0};
  request.ops = {a};
  request.binds = [](const model::Operation&, const model::DeviceConfig&) { return true; };
  EngineOptions engine;  // ILP enabled, but the custom predicate disables it
  const model::DeviceInventory inventory(3);
  const auto outcome = synthesize_layer(request, assay, schedule::TransportPlan{2_min},
                                        model::CostModel{}, engine, inventory);
  EXPECT_FALSE(outcome.used_ilp);
}

TEST(LayerSynthesizer, ExactEngineImprovesOnGreedyWhenItCan) {
  // Two ops with different single-accessory needs. The greedy builds two
  // minimal chambers (or serializes); the ILP can configure one chamber
  // with both accessories, killing the path and one integration.
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min);
  const auto b = add_op(assay, "b", 10_min, {a});
  model::OperationSpec sc;
  sc.name = "c";
  sc.duration = 10_min;
  sc.parents = {b};
  sc.accessories = {BuiltinAccessory::kHeatingPad};
  const auto c = assay.add_operation(sc);
  schedule::LayerRequest request;
  request.layer = LayerId{0};
  request.ops = {a, b, c};
  EngineOptions engine;
  const model::DeviceInventory inventory(4);
  const auto outcome = synthesize_layer(request, assay, schedule::TransportPlan{3_min},
                                        model::CostModel{}, engine, inventory);
  // Whatever engine won, the result validates and uses at most 2 devices.
  schedule::SynthesisResult wrapped;
  wrapped.layers.push_back(outcome.result.schedule);
  wrapped.devices = outcome.inventory;
  EXPECT_TRUE(
      schedule::certify_result(wrapped, assay, schedule::TransportPlan{3_min}).empty());
  EXPECT_LE(outcome.inventory.size(), 2);
}

TEST(LayerScore, CountsLayerDevicesAndPaths) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min);
  const auto b = add_op(assay, "b", 10_min, {a});
  schedule::LayerRequest request;
  request.layer = LayerId{0};
  request.ops = {a, b};

  model::DeviceInventory inventory(4);
  const auto d0 = inventory.instantiate({ContainerKind::Chamber, Capacity::Tiny, {}},
                                        LayerId{0});
  const auto d1 = inventory.instantiate({ContainerKind::Chamber, Capacity::Tiny, {}},
                                        LayerId{0});
  schedule::LayerResult result;
  result.schedule.layer = LayerId{0};
  result.schedule.items = {{a, d0, 0_min, 10_min, 2_min},
                           {b, d1, 12_min, 10_min, 0_min}};
  model::CostModel costs;
  costs.set_weights(1.0, 2.0, 3.0, 5.0);
  const double score = layer_score(result, inventory, request, assay, costs);
  const double device_cost =
      2 * (2.0 * model::device_area({ContainerKind::Chamber, Capacity::Tiny, {}}, costs) +
           3.0 * model::device_processing({ContainerKind::Chamber, Capacity::Tiny, {}},
                                          costs, assay.registry()));
  EXPECT_DOUBLE_EQ(score, 1.0 * 22.0 + device_cost + 5.0 * 1.0);
}

TEST(LayerScore, InheritedDevicesAreSunkCosts) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min);
  schedule::LayerRequest request;
  request.layer = LayerId{1};
  request.ops = {a};
  model::DeviceInventory inventory(4);
  const auto d0 = inventory.instantiate({ContainerKind::Chamber, Capacity::Tiny, {}},
                                        LayerId{0});  // created by layer 0
  schedule::LayerResult result;
  result.schedule.layer = LayerId{1};
  result.schedule.items = {{a, d0, 0_min, 10_min, 0_min}};
  const model::CostModel costs;
  const double score = layer_score(result, inventory, request, assay, costs);
  EXPECT_DOUBLE_EQ(score, costs.weight_time() * 10.0);  // time only
}

}  // namespace
}  // namespace cohls::core
