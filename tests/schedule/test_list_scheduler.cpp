#include "schedule/list_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "assays/random_assay.hpp"
#include "core/layering.hpp"
#include "schedule/validate.hpp"
#include "support/flow_reference.hpp"

namespace cohls::schedule {
namespace {

using model::BuiltinAccessory;
using model::Capacity;
using model::ContainerKind;

OperationId add_op(model::Assay& assay, const std::string& name, Minutes duration,
                   std::vector<OperationId> parents = {},
                   model::AccessorySet accessories = {}, bool indeterminate = false) {
  model::OperationSpec spec;
  spec.name = name;
  spec.duration = duration;
  spec.parents = std::move(parents);
  spec.accessories = accessories;
  spec.indeterminate = indeterminate;
  return assay.add_operation(spec);
}

SynthesisResult wrap(const model::Assay& assay, LayerResult layer,
                     model::DeviceInventory inventory) {
  SynthesisResult result;
  result.layers.push_back(std::move(layer.schedule));
  result.devices = std::move(inventory);
  (void)assay;
  return result;
}

TEST(ListScheduler, SingleOpGetsADevice) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min);
  model::DeviceInventory inventory(3);
  LayerRequest request;
  request.layer = LayerId{0};
  request.ops = {a};
  const TransportPlan transport{2_min};
  const model::CostModel costs;
  const auto result = schedule_layer(request, assay, transport, costs, inventory);
  ASSERT_EQ(result.schedule.items.size(), 1u);
  EXPECT_EQ(result.schedule.items[0].start, 0_min);
  EXPECT_EQ(inventory.size(), 1);
  EXPECT_TRUE(certify_result(wrap(assay, result, inventory), assay, transport).empty());
}

TEST(ListScheduler, ChainPrefersCoLocation) {
  // With the default weights, a dependent chain should stay on one device
  // (no transport, no path) rather than spread across devices. In the first
  // pass each parent still reserves its worst-case outgoing transport
  // (3m each here); once the estimator refines co-located edges to zero the
  // reserve vanishes.
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min);
  const auto b = add_op(assay, "b", 10_min, {a});
  const auto c = add_op(assay, "c", 10_min, {b});
  model::DeviceInventory inventory(5);
  LayerRequest request;
  request.layer = LayerId{0};
  request.ops = {a, b, c};
  const TransportPlan first_pass{3_min};
  const model::CostModel costs;
  const auto result = schedule_layer(request, assay, first_pass, costs, inventory);
  EXPECT_EQ(inventory.size(), 1);
  EXPECT_EQ(result.schedule.makespan(), 36_min);  // 30m + two 3m reserves
  EXPECT_TRUE(
      certify_result(wrap(assay, result, inventory), assay, first_pass).empty());

  // Refined plan: co-located edges cost zero, the reserves disappear.
  TransportPlan refined{3_min, assay};
  refined.set_edge_time(oracles::edge_between(assay, a, b), 0_min);
  refined.set_edge_time(oracles::edge_between(assay, b, c), 0_min);
  model::DeviceInventory inventory2(5);
  const auto result2 = schedule_layer(request, assay, refined, costs, inventory2);
  EXPECT_EQ(inventory2.size(), 1);
  EXPECT_EQ(result2.schedule.makespan(), 30_min);
}

TEST(ListScheduler, IndependentOpsRunInParallelWhenTimeMatters) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 30_min);
  const auto b = add_op(assay, "b", 30_min);
  model::DeviceInventory inventory(4);
  LayerRequest request;
  request.layer = LayerId{0};
  request.ops = {a, b};
  const TransportPlan transport{1_min};
  model::CostModel costs;
  costs.set_weights(10.0, 0.1, 0.1, 0.1);  // time-dominant
  const auto result = schedule_layer(request, assay, transport, costs, inventory);
  EXPECT_EQ(inventory.size(), 2);
  EXPECT_EQ(result.schedule.makespan(), 30_min);
}

TEST(ListScheduler, ReusesInheritedDevices) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min, {}, {BuiltinAccessory::kPump});
  model::DeviceInventory inventory(3);
  const auto inherited = inventory.instantiate(
      {ContainerKind::Ring, Capacity::Small, {BuiltinAccessory::kPump}}, LayerId{0});
  LayerRequest request;
  request.layer = LayerId{1};
  request.ops = {a};
  request.usable_devices = {inherited};
  const TransportPlan transport{2_min};
  const model::CostModel costs;
  const auto result = schedule_layer(request, assay, transport, costs, inventory);
  EXPECT_EQ(inventory.size(), 1);  // no new device
  EXPECT_EQ(result.schedule.items[0].device, inherited);
}

TEST(ListScheduler, IndeterminateOpsGetDistinctDevicesAndEndTheLayer) {
  model::Assay assay{"t"};
  const auto det = add_op(assay, "det", 20_min);
  const auto i1 = add_op(assay, "i1", 5_min, {}, {}, true);
  const auto i2 = add_op(assay, "i2", 5_min, {}, {}, true);
  model::DeviceInventory inventory(5);
  LayerRequest request;
  request.layer = LayerId{0};
  request.ops = {det, i1, i2};
  const TransportPlan transport{1_min};
  const model::CostModel costs;
  const auto result = schedule_layer(request, assay, transport, costs, inventory);
  const auto* item1 = result.schedule.find(i1);
  const auto* item2 = result.schedule.find(i2);
  ASSERT_NE(item1, nullptr);
  ASSERT_NE(item2, nullptr);
  EXPECT_NE(item1->device, item2->device);
  EXPECT_TRUE(certify_result(wrap(assay, result, inventory), assay, transport).empty());
}

// A request listing operations more than once places each once, in the
// order of first occurrence: duplicates change nothing.
TEST(ListScheduler, DuplicatedOperationsArePlacedOnce) {
  model::Assay assay{"t"};
  const auto det = add_op(assay, "det", 20_min);
  const auto i1 = add_op(assay, "i1", 5_min, {}, {}, true);
  const auto i2 = add_op(assay, "i2", 5_min, {}, {BuiltinAccessory::kPump}, true);
  const TransportPlan transport{1_min};
  const model::CostModel costs;
  const auto schedule = [&](std::vector<OperationId> ops) {
    model::DeviceInventory inventory(5);
    LayerRequest request;
    request.layer = LayerId{0};
    request.ops = std::move(ops);
    LayerResult result = schedule_layer(request, assay, transport, costs, inventory);
    EXPECT_TRUE(certify_result(wrap(assay, result, inventory), assay, transport).empty());
    return std::pair{std::move(result.schedule), inventory.size()};
  };
  const auto [once, devices] = schedule({i2, det, i1});
  ASSERT_EQ(once.items.size(), 3u);
  for (const auto& ops : std::vector<std::vector<OperationId>>{
           {i2, det, i1, i1}, {i2, i2, det, i1, det}, {i2, det, i1, i2, i1}}) {
    const auto [twice, twice_devices] = schedule(ops);
    ASSERT_EQ(twice.items.size(), once.items.size());
    for (std::size_t k = 0; k < once.items.size(); ++k) {
      EXPECT_EQ(twice.items[k].op, once.items[k].op);
      EXPECT_EQ(twice.items[k].device, once.items[k].device);
      EXPECT_EQ(twice.items[k].start, once.items[k].start);
    }
    EXPECT_EQ(twice_devices, devices);
  }
}

TEST(ListScheduler, ThrowsWhenInventoryCannotFit) {
  model::Assay assay{"t"};
  // Two ops with disjoint hard requirements but room for only one device.
  const auto a = add_op(assay, "a", 10_min, {}, {BuiltinAccessory::kHeatingPad});
  model::OperationSpec spec;
  spec.name = "b";
  spec.duration = 10_min;
  spec.container = ContainerKind::Ring;
  spec.capacity = Capacity::Large;
  const auto b = assay.add_operation(spec);
  model::DeviceInventory inventory(1);
  LayerRequest request;
  request.layer = LayerId{0};
  request.ops = {a, b};
  const TransportPlan transport{1_min};
  const model::CostModel costs;
  EXPECT_THROW(
      (void)schedule_layer(request, assay, transport, costs, inventory),
      InfeasibleError);
}

TEST(ListScheduler, CapabilityReservationKeepsSlotsForPickyOps) {
  // Nine easy ops plus one op that needs a large ring; with 2 slots the
  // scheduler must not burn both on chambers for the easy ops.
  model::Assay assay{"t"};
  std::vector<OperationId> ops;
  for (int i = 0; i < 9; ++i) {
    ops.push_back(add_op(assay, "easy" + std::to_string(i), 10_min));
  }
  model::OperationSpec picky;
  picky.name = "picky";
  picky.duration = 10_min;
  picky.container = ContainerKind::Ring;
  picky.capacity = Capacity::Large;
  ops.push_back(assay.add_operation(picky));
  model::DeviceInventory inventory(2);
  LayerRequest request;
  request.layer = LayerId{0};
  request.ops = ops;
  const TransportPlan transport{1_min};
  model::CostModel costs;
  costs.set_weights(10.0, 0.1, 0.1, 0.1);  // tempt it to parallelize
  const auto result = schedule_layer(request, assay, transport, costs, inventory);
  EXPECT_LE(inventory.size(), 2);
  EXPECT_TRUE(certify_result(wrap(assay, result, inventory), assay, transport).empty());
}

// The reservation holds slots for the *other* unsatisfied requirement
// groups: the operation being placed does not reserve a slot for itself.
// With two slots and two groups, the first device is not scarce, so it is
// not enriched with the other group's accessory.
TEST(ListScheduler, CapabilityReservationExcludesTheOperationBeingPlaced) {
  model::Assay assay{"t"};
  const auto pumped = add_op(assay, "pumped", 20_min, {}, {BuiltinAccessory::kPump});
  const auto heated = add_op(assay, "heated", 10_min, {}, {BuiltinAccessory::kHeatingPad});
  model::DeviceInventory inventory(2);
  LayerRequest request;
  request.layer = LayerId{0};
  request.ops = {pumped, heated};
  const TransportPlan transport{1_min};
  const model::CostModel costs;
  const auto result = schedule_layer(request, assay, transport, costs, inventory);
  const auto* item = result.schedule.find(pumped);
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(inventory.device(item->device).config.accessories,
            model::AccessorySet{BuiltinAccessory::kPump});
  EXPECT_TRUE(certify_result(wrap(assay, result, inventory), assay, transport).empty());
}

TEST(ListScheduler, ConsumedHintsAreReported) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min, {}, {BuiltinAccessory::kSieveValve});
  model::DeviceInventory inventory(3);
  LayerRequest request;
  request.layer = LayerId{0};
  request.ops = {a};
  request.hints = {DeviceHint{
      {ContainerKind::Ring, Capacity::Small,
       {BuiltinAccessory::kSieveValve, BuiltinAccessory::kPump}},
      /*key=*/7}};
  const TransportPlan transport{1_min};
  const model::CostModel costs;
  const auto result = schedule_layer(request, assay, transport, costs, inventory);
  // The hinted ring is free (its cost is owned elsewhere), so it wins over
  // integrating a new minimal chamber.
  ASSERT_EQ(result.consumed_hints.size(), 1u);
  EXPECT_EQ(result.consumed_hints[0], 7);
  EXPECT_EQ(inventory.size(), 1);
  EXPECT_EQ(inventory.device(DeviceId{0}).config.container, ContainerKind::Ring);
}

TEST(ListScheduler, ExactMatchPolicyMimicsConventionalBinding) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min, {}, {BuiltinAccessory::kSieveValve});
  const auto b = add_op(assay, "b", 10_min, {a}, {});  // no requirements
  model::DeviceInventory inventory(4);
  LayerRequest request;
  request.layer = LayerId{0};
  request.ops = {a, b};
  // Exact-match: b's class ({} accessories) differs from a's, so they can
  // never share a device.
  request.binds = [](const model::Operation& op, const model::DeviceConfig& config) {
    return op.accessories() == config.accessories;
  };
  request.new_config = [](const model::Operation& op) {
    return model::DeviceConfig{ContainerKind::Chamber, Capacity::Tiny, op.accessories()};
  };
  const TransportPlan transport{1_min};
  const model::CostModel costs;
  const auto result = schedule_layer(request, assay, transport, costs, inventory);
  EXPECT_EQ(inventory.size(), 2);
  const auto* item_a = result.schedule.find(a);
  const auto* item_b = result.schedule.find(b);
  EXPECT_NE(item_a->device, item_b->device);
}

TEST(ListScheduler, CrossLayerParentChargesIncomingTransport) {
  model::Assay assay{"t"};
  const auto parent = add_op(assay, "p", 10_min);
  const auto child = add_op(assay, "c", 10_min, {parent});
  model::DeviceInventory inventory(3);
  const auto d_prev = inventory.instantiate({ContainerKind::Chamber, Capacity::Tiny, {}},
                                            LayerId{0});
  LayerRequest request;
  request.layer = LayerId{1};
  request.ops = {child};
  request.prior_binding.bind(parent, d_prev);
  request.usable_devices = {d_prev};
  TransportPlan transport{4_min};
  const model::CostModel costs;
  const auto result = schedule_layer(request, assay, transport, costs, inventory);
  const auto& item = result.schedule.items[0];
  if (item.device == d_prev) {
    EXPECT_EQ(item.start, 0_min);  // same device: reagent is already there
  } else {
    EXPECT_GE(item.start, 4_min);  // moved: wait for the transfer
  }
}

// Earlier layers bind their operations to devices of the inventory the
// layer extends; a prior device outside it is an inconsistent request.
TEST(ListScheduler, RejectsPriorBindingOutsideTheInventory) {
  model::Assay assay{"t"};
  const auto parent = add_op(assay, "p", 10_min);
  const auto child = add_op(assay, "c", 10_min, {parent});
  model::DeviceInventory inventory(3);
  LayerRequest request;
  request.layer = LayerId{1};
  request.ops = {child};
  request.prior_binding.bind(parent, DeviceId{2});
  const TransportPlan transport{4_min};
  const model::CostModel costs;
  EXPECT_THROW((void)schedule_layer(request, assay, transport, costs, inventory),
               PreconditionError);
}

TEST(ListScheduler, SlotQuantizationRoundsStartsUp) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 7_min);   // ends at 7
  const auto b = add_op(assay, "b", 5_min, {a});
  model::DeviceInventory inventory(2);
  LayerRequest request;
  request.layer = LayerId{0};
  request.ops = {a, b};
  request.slot_size = 10_min;
  TransportPlan transport{0_min};
  const model::CostModel costs;
  const auto result = schedule_layer(request, assay, transport, costs, inventory);
  for (const auto& item : result.schedule.items) {
    EXPECT_EQ(item.start.count() % 10, 0)
        << assay.operation(item.op).name() << " not on a slot boundary";
  }
  // b is ready at 7 but must wait for the 10m slot.
  EXPECT_EQ(result.schedule.find(b)->start, 10_min);
  EXPECT_TRUE(certify_result(wrap(assay, result, inventory), assay, transport).empty());
}

TEST(ListScheduler, ZeroSlotSizeKeepsContinuousStarts) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 7_min);
  const auto b = add_op(assay, "b", 5_min, {a});
  model::DeviceInventory inventory(2);
  LayerRequest request;
  request.layer = LayerId{0};
  request.ops = {a, b};
  TransportPlan transport{0_min};
  const model::CostModel costs;
  const auto result = schedule_layer(request, assay, transport, costs, inventory);
  EXPECT_EQ(result.schedule.find(b)->start, 7_min);
}

// Property: the scheduler's output always certifies. Each instantiation
// widens the input one way beyond a single roomy determinate layer.
enum class Shape {
  /// 14 determinate ops in one layer, no hints, a roomy inventory.
  SingleLayer,
  /// Indeterminate ops, laid out by the layering algorithm; every layer is
  /// scheduled in turn on the devices of the layers before it.
  Indeterminate,
  /// As SingleLayer, plus device hints the layer may consume.
  Hints,
  /// Two layers: the second sees the first's binding and paths, and one of
  /// its ops is pinned to an inherited device when one fits.
  SecondLayer,
  /// As SingleLayer on the smallest inventory that schedules the layer.
  ScarceInventory,
};

struct PropertyInput {
  Shape shape;
  int seed;
};

// The seed alone: the instantiation prefix names the shape, and the
// SingleLayer instantiation keeps the names it had with a plain int seed.
void PrintTo(const PropertyInput& input, std::ostream* out) { *out << input.seed; }

std::vector<PropertyInput> seeds(Shape shape) {
  std::vector<PropertyInput> inputs;
  for (int seed = 0; seed < 25; ++seed) {
    inputs.push_back(PropertyInput{shape, seed});
  }
  return inputs;
}

std::vector<OperationId> all_ops(const model::Assay& assay) {
  std::vector<OperationId> ops;
  for (const auto& op : assay.operations()) {
    ops.push_back(op.id());
  }
  return ops;
}

/// Schedules `layers` in order the way a synthesis pass does: each layer
/// may use every device so far and sees the binding and paths of the
/// layers before it. `inherit` requires every later layer to start from a
/// non-empty binding and path set, and pins its first op that an inherited
/// device can execute (if any; 23 of the 25 seeds have one) to that device.
SynthesisResult schedule_in_turn(const model::Assay& assay,
                                 const std::vector<std::vector<OperationId>>& layers,
                                 const TransportPlan& transport, const model::CostModel& costs,
                                 int max_devices, std::vector<DeviceHint> hints = {},
                                 bool inherit = false) {
  SynthesisResult result;
  result.devices = model::DeviceInventory(max_devices);
  Binding binding;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    LayerRequest request;
    request.layer = LayerId{static_cast<std::int32_t>(li)};
    request.ops = layers[li];
    request.prior_binding = binding;
    for (const model::Device& device : result.devices.devices()) {
      request.usable_devices.push_back(device.id);
    }
    request.existing_paths = result.paths(assay);
    request.hints = hints;
    if (inherit && li > 0) {
      EXPECT_GT(request.prior_binding.size(), 0);
      EXPECT_FALSE(request.existing_paths.list().empty());
      for (const OperationId id : request.ops) {
        for (const model::Device& device : result.devices.devices()) {
          if (request.pinned.empty() && model::is_compatible(assay.operation(id), device.config)) {
            request.pinned.emplace(id, device.id);
          }
        }
      }
    }
    const LayerResult layer =
        schedule_layer(request, assay, transport, costs, result.devices);
    for (const ScheduledOperation& item : layer.schedule.items) {
      binding.bind(item.op, item.device);
      if (request.pinned.count(item.op) > 0) {
        EXPECT_EQ(item.device, request.pinned.at(item.op));
      }
    }
    for (const int key : layer.consumed_hints) {
      hints.erase(std::find_if(hints.begin(), hints.end(),
                               [key](const DeviceHint& hint) { return hint.key == key; }));
    }
    result.layers.push_back(layer.schedule);
  }
  return result;
}

class ListSchedulerProperty : public ::testing::TestWithParam<PropertyInput> {};

TEST_P(ListSchedulerProperty, OutputAlwaysValidates) {
  const PropertyInput input = GetParam();
  const auto seed = static_cast<std::uint64_t>(input.seed) * 33 + 5;
  assays::RandomAssayOptions gen;
  gen.operations = 14;
  gen.indeterminate_probability = 0.0;
  const TransportPlan transport{2_min};
  model::CostModel costs;
  SynthesisResult result;
  model::Assay assay{"unset"};
  switch (input.shape) {
    case Shape::SingleLayer:
      assay = assays::random_assay(seed, gen);
      result = schedule_in_turn(assay, {all_ops(assay)}, transport, costs, 8);
      break;
    case Shape::Indeterminate: {
      gen.operations = 20;
      gen.indeterminate_probability = 0.3;
      assay = assays::random_assay(seed, gen);
      ASSERT_GT(assay.indeterminate_count(), 0);
      const core::LayerPlan plan = core::layer_assay(assay, {/*threshold=*/3});
      result = schedule_in_turn(assay, plan.layers(), transport, costs, 25);
      break;
    }
    case Shape::Hints: {
      assay = assays::random_assay(seed, gen);
      std::vector<DeviceHint> hints;
      for (const auto& op : assay.operations()) {
        if (op.id().value() % 4 == 0) {
          model::DeviceConfig config = model::minimal_config(op, costs, assay.registry());
          config.accessories.insert(BuiltinAccessory::kPump);
          hints.push_back(DeviceHint{config, op.id().value()});
        }
      }
      result = schedule_in_turn(assay, {all_ops(assay)}, transport, costs, 8, hints);
      break;
    }
    case Shape::SecondLayer: {
      assay = assays::random_assay(seed, gen);
      // Parents carry smaller ids, so an id split is a valid layering.
      std::vector<std::vector<OperationId>> layers(2);
      for (const OperationId id : all_ops(assay)) {
        layers[id.value() < 9 ? 0 : 1].push_back(id);
      }
      costs.set_weights(10.0, 0.1, 0.1, 0.1);  // spread layer 0 over devices
      result = schedule_in_turn(assay, layers, transport, costs, 25, {}, /*inherit=*/true);
      break;
    }
    case Shape::ScarceInventory: {
      assay = assays::random_assay(seed, gen);
      costs.set_weights(10.0, 0.1, 0.1, 0.1);  // tempt it to spend slots
      for (int max_devices = 1;; ++max_devices) {
        ASSERT_LE(max_devices, 14) << "no inventory size schedules the layer";
        try {
          result = schedule_in_turn(assay, {all_ops(assay)}, transport, costs, max_devices);
          break;
        } catch (const InfeasibleError&) {
        }
      }
      break;
    }
  }
  const auto violations = certify_result(result, assay, transport);
  EXPECT_TRUE(violations.empty()) << diag::summary_line(violations.front());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ListSchedulerProperty,
                         ::testing::ValuesIn(seeds(Shape::SingleLayer)));
INSTANTIATE_TEST_SUITE_P(Indeterminate, ListSchedulerProperty,
                         ::testing::ValuesIn(seeds(Shape::Indeterminate)));
INSTANTIATE_TEST_SUITE_P(Hints, ListSchedulerProperty, ::testing::ValuesIn(seeds(Shape::Hints)));
INSTANTIATE_TEST_SUITE_P(SecondLayer, ListSchedulerProperty,
                         ::testing::ValuesIn(seeds(Shape::SecondLayer)));
INSTANTIATE_TEST_SUITE_P(ScarceInventory, ListSchedulerProperty,
                         ::testing::ValuesIn(seeds(Shape::ScarceInventory)));

}  // namespace
}  // namespace cohls::schedule
