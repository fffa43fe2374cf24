// White-box and end-to-end tests of the per-layer ILP (constraints
// (1)-(21)). The decoded solutions must pass the independent validator, and
// on small instances the exact engine must never score worse than the
// heuristic.
#include "core/ilp_layer_model.hpp"

#include <gtest/gtest.h>

#include "assays/random_assay.hpp"
#include "core/layer_synthesizer.hpp"
#include "milp/bounds.hpp"
#include "milp/branch_and_bound.hpp"
#include "schedule/objective.hpp"
#include "schedule/validate.hpp"
#include "support/flow_reference.hpp"

namespace cohls::core {
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

schedule::SynthesisResult wrap(schedule::LayerResult layer,
                               model::DeviceInventory inventory) {
  schedule::SynthesisResult result;
  result.layers.push_back(std::move(layer.schedule));
  result.devices = std::move(inventory);
  return result;
}

TEST(IlpLayerModel, SolvesASingleOperation) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min, {}, {BuiltinAccessory::kPump});
  IlpLayerInputs inputs;
  inputs.layer = LayerId{0};
  inputs.ops = {a};
  inputs.new_slots = 1;
  const schedule::TransportPlan transport{2_min};
  const model::CostModel costs;
  const IlpLayerModel ilp(assay, std::move(inputs), transport, costs);
  const auto solution = milp::solve_milp(ilp.model());
  ASSERT_EQ(solution.status, milp::MilpStatus::Optimal);
  model::DeviceInventory inventory(2);
  const auto decoded = ilp.decode(solution.values, inventory);
  ASSERT_EQ(decoded.schedule.items.size(), 1u);
  EXPECT_EQ(decoded.schedule.items[0].start, 0_min);
  ASSERT_EQ(inventory.size(), 1);
  EXPECT_TRUE(inventory.device(DeviceId{0}).config.accessories.contains(
      BuiltinAccessory::kPump));
  EXPECT_TRUE(
      schedule::certify_result(wrap(decoded, inventory), assay, transport).empty());
}

TEST(IlpLayerModel, DependencyOrdersStarts) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min);
  const auto b = add_op(assay, "b", 5_min, {a});
  IlpLayerInputs inputs;
  inputs.layer = LayerId{0};
  inputs.ops = {a, b};
  inputs.new_slots = 2;
  const schedule::TransportPlan transport{2_min};
  const model::CostModel costs;
  const IlpLayerModel ilp(assay, std::move(inputs), transport, costs);
  const auto solution = milp::solve_milp(ilp.model());
  ASSERT_EQ(solution.status, milp::MilpStatus::Optimal);
  model::DeviceInventory inventory(3);
  const auto decoded = ilp.decode(solution.values, inventory);
  const auto* item_a = decoded.schedule.find(a);
  const auto* item_b = decoded.schedule.find(b);
  ASSERT_NE(item_a, nullptr);
  ASSERT_NE(item_b, nullptr);
  if (item_a->device == item_b->device) {
    EXPECT_GE(item_b->start, item_a->end());
  } else {
    EXPECT_GE(item_b->start, item_a->end() + 2_min);
  }
  EXPECT_TRUE(
      schedule::certify_result(wrap(decoded, inventory), assay, transport).empty());
}

TEST(IlpLayerModel, CoLocationSkipsTransport) {
  // One device slot only: both ops must share it. Constraint (9)'s
  // same-device refinement drops the dependency's transport, but the
  // conflict constraints (10)-(13) still reserve the parent's worst-case
  // outgoing slot (4m) in the first pass — mirroring the heuristic.
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min);
  const auto b = add_op(assay, "b", 5_min, {a});
  IlpLayerInputs inputs;
  inputs.layer = LayerId{0};
  inputs.ops = {a, b};
  inputs.new_slots = 1;
  const schedule::TransportPlan first_pass{4_min};
  const model::CostModel costs;
  {
    const IlpLayerModel ilp(assay, inputs, first_pass, costs);
    const auto solution = milp::solve_milp(ilp.model());
    ASSERT_EQ(solution.status, milp::MilpStatus::Optimal);
    model::DeviceInventory inventory(1);
    const auto decoded = ilp.decode(solution.values, inventory);
    EXPECT_EQ(decoded.schedule.makespan(), 19_min);  // 10 + 4 reserve + 5
  }
  // A refined plan whose edge is known co-located costs nothing extra.
  schedule::TransportPlan refined{4_min, assay};
  refined.set_edge_time(oracles::edge_between(assay, a, b), 0_min);
  const IlpLayerModel ilp(assay, std::move(inputs), refined, costs);
  const auto solution = milp::solve_milp(ilp.model());
  ASSERT_EQ(solution.status, milp::MilpStatus::Optimal);
  model::DeviceInventory inventory(1);
  const auto decoded = ilp.decode(solution.values, inventory);
  EXPECT_EQ(decoded.schedule.makespan(), 15_min);  // 10 + 5, nothing reserved
}

TEST(IlpLayerModel, ConflictPreventionSeparatesSharedDevice) {
  // Two independent long ops, one slot: they must serialize.
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min);
  const auto b = add_op(assay, "b", 10_min);
  IlpLayerInputs inputs;
  inputs.layer = LayerId{0};
  inputs.ops = {a, b};
  inputs.new_slots = 1;
  const schedule::TransportPlan transport{2_min};
  const model::CostModel costs;
  const IlpLayerModel ilp(assay, std::move(inputs), transport, costs);
  const auto solution = milp::solve_milp(ilp.model());
  ASSERT_EQ(solution.status, milp::MilpStatus::Optimal);
  model::DeviceInventory inventory(1);
  const auto decoded = ilp.decode(solution.values, inventory);
  EXPECT_EQ(decoded.schedule.makespan(), 20_min);
  EXPECT_TRUE(
      schedule::certify_result(wrap(decoded, inventory), assay, transport).empty());
}

TEST(IlpLayerModel, IndeterminateEndsTheLayerAndGetsOwnDevice) {
  model::Assay assay{"t"};
  const auto det = add_op(assay, "det", 20_min);
  const auto i1 = add_op(assay, "i1", 5_min, {}, {}, true);
  const auto i2 = add_op(assay, "i2", 5_min, {}, {}, true);
  IlpLayerInputs inputs;
  inputs.layer = LayerId{0};
  inputs.ops = {det, i1, i2};
  inputs.new_slots = 3;
  const schedule::TransportPlan transport{1_min};
  const model::CostModel costs;
  const IlpLayerModel ilp(assay, std::move(inputs), transport, costs);
  const auto solution = milp::solve_milp(ilp.model());
  ASSERT_EQ(solution.status, milp::MilpStatus::Optimal);
  model::DeviceInventory inventory(3);
  const auto decoded = ilp.decode(solution.values, inventory);
  const auto violations =
      schedule::certify_result(wrap(decoded, inventory), assay, transport);
  EXPECT_TRUE(violations.empty()) << diag::summary_line(violations.front());
  EXPECT_NE(decoded.schedule.find(i1)->device, decoded.schedule.find(i2)->device);
}

TEST(IlpLayerModel, FixedDevicesCostNothingAndGetReused) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min, {}, {BuiltinAccessory::kHeatingPad});
  model::DeviceInventory inventory(3);
  const auto fixed = inventory.instantiate(
      {ContainerKind::Chamber, Capacity::Small, {BuiltinAccessory::kHeatingPad}},
      LayerId{0});
  IlpLayerInputs inputs;
  inputs.layer = LayerId{1};
  inputs.ops = {a};
  inputs.fixed_devices = {{fixed, inventory.device(fixed).config}};
  inputs.new_slots = 1;
  const schedule::TransportPlan transport{2_min};
  const model::CostModel costs;
  const IlpLayerModel ilp(assay, std::move(inputs), transport, costs);
  const auto solution = milp::solve_milp(ilp.model());
  ASSERT_EQ(solution.status, milp::MilpStatus::Optimal);
  const auto decoded = ilp.decode(solution.values, inventory);
  EXPECT_EQ(decoded.schedule.items[0].device, fixed);
  EXPECT_EQ(inventory.size(), 1);  // no new integration
}

TEST(IlpLayerModel, IncompatibleFixedDeviceForcesNewSlot) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min, {}, {BuiltinAccessory::kOpticalSystem});
  model::DeviceInventory inventory(3);
  const auto fixed = inventory.instantiate(
      {ContainerKind::Chamber, Capacity::Small, {}}, LayerId{0});
  IlpLayerInputs inputs;
  inputs.layer = LayerId{1};
  inputs.ops = {a};
  inputs.fixed_devices = {{fixed, inventory.device(fixed).config}};
  inputs.new_slots = 1;
  const schedule::TransportPlan transport{2_min};
  const model::CostModel costs;
  const IlpLayerModel ilp(assay, std::move(inputs), transport, costs);
  const auto solution = milp::solve_milp(ilp.model());
  ASSERT_EQ(solution.status, milp::MilpStatus::Optimal);
  const auto decoded = ilp.decode(solution.values, inventory);
  EXPECT_NE(decoded.schedule.items[0].device, fixed);
  EXPECT_EQ(inventory.size(), 2);
  EXPECT_TRUE(inventory.device(decoded.schedule.items[0].device)
                  .config.accessories.contains(BuiltinAccessory::kOpticalSystem));
}

TEST(IlpLayerModel, HintSlotsAreFreeAndReportConsumption) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min, {}, {BuiltinAccessory::kSieveValve});
  IlpLayerInputs inputs;
  inputs.layer = LayerId{0};
  inputs.ops = {a};
  inputs.hints = {schedule::DeviceHint{
      {ContainerKind::Ring, Capacity::Small,
       {BuiltinAccessory::kSieveValve, BuiltinAccessory::kPump}},
      /*key=*/42}};
  inputs.new_slots = 1;
  const schedule::TransportPlan transport{2_min};
  const model::CostModel costs;
  const IlpLayerModel ilp(assay, std::move(inputs), transport, costs);
  const auto solution = milp::solve_milp(ilp.model());
  ASSERT_EQ(solution.status, milp::MilpStatus::Optimal);
  model::DeviceInventory inventory(2);
  const auto decoded = ilp.decode(solution.values, inventory);
  // The free hinted ring beats paying for even a minimal new chamber.
  ASSERT_EQ(decoded.consumed_hints.size(), 1u);
  EXPECT_EQ(decoded.consumed_hints[0], 42);
  EXPECT_EQ(inventory.device(decoded.schedule.items[0].device).config.container,
            ContainerKind::Ring);
}

TEST(IlpLayerModel, RingOnlyCapacityRequirementForcesRing) {
  model::Assay assay{"t"};
  model::OperationSpec spec;
  spec.name = "big";
  spec.duration = 10_min;
  spec.capacity = Capacity::Large;  // only rings can be large
  const auto a = assay.add_operation(spec);
  IlpLayerInputs inputs;
  inputs.layer = LayerId{0};
  inputs.ops = {a};
  inputs.new_slots = 1;
  const schedule::TransportPlan transport{2_min};
  const model::CostModel costs;
  const IlpLayerModel ilp(assay, std::move(inputs), transport, costs);
  const auto solution = milp::solve_milp(ilp.model());
  ASSERT_EQ(solution.status, milp::MilpStatus::Optimal);
  model::DeviceInventory inventory(1);
  const auto decoded = ilp.decode(solution.values, inventory);
  const auto& config = inventory.device(decoded.schedule.items[0].device).config;
  EXPECT_EQ(config.container, ContainerKind::Ring);
  EXPECT_EQ(config.capacity, Capacity::Large);
}

TEST(IlpLayerModel, RejectsModelWithoutDeviceSlots) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min, {}, {BuiltinAccessory::kCellTrap});
  IlpLayerInputs inputs;
  inputs.layer = LayerId{0};
  inputs.ops = {a};
  inputs.new_slots = 0;  // no devices at all: rejected up-front
  const schedule::TransportPlan transport{2_min};
  const model::CostModel costs;
  EXPECT_THROW(IlpLayerModel(assay, std::move(inputs), transport, costs),
               PreconditionError);
}

TEST(IlpLayerModel, InfeasibleWhenOnlyDeviceCannotHost) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min, {}, {BuiltinAccessory::kCellTrap});
  IlpLayerInputs inputs;
  inputs.layer = LayerId{0};
  inputs.ops = {a};
  // A single fixed device with no cell trap and no new slots: constraint
  // (5) cannot be satisfied.
  inputs.fixed_devices = {
      {DeviceId{0}, model::DeviceConfig{ContainerKind::Chamber, Capacity::Tiny, {}}}};
  inputs.new_slots = 0;
  const schedule::TransportPlan transport{2_min};
  const model::CostModel costs;
  const IlpLayerModel ilp(assay, std::move(inputs), transport, costs);
  EXPECT_EQ(milp::solve_milp(ilp.model()).status, milp::MilpStatus::Infeasible);
}

// Cross-engine consistency: on a fresh single layer (no inherited devices,
// no pre-existing paths), the MILP's internal objective value must equal
// the shared evaluator's score of the decoded schedule.
TEST(IlpLayerModel, ObjectiveMatchesTheSharedEvaluator) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min, {}, {BuiltinAccessory::kPump});
  const auto b = add_op(assay, "b", 8_min, {a}, {BuiltinAccessory::kHeatingPad});
  const auto c = add_op(assay, "c", 6_min, {b}, {});
  IlpLayerInputs inputs;
  inputs.layer = LayerId{0};
  inputs.ops = {a, b, c};
  inputs.new_slots = 3;
  const schedule::TransportPlan transport{2_min};
  const model::CostModel costs;
  const IlpLayerModel ilp(assay, std::move(inputs), transport, costs);
  const auto solution = milp::solve_milp(ilp.model());
  ASSERT_EQ(solution.status, milp::MilpStatus::Optimal);
  model::DeviceInventory inventory(3);
  const auto decoded = ilp.decode(solution.values, inventory);
  schedule::SynthesisResult wrapped;
  wrapped.layers.push_back(decoded.schedule);
  wrapped.devices = inventory;
  const auto breakdown = schedule::evaluate_objective(wrapped, assay, costs);
  EXPECT_NEAR(solution.objective, breakdown.weighted_total, 1e-6);
}

// Property: on random small layers, the decoded ILP solution validates and
// scores no worse than the heuristic under the shared layer objective.
class IlpVsHeuristic : public ::testing::TestWithParam<int> {};

TEST_P(IlpVsHeuristic, ExactNeverLosesAndAlwaysValidates) {
  assays::RandomAssayOptions gen;
  gen.operations = 4;
  gen.indeterminate_probability = 0.2;
  gen.max_parents = 2;
  const model::Assay assay =
      assays::random_assay(static_cast<std::uint64_t>(GetParam()) * 977 + 3, gen);
  // Use only assays whose ops can form one layer (no indeterminate op with
  // descendants).
  for (const auto& op : assay.operations()) {
    if (op.indeterminate() && !assay.children(op.id()).empty()) {
      GTEST_SKIP() << "assay needs layering; covered elsewhere";
    }
  }
  schedule::LayerRequest request;
  request.layer = LayerId{0};
  for (const auto& op : assay.operations()) {
    request.ops.push_back(op.id());
  }
  const schedule::TransportPlan transport{2_min};
  const model::CostModel costs;
  EngineOptions engine;
  engine.ilp_max_ops = 6;
  engine.ilp_max_devices = 8;
  engine.ilp_new_slots = 3;
  const model::DeviceInventory inventory(4);

  model::DeviceInventory heuristic_inventory = inventory;
  const auto heuristic =
      schedule_layer(request, assay, transport, costs, heuristic_inventory);
  const double heuristic_score =
      layer_score(heuristic, heuristic_inventory, request, assay, costs);

  const LayerOutcome outcome =
      synthesize_layer(request, assay, transport, costs, engine, inventory);
  EXPECT_LE(outcome.score, heuristic_score + 1e-6);

  schedule::SynthesisResult wrapped;
  wrapped.layers.push_back(outcome.result.schedule);
  wrapped.devices = outcome.inventory;
  const auto violations = schedule::certify_result(wrapped, assay, transport);
  EXPECT_TRUE(violations.empty()) << diag::summary_line(violations.front());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlpVsHeuristic, ::testing::Range(0, 10));

TEST(IlpLayerModel, PinnedBindingIsEnforced) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min);
  const auto b = add_op(assay, "b", 5_min);

  model::DeviceInventory inventory(4);
  const model::DeviceConfig config{ContainerKind::Chamber, Capacity::Tiny, {}};
  const auto d0 = inventory.instantiate(config, LayerId{0});
  const auto d1 = inventory.instantiate(config, LayerId{0});

  IlpLayerInputs inputs;
  inputs.layer = LayerId{0};
  inputs.ops = {a, b};
  inputs.fixed_devices = {{d0, config}, {d1, config}};
  inputs.new_slots = 0;
  // Without the pin the optimum would place `a` anywhere; the pin forces the
  // second device even though both are symmetric.
  inputs.pinned = {{a, d1}};
  const schedule::TransportPlan transport{2_min};
  const model::CostModel costs;
  const IlpLayerModel ilp(assay, std::move(inputs), transport, costs);
  const auto solution = milp::solve_milp(ilp.model());
  ASSERT_EQ(solution.status, milp::MilpStatus::Optimal);
  const auto decoded = ilp.decode(solution.values, inventory);
  const auto* item_a = decoded.schedule.find(a);
  ASSERT_NE(item_a, nullptr);
  EXPECT_EQ(item_a->device, d1);
  EXPECT_TRUE(
      schedule::certify_result(wrap(decoded, inventory), assay, transport).empty());
}

TEST(IlpLayerModel, BoundProviderIsAdmissibleAndPreservesTheOptimum) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min);
  const auto b = add_op(assay, "b", 8_min, {a});
  const auto c = add_op(assay, "c", 6_min);
  IlpLayerInputs inputs;
  inputs.layer = LayerId{0};
  inputs.ops = {a, b, c};
  inputs.new_slots = 2;
  const schedule::TransportPlan transport{2_min};
  const model::CostModel costs;
  const IlpLayerModel ilp(assay, std::move(inputs), transport, costs);

  const auto reference = milp::solve_milp(ilp.model());
  ASSERT_EQ(reference.status, milp::MilpStatus::Optimal);

  const auto provider = ilp.bound_provider();
  ASSERT_NE(provider, nullptr);
  std::vector<double> lower, upper;
  for (lp::Col col = 0; col < ilp.model().variable_count(); ++col) {
    lower.push_back(ilp.model().lp().lower_bound(col));
    upper.push_back(ilp.model().lp().upper_bound(col));
  }
  const double bound = provider->objective_lower_bound(lower, upper);
  EXPECT_LE(bound, reference.objective + 1e-6);

  milp::MilpOptions options;
  options.bounds = provider;
  const auto bounded = milp::solve_milp(ilp.model(), options);
  ASSERT_EQ(bounded.status, milp::MilpStatus::Optimal);
  EXPECT_NEAR(bounded.objective, reference.objective, 1e-6);
}

TEST(IlpLayerModel, EncodeProducesAFeasibleWarmStart) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a", 10_min);
  const auto b = add_op(assay, "b", 8_min, {a});
  const auto c = add_op(assay, "c", 6_min, {a});
  schedule::LayerRequest request;
  request.layer = LayerId{0};
  request.ops = {a, b, c};
  const schedule::TransportPlan transport{2_min};
  const model::CostModel costs;

  model::DeviceInventory heuristic_inventory(4);
  const auto heuristic =
      schedule_layer(request, assay, transport, costs, heuristic_inventory);

  IlpLayerInputs inputs;
  inputs.layer = request.layer;
  inputs.ops = request.ops;
  inputs.new_slots = 3;
  const IlpLayerModel ilp(assay, std::move(inputs), transport, costs);
  const std::vector<double> seed = ilp.encode(heuristic, heuristic_inventory);
  ASSERT_FALSE(seed.empty());
  EXPECT_TRUE(ilp.model().is_feasible(seed, 1e-6));

  // Seeding the encoded point as the warm start must keep the solve exact
  // and can only help: the optimum is no worse than the heuristic's value.
  milp::MilpOptions options;
  options.warm_start = seed;
  const auto solution = milp::solve_milp(ilp.model(), options);
  ASSERT_EQ(solution.status, milp::MilpStatus::Optimal);
  EXPECT_LE(solution.objective, ilp.model().lp().objective_value(seed) + 1e-6);
}

}  // namespace
}  // namespace cohls::core
