#include "baseline/conventional.hpp"

#include <gtest/gtest.h>

#include "assays/benchmarks.hpp"
#include "schedule/objective.hpp"
#include "schedule/validate.hpp"

namespace cohls::baseline {
namespace {

using model::BuiltinAccessory;
using model::Capacity;
using model::ContainerKind;

model::Operation make_op(std::optional<ContainerKind> container,
                         std::optional<Capacity> capacity,
                         model::AccessorySet accessories) {
  model::OperationSpec spec;
  spec.name = "op";
  spec.duration = 10_min;
  spec.container = container;
  spec.capacity = capacity;
  spec.accessories = accessories;
  return model::Operation(OperationId{0}, spec);
}

TEST(ClassConfig, SpecifiedRequirementsCarryOver) {
  const auto op = make_op(ContainerKind::Ring, Capacity::Medium,
                          {BuiltinAccessory::kPump});
  const model::DeviceConfig config = class_config(op);
  EXPECT_EQ(config.container, ContainerKind::Ring);
  EXPECT_EQ(config.capacity, Capacity::Medium);
  EXPECT_EQ(config.accessories, (model::AccessorySet{BuiltinAccessory::kPump}));
}

TEST(ClassConfig, UnspecifiedContainerDefaultsToChamberTiny) {
  const auto op = make_op(std::nullopt, std::nullopt, {});
  const model::DeviceConfig config = class_config(op);
  EXPECT_EQ(config.container, ContainerKind::Chamber);
  EXPECT_EQ(config.capacity, Capacity::Tiny);
}

TEST(ClassConfig, LargeCapacityForcesRing) {
  const auto op = make_op(std::nullopt, Capacity::Large, {});
  const model::DeviceConfig config = class_config(op);
  EXPECT_EQ(config.container, ContainerKind::Ring);
  EXPECT_EQ(config.capacity, Capacity::Large);
}

TEST(ClassMatch, ExactMatchOnly) {
  // The conventional rule denies the subset-binding the component-oriented
  // rule allows: an op needing only a sieve valve cannot use a sieve+pump
  // device.
  const auto op = make_op(std::nullopt, std::nullopt, {BuiltinAccessory::kSieveValve});
  EXPECT_TRUE(class_match(op, class_config(op)));
  model::DeviceConfig richer = class_config(op);
  richer.accessories.insert(BuiltinAccessory::kPump);
  EXPECT_FALSE(class_match(op, richer));
  EXPECT_TRUE(model::is_compatible(op, richer)) << "component-oriented rule accepts it";
}

TEST(Conventional, ProducesValidSchedules) {
  const model::Assay assay = assays::kinase_activity_assay();
  core::SynthesisOptions options;
  options.max_devices = 25;
  const auto report = synthesize_conventional(assay, options);
  const auto violations =
      schedule::certify_result(report.result, assay, report.transport);
  EXPECT_TRUE(violations.empty()) << diag::summary_line(violations.front());
}

TEST(Conventional, EveryBindingIsAnExactClassMatch) {
  const model::Assay assay = assays::gene_expression_assay(4);
  core::SynthesisOptions options;
  options.max_devices = 20;
  options.layering.indeterminate_threshold = 4;
  const auto report = synthesize_conventional(assay, options);
  for (const auto& [op, device] : report.result.binding()) {
    EXPECT_TRUE(class_match(assay.operation(op),
                            report.result.devices.device(device).config))
        << "operation '" << assay.operation(op).name()
        << "' bound outside its class";
  }
}

TEST(Conventional, QuantizesStartsToTheSlotGrid) {
  const model::Assay assay = assays::kinase_activity_assay();
  core::SynthesisOptions options;
  options.max_devices = 25;
  const auto report = synthesize_conventional(assay, options, 10_min);
  for (const auto& layer : report.result.layers) {
    for (const auto& item : layer.items) {
      EXPECT_EQ(item.start.count() % 10, 0);
    }
  }
}

TEST(Conventional, CoarserSlotsNeverSpeedUpTheAssay) {
  const model::Assay assay = assays::kinase_activity_assay();
  core::SynthesisOptions options;
  options.max_devices = 25;
  const auto continuous = synthesize_conventional(assay, options, 0_min);
  const auto coarse = synthesize_conventional(assay, options, 20_min);
  EXPECT_LE(continuous.result.total_time(assay).fixed(),
            coarse.result.total_time(assay).fixed());
}

TEST(Conventional, RejectsNegativeSlotSize) {
  const model::Assay assay = assays::kinase_activity_assay(1);
  EXPECT_THROW(
      (void)synthesize_conventional(assay, core::SynthesisOptions{}, Minutes{-1}),
      PreconditionError);
}

TEST(Conventional, NeverBeatsComponentOrientedOnTheBenchmarks) {
  // The paper's Table 2 claim, as a regression test: on all three cases the
  // component-oriented method is at least as good on time, devices and
  // paths simultaneously is not guaranteed — but the weighted objective
  // must not be worse.
  core::SynthesisOptions options;
  options.max_devices = 25;
  options.layering.indeterminate_threshold = 10;
  for (const model::Assay& assay :
       {assays::kinase_activity_assay(), assays::gene_expression_assay(4)}) {
    const auto ours = core::synthesize(assay, options);
    const auto conv = synthesize_conventional(assay, options);
    const auto ours_obj =
        schedule::evaluate_objective(ours.result, assay, options.costs);
    const auto conv_obj =
        schedule::evaluate_objective(conv.result, assay, options.costs);
    EXPECT_LE(ours_obj.weighted_total, conv_obj.weighted_total + 1e-9)
        << "on " << assay.name();
  }
}

}  // namespace
}  // namespace cohls::baseline
