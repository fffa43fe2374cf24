#include "core/hybrid_synthesizer.hpp"

#include <gtest/gtest.h>

#include "assays/benchmarks.hpp"
#include "schedule/validate.hpp"

namespace cohls::core {
namespace {

using model::BuiltinAccessory;
using model::Capacity;
using model::ContainerKind;

TEST(HybridSynthesizer, SingleLayerPass) {
  const model::Assay assay = assays::kinase_activity_assay(1);
  const LayerPlan plan = layer_assay(assay);
  ASSERT_EQ(plan.layer_count(), 1);
  SynthesisOptions options;
  options.max_devices = 10;
  const schedule::TransportPlan transport{options.initial_transport};
  const auto result = run_pass(assay, plan, transport, options);
  ASSERT_EQ(result.layers.size(), 1u);
  EXPECT_TRUE(schedule::certify_result(result, assay, transport).empty());
}

TEST(HybridSynthesizer, MultiLayerPassValidates) {
  const model::Assay assay = assays::gene_expression_assay(3);
  SynthesisOptions options;
  options.max_devices = 12;
  options.layering.indeterminate_threshold = 3;
  const LayerPlan plan = layer_assay(assay, options.layering);
  ASSERT_EQ(plan.layer_count(), 2);
  const schedule::TransportPlan transport{options.initial_transport};
  const auto result = run_pass(assay, plan, transport, options);
  ASSERT_EQ(result.layers.size(), 2u);
  const auto violations = schedule::certify_result(result, assay, transport);
  EXPECT_TRUE(violations.empty()) << diag::summary_line(violations.front());
}

TEST(HybridSynthesizer, DevicesAccumulateAcrossLayers) {
  const model::Assay assay = assays::gene_expression_assay(2);
  SynthesisOptions options;
  options.max_devices = 10;
  options.layering.indeterminate_threshold = 2;
  const LayerPlan plan = layer_assay(assay, options.layering);
  const schedule::TransportPlan transport{options.initial_transport};
  const auto result = run_pass(assay, plan, transport, options);
  // Layer-2 lysis/RT/etc. re-use the capture rings created in layer 1 (the
  // pipeline-enriched configs), so the device count stays well below one
  // device per operation.
  EXPECT_LT(result.devices.size(), assay.operation_count() / 2);
}

TEST(HybridSynthesizer, FutureLayerHintsAreOfferedAndConsumedOnce) {
  // A 2-layer toy: layer 1 = {o2 (sieve, any container), gate (ind)};
  // layer 2 = {o1 (ring, sieve+pump)}. With the later layer's ring offered
  // as a hint, o2 binds to it and the pass needs one device fewer.
  model::Assay assay{"t"};
  model::OperationSpec o2;
  o2.name = "o2";
  o2.duration = 10_min;
  o2.accessories = {BuiltinAccessory::kSieveValve};
  (void)assay.add_operation(o2);
  model::OperationSpec gate;
  gate.name = "gate";
  gate.duration = 8_min;
  gate.indeterminate = true;
  gate.container = ContainerKind::Chamber;
  gate.accessories = {BuiltinAccessory::kCellTrap};
  const auto gate_id = assay.add_operation(gate);
  model::OperationSpec o1;
  o1.name = "o1";
  o1.duration = 15_min;
  o1.container = ContainerKind::Ring;
  o1.capacity = Capacity::Small;
  o1.accessories = {BuiltinAccessory::kSieveValve, BuiltinAccessory::kPump};
  o1.parents = {gate_id};
  (void)assay.add_operation(o1);

  SynthesisOptions options;
  options.max_devices = 6;
  options.layering.indeterminate_threshold = 1;
  const LayerPlan plan = layer_assay(assay, options.layering);
  ASSERT_EQ(plan.layer_count(), 2);
  const schedule::TransportPlan transport{options.initial_transport};

  // Pass 1: no knowledge -> o2 gets its own cheap chamber.
  const auto first = run_pass(assay, plan, transport, options);
  // Pass 2: the ring o1 needs is known to come from layer 2.
  std::vector<KnownDevice> known;
  for (const auto& device : first.devices.devices()) {
    known.push_back(KnownDevice{device.config, device.created_in.value()});
  }
  const auto second = run_pass(assay, plan, transport, options, known);
  EXPECT_LT(second.devices.size(), first.devices.size());
  EXPECT_TRUE(schedule::certify_result(second, assay, transport).empty());
}

TEST(HybridSynthesizer, PolicyOverridesBinding) {
  const model::Assay assay = assays::kinase_activity_assay(1);
  const LayerPlan plan = layer_assay(assay);
  SynthesisOptions options;
  options.max_devices = 20;
  const schedule::TransportPlan transport{options.initial_transport};
  int binds_calls = 0;
  PassPolicy policy;
  policy.binds = [&binds_calls](const model::Operation& op,
                                const model::DeviceConfig& config) {
    ++binds_calls;
    return model::is_compatible(op, config);
  };
  (void)run_pass(assay, plan, transport, options, {}, policy);
  EXPECT_GT(binds_calls, 0);
}

}  // namespace
}  // namespace cohls::core
