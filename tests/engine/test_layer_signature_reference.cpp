// The flat layer-cache key must be byte-identical to the stream-based
// builder it replaced (oracles::layer_signature_reference): then every hit,
// every miss and every cached solution is what it was. A recording cache
// that never hits checks the two on every cacheable context the flow hands
// it — the paper protocols across thresholds and layering seeds, random
// 48-op assays (the batch-corpus size) with their recovery missions, and a
// hand-built context that sets every field the key encodes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "assays/benchmarks.hpp"
#include "assays/random_assay.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/recovery.hpp"
#include "engine/layer_signature.hpp"
#include "sim/runtime.hpp"
#include "support/layer_signature_reference.hpp"

namespace cohls::engine {
namespace {

/// Never hits; checks the flat key against the oracle on every cacheable
/// lookup and tallies which key fields the contexts exercised.
class OracleCheck final : public core::LayerSolveCache {
 public:
  std::optional<core::LayerOutcome> lookup(const core::LayerSolveContext& context) override {
    if (!cacheable(context)) {
      return std::nullopt;
    }
    const LayerSignature signature = layer_signature(context);
    EXPECT_EQ(signature.text, oracles::layer_signature_reference(context))
        << "layer " << context.request.layer;
    EXPECT_EQ(signature.hash, fnv1a(signature.text));
    ++checked;
    inherited += context.request.usable_devices.empty() ? 0 : 1;
    prior_bound += context.request.prior_binding.empty() ? 0 : 1;
    hinted += context.request.hints.empty() ? 0 : 1;
    with_paths += context.request.existing_paths.empty() ? 0 : 1;
    return std::nullopt;
  }
  void store(const core::LayerSolveContext&, const core::LayerOutcome&) override {}

  int checked = 0;
  int inherited = 0;
  int prior_bound = 0;
  int hinted = 0;
  int with_paths = 0;
};

model::Assay protocol(int index) {
  switch (index) {
    case 0:
      return assays::kinase_activity_assay();
    case 1:
      return assays::gene_expression_assay();
    default:
      return assays::rt_qpcr_assay();
  }
}

class ProtocolSignatureReference
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(ProtocolSignatureReference, FlatKeyMatchesTheStreamBuilder) {
  const auto [index, threshold, seed] = GetParam();
  OracleCheck check;
  core::SynthesisOptions options;
  options.max_devices = 25;
  options.layering.indeterminate_threshold = threshold;
  options.layering.seed = seed;
  options.layer_cache = &check;
  const core::SynthesisReport report = core::synthesize(protocol(index), options);
  // The initial pass and at least one re-synthesis pass, each of which
  // solves every layer.
  EXPECT_GE(report.iterations.size(), 2u);
  EXPECT_GE(check.checked, static_cast<int>(report.iterations.size()));
}

INSTANTIATE_TEST_SUITE_P(LayerSignatureReference, ProtocolSignatureReference,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Values(10, 5, 3, 2),
                                            ::testing::Values(std::uint64_t{1},
                                                              std::uint64_t{2},
                                                              std::uint64_t{3},
                                                              std::uint64_t{4})));

TEST(LayerSignatureReference, RandomAssaysAndTheirRecoveries) {
  OracleCheck check;
  assays::RandomAssayOptions shape;
  shape.operations = 48;
  int recoveries = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const model::Assay assay = assays::random_assay(seed, shape);
    core::SynthesisOptions options;
    options.max_devices = 40;
    options.layering.indeterminate_threshold = 1 + static_cast<int>(seed % 4);
    options.layering.seed = seed;
    // Heuristic only, as the batch corpus runs them: the key is the subject.
    options.engine.enable_ilp = false;
    options.layer_cache = &check;
    const core::SynthesisReport report = core::synthesize(assay, options);

    // A device failure mid-run: recovery re-synthesizes the residual assay
    // on the surviving chip, whose devices every residual layer inherits.
    sim::RuntimeOptions runtime;
    runtime.seed = seed;
    runtime.faults.events.push_back(sim::FaultEvent{
        sim::FaultKind::DeviceFailure, DeviceId{static_cast<std::int32_t>(seed % 2)},
        OperationId{}, Minutes{5 + static_cast<std::int64_t>(seed % 30)}});
    core::MissionOptions mission;
    mission.synthesis = options;
    const core::MissionOutcome outcome =
        core::run_mission(assay, report.result, runtime, mission);
    recoveries += outcome.rounds;
  }
  EXPECT_GE(check.checked, 50);
  EXPECT_GT(recoveries, 0);
  EXPECT_GT(check.inherited, 0);
  EXPECT_GT(check.prior_bound, 0);
  EXPECT_GT(check.hinted, 0);
  EXPECT_GT(check.with_paths, 0);
}

model::OperationSpec op_spec(std::string name, long duration,
                             std::vector<OperationId> parents = {}) {
  model::OperationSpec spec;
  spec.name = std::move(name);
  spec.container = model::ContainerKind::Chamber;
  spec.capacity = model::Capacity::Tiny;
  spec.duration = Minutes{duration};
  spec.parents = std::move(parents);
  return spec;
}

TEST(LayerSignatureReference, EveryFieldSetByHand) {
  // One context that sets every field the key encodes to a non-default
  // value: unconstrained and accessory-carrying ops, an indeterminate op,
  // refined edge times, inherited devices listed out of id order, hints,
  // existing paths, prior bindings on and off the inventory order, a
  // non-default cost model and engine budgets.
  model::Assay assay{"sig-reference"};
  const OperationId early = assay.add_operation(op_spec("early", 10));
  const OperationId other = assay.add_operation(op_spec("other", 12));
  const OperationId unbound = assay.add_operation(op_spec("unbound", 3));
  model::OperationSpec loose = op_spec("loose", 20, {early, other});
  loose.container.reset();
  loose.capacity.reset();
  loose.accessories.insert(model::BuiltinAccessory::kPump);
  loose.accessories.insert(model::BuiltinAccessory::kOpticalSystem);
  const OperationId a = assay.add_operation(std::move(loose));
  model::OperationSpec wait = op_spec("wait", 7, {a, unbound});
  wait.indeterminate = true;
  const OperationId b = assay.add_operation(std::move(wait));
  const OperationId tail = assay.add_operation(op_spec("tail", 4, {b}));
  assay.add_operation(op_spec("tail2", 6, {b, tail}));

  schedule::TransportPlan transport{Minutes{4}};
  transport.set_edge_time(early, a, Minutes{2});
  transport.set_edge_time(b, tail, Minutes{1});

  model::CostModel costs;
  costs.set_weights(0.3, 1.0 / 3.0, 2.5e-7, 12345.678901234567);
  costs.set_area(model::ContainerKind::Ring, model::Capacity::Medium, 1e21);
  costs.set_container_processing(model::ContainerKind::Chamber, model::Capacity::Tiny,
                                 0.1 + 0.2);

  core::EngineOptions engine;
  engine.ilp_max_ops = 5;
  engine.milp.max_nodes = 777;
  engine.milp.max_pivots = 4321;
  engine.milp.enable_rounding_heuristic = false;

  model::DeviceInventory inventory{12};
  model::DeviceConfig ring;
  ring.container = model::ContainerKind::Ring;
  ring.capacity = model::Capacity::Medium;
  ring.accessories.insert(model::BuiltinAccessory::kHeatingPad);
  const DeviceId d0 = inventory.instantiate(model::DeviceConfig{}, LayerId{0});
  const DeviceId d1 = inventory.instantiate(ring, LayerId{0});
  const DeviceId d2 = inventory.instantiate(model::DeviceConfig{}, LayerId{1});

  schedule::LayerRequest request;
  request.layer = LayerId{2};
  request.ops = {b, a};
  request.slot_size = Minutes{3};
  request.allow_new_devices = false;
  request.usable_devices = {d2, d0, d1};
  request.hints = {{ring, 4}, {model::DeviceConfig{}, 9}};
  request.existing_paths = {schedule::make_path(d0, d2), schedule::make_path(d1, d0)};
  request.prior_binding[early] = d1;
  request.prior_binding[other] = d2;

  const core::LayerSolveContext context{request, assay, transport, costs, engine, inventory};
  ASSERT_TRUE(cacheable(context));
  const LayerSignature signature = layer_signature(context);
  EXPECT_EQ(signature.text, oracles::layer_signature_reference(context));
  // The fixture reaches the paths of the format it is meant to cover.
  for (const char* part : {" c=* k=* a{0,2}", " ind", "P2@2", "P0@4", "U@4", "L0@4",
                           "path 0-1", "path 1-2", "hint R", "dev C"}) {
    EXPECT_NE(signature.text.find(part), std::string::npos) << part;
  }
}

}  // namespace
}  // namespace cohls::engine
