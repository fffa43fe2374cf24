// Differential tests of the flow's flat-array bookkeeping against the
// map-based references in tests/support/flow_reference.hpp. Every case
// synthesizes a real result (the three paper protocols across thresholds and
// layering seeds, plus seeded random assays) and requires identical layer
// plans, identical path sets, bit-identical objective breakdowns, equal
// refined transport times on every dependency edge and identical certifier
// diagnostics, both on the synthesized result and on corrupted copies. Every
// pass of run_pass is also held to the map-based oracles::run_pass_reference:
// each layer's prior binding and existing paths, and each pass's result.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "assays/benchmarks.hpp"
#include "assays/random_assay.hpp"
#include "core/layering.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/recovery.hpp"
#include "core/solve_hooks.hpp"
#include "core/transport_estimator.hpp"
#include "schedule/objective.hpp"
#include "schedule/validate.hpp"
#include "sim/runtime.hpp"
#include "support/flow_reference.hpp"

namespace cohls::core {
namespace {

using schedule::SynthesisResult;

void expect_same_objective(const schedule::ObjectiveBreakdown& got,
                           const schedule::ObjectiveBreakdown& want) {
  // Exact equality: the used-device sum runs in the same ascending-id order.
  EXPECT_EQ(got.time_minutes, want.time_minutes);
  EXPECT_EQ(got.area, want.area);
  EXPECT_EQ(got.processing, want.processing);
  EXPECT_EQ(got.path_count, want.path_count);
  EXPECT_EQ(got.weighted_total, want.weighted_total);
}

void expect_same_diagnostics(const std::vector<diag::Diagnostic>& got,
                             const std::vector<diag::Diagnostic>& want) {
  ASSERT_EQ(got.size(), want.size()) << diag::render_text(got, "got") << "vs\n"
                                     << diag::render_text(want, "want");
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].code, want[i].code) << "diagnostic " << i;
    EXPECT_EQ(got[i].message, want[i].message) << "diagnostic " << i;
  }
}

void expect_same_certification(const SynthesisResult& result, const model::Assay& assay,
                               const schedule::TransportPlan& transport) {
  expect_same_diagnostics(schedule::certify_result(result, assay, transport),
                          oracles::certify_result_reference(result, assay, transport));
}

/// Corruptions that reach every certifier section: shifted starts and
/// durations, rebinding to another (or a missing) device, swapped layers,
/// and dropped, duplicated and foreign entries.
std::vector<SynthesisResult> corrupted_copies(const SynthesisResult& result,
                                              const model::Assay& assay) {
  std::vector<SynthesisResult> copies;
  for (std::size_t li = 0; li < result.layers.size(); ++li) {
    const auto& items = result.layers[li].items;
    for (std::size_t i = 0; i < items.size(); i += 3) {
      SynthesisResult earlier = result;
      earlier.layers[li].items[i].start = items[i].start - Minutes{7};
      copies.push_back(std::move(earlier));
      SynthesisResult longer = result;
      longer.layers[li].items[i].duration = items[i].duration + Minutes{9};
      copies.push_back(std::move(longer));
      SynthesisResult rebound = result;
      rebound.layers[li].items[i].device =
          DeviceId{(items[i].device.value() + 1) % result.devices.size()};
      copies.push_back(std::move(rebound));
    }
  }
  SynthesisResult missing_device = result;
  missing_device.layers.front().items.front().device = DeviceId{result.devices.size()};
  copies.push_back(std::move(missing_device));
  if (result.layers.size() >= 2) {
    SynthesisResult swapped = result;
    std::swap(swapped.layers.front(), swapped.layers.back());
    copies.push_back(std::move(swapped));
  }
  SynthesisResult dropped = result;
  dropped.layers.back().items.pop_back();
  copies.push_back(std::move(dropped));
  SynthesisResult duplicated = result;
  duplicated.layers.back().items.push_back(result.layers.front().items.front());
  copies.push_back(std::move(duplicated));
  SynthesisResult foreign = result;
  foreign.layers.front().items.front().op = OperationId{assay.operation_count()};
  copies.push_back(std::move(foreign));
  return copies;
}

/// Never hits; records the binding and paths every layer solve was handed,
/// in the map-based reference's form.
class BookkeepingRecorder final : public LayerSolveCache {
 public:
  std::optional<LayerOutcome> lookup(const LayerSolveContext& context) override {
    oracles::LayerBookkeeping seen;
    for (int op = 0; op < context.request.prior_binding.size(); ++op) {
      const DeviceId device = context.request.prior_binding.device(OperationId{op});
      if (device.valid()) {
        seen.prior_binding.emplace(OperationId{op}, device);
      }
    }
    for (const schedule::DevicePath& path : context.request.existing_paths.list()) {
      seen.existing_paths.insert(path);
    }
    layers.push_back(std::move(seen));
    return std::nullopt;
  }
  void store(const LayerSolveContext&, const LayerOutcome&) override {}

  std::vector<oracles::LayerBookkeeping> layers;
};

void expect_same_result(const SynthesisResult& got, const SynthesisResult& want) {
  ASSERT_EQ(got.layers.size(), want.layers.size());
  for (std::size_t li = 0; li < got.layers.size(); ++li) {
    const auto& a = got.layers[li].items;
    const auto& b = want.layers[li].items;
    ASSERT_EQ(a.size(), b.size()) << "layer " << li;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(a[i].op == b[i].op && a[i].device == b[i].device &&
                  a[i].start == b[i].start && a[i].duration == b[i].duration &&
                  a[i].transport == b[i].transport)
          << "layer " << li << " item " << i;
    }
  }
  EXPECT_EQ(got.devices.size(), want.devices.size());
}

/// Runs the passes synthesize runs -- the first under the uniform transport,
/// then re-syntheses under the previous pass's refined transport and
/// devices -- through run_pass and the map-based oracles::run_pass_reference,
/// and requires every layer's binding and paths and every pass's result to
/// be the same.
void expect_passes_match_reference(const model::Assay& assay, SynthesisOptions options,
                                   const PassPolicy& policy = {}, int passes = 3) {
  const LayerPlan plan = layer_assay(assay, options.layering);
  schedule::TransportPlan transport(options.initial_transport);
  std::vector<KnownDevice> known;
  for (int pass = 0; pass < passes; ++pass) {
    BookkeepingRecorder recorder;
    options.layer_cache = &recorder;
    int path_count = -1;
    const SynthesisResult result =
        run_pass(assay, plan, transport, options, known, policy, &path_count);
    options.layer_cache = nullptr;
    EXPECT_EQ(path_count, result.path_count(assay)) << "pass " << pass;
    std::vector<oracles::LayerBookkeeping> reference_layers;
    const SynthesisResult reference = oracles::run_pass_reference(
        assay, plan, transport, options, known, policy, reference_layers);
    ASSERT_EQ(recorder.layers.size(), reference_layers.size()) << "pass " << pass;
    for (std::size_t li = 0; li < reference_layers.size(); ++li) {
      EXPECT_EQ(recorder.layers[li].prior_binding, reference_layers[li].prior_binding)
          << "pass " << pass << " layer " << li;
      EXPECT_EQ(recorder.layers[li].existing_paths, reference_layers[li].existing_paths)
          << "pass " << pass << " layer " << li;
    }
    expect_same_result(result, reference);

    transport = refine_transport(result, assay, options.progression, options.initial_transport);
    known.clear();
    for (const model::Device& device : result.devices.devices()) {
      known.push_back(
          KnownDevice{device.config, device.created_in.valid() ? device.created_in.value() : 0});
    }
  }
}

/// Runs the flow with `options` and compares every flat-array stage with
/// its reference.
void expect_flow_matches_reference(const model::Assay& assay,
                                   const SynthesisOptions& options) {
  const LayerPlan plan = layer_assay(assay, options.layering);
  EXPECT_EQ(plan.layers(), oracles::layer_assay_reference(assay, options.layering).layers());

  const SynthesisReport report = synthesize(assay, options);
  const SynthesisResult& result = report.result;
  const std::set<schedule::DevicePath> reference_paths =
      oracles::paths_reference(result, assay);
  EXPECT_EQ(result.paths(assay).list(),
            std::vector<schedule::DevicePath>(reference_paths.begin(), reference_paths.end()));
  EXPECT_EQ(result.path_count(assay), static_cast<int>(reference_paths.size()));
  expect_same_objective(schedule::evaluate_objective(result, assay, options.costs),
                        oracles::evaluate_objective_reference(result, assay, options.costs));

  const schedule::TransportPlan refined =
      refine_transport(result, assay, options.progression, options.initial_transport);
  const oracles::EdgeTimes reference =
      oracles::refine_transport_reference(result, assay, options.progression);
  EXPECT_EQ(refined.uniform_time(), options.initial_transport);
  ASSERT_TRUE(refined.fits(assay));
  for (int e = 0; e < assay.edge_count(); ++e) {
    const EdgeId edge{e};
    const auto it = reference.find({assay.edge_parent(edge), assay.edge_child(edge)});
    EXPECT_EQ(refined.edge_time(edge),
              it == reference.end() ? options.initial_transport : it->second)
        << "edge " << e << ": " << assay.edge_parent(edge) << "->" << assay.edge_child(edge);
  }

  expect_same_certification(result, assay, report.transport);
  for (const SynthesisResult& corrupted : corrupted_copies(result, assay)) {
    expect_same_certification(corrupted, assay, report.transport);
  }

  expect_passes_match_reference(assay, options);
}

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

class ProtocolFlowReference
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(ProtocolFlowReference, MatchesTheMapBasedFlow) {
  const auto [index, threshold, seed] = GetParam();
  SynthesisOptions options;
  options.max_devices = 25;
  options.layering.indeterminate_threshold = threshold;
  options.layering.seed = seed;
  expect_flow_matches_reference(protocol(index), options);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ProtocolFlowReference,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Values(10, 5, 3, 2),
                                            ::testing::Values(std::uint64_t{1},
                                                              std::uint64_t{2},
                                                              std::uint64_t{3},
                                                              std::uint64_t{4})));

class RandomFlowReference : public ::testing::TestWithParam<int> {};

TEST_P(RandomFlowReference, MatchesTheMapBasedFlow) {
  const int seed = GetParam();
  assays::RandomAssayOptions shape;
  shape.operations = 8 + seed % 33;
  shape.indeterminate_probability = 0.1 + 0.05 * (seed % 5);
  const model::Assay assay = assays::random_assay(static_cast<std::uint64_t>(seed), shape);
  SynthesisOptions options;
  options.max_devices = 40;
  options.layering.indeterminate_threshold = 1 + seed % 4;
  options.layering.seed = static_cast<std::uint64_t>(seed);
  // The bookkeeping under test is engine-agnostic; the exact layer MILP
  // would only add seconds of branch and bound on the smallest layers.
  options.engine.enable_ilp = false;
  expect_flow_matches_reference(assay, options);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFlowReference, ::testing::Range(0, 60));

// A recovery re-synthesis: the surviving chip as initial devices, no new
// devices, and the in-flight operations pinned -- the policy core::recover
// builds -- so the pins reach the requests of every layer.
TEST(PassReference, PinnedRecoveryMatchesTheMapBasedPass) {
  const model::Assay assay = assays::gene_expression_assay(3);
  SynthesisOptions options;
  options.max_devices = 12;
  options.layering.indeterminate_threshold = 3;
  const SynthesisReport report = synthesize(assay, options);
  sim::RuntimeOptions runtime;
  runtime.attempt_success_probability = 1.0;
  runtime.faults.events.push_back(sim::FaultEvent{
      sim::FaultKind::DeviceFailure, report.result.layers.front().items.front().device,
      OperationId{}, 30_min});
  const sim::RunTrace trace = sim::simulate_run(report.result, assay, runtime);
  ASSERT_FALSE(trace.ok());
  const ResidualAssay residual = build_residual(assay, report.result, trace);
  ASSERT_FALSE(residual.pinned.empty());

  PassPolicy policy;
  policy.initial_devices = residual.surviving_devices;
  policy.pinned = residual.pinned;
  policy.allow_new_devices = false;
  options.max_devices = static_cast<int>(residual.surviving_devices.size());
  expect_passes_match_reference(residual.assay, options, policy);
}

}  // namespace
}  // namespace cohls::core
