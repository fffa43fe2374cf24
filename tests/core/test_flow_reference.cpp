// Differential tests of the flow's flat-array bookkeeping against the
// map-based references in tests/support/flow_reference.hpp. Every case
// synthesizes a real result (the three paper protocols across thresholds and
// layering seeds, plus seeded random assays) and requires identical layer
// plans, identical path sets, bit-identical objective breakdowns, equal
// refined transport times on every dependency edge and identical certifier
// diagnostics, both on the synthesized result and on corrupted copies.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "assays/benchmarks.hpp"
#include "assays/random_assay.hpp"
#include "core/layering.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/transport_estimator.hpp"
#include "schedule/objective.hpp"
#include "schedule/validate.hpp"
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

/// Runs the flow with `options` and compares every flat-array stage with
/// its reference.
void expect_flow_matches_reference(const model::Assay& assay,
                                   const SynthesisOptions& options) {
  const LayerPlan plan = layer_assay(assay, options.layering);
  EXPECT_EQ(plan.layers(), oracles::layer_assay_reference(assay, options.layering).layers());

  const SynthesisReport report = synthesize(assay, options);
  const SynthesisResult& result = report.result;
  EXPECT_EQ(result.paths(assay), oracles::paths_reference(result, assay));
  EXPECT_EQ(result.path_count(assay),
            static_cast<int>(oracles::paths_reference(result, assay).size()));
  expect_same_objective(schedule::evaluate_objective(result, assay, options.costs),
                        oracles::evaluate_objective_reference(result, assay, options.costs));

  const schedule::TransportPlan refined =
      refine_transport(result, assay, options.progression, options.initial_transport);
  const schedule::TransportPlan reference = oracles::refine_transport_reference(
      result, assay, options.progression, options.initial_transport);
  EXPECT_EQ(refined.uniform_time(), reference.uniform_time());
  for (const model::Operation& op : assay.operations()) {
    for (const OperationId child : assay.children(op.id())) {
      EXPECT_EQ(refined.edge_time(op.id(), child), reference.edge_time(op.id(), child))
          << "edge " << op.id() << "->" << child;
    }
  }

  expect_same_certification(result, assay, report.transport);
  for (const SynthesisResult& corrupted : corrupted_copies(result, assay)) {
    expect_same_certification(corrupted, assay, report.transport);
  }
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

}  // namespace
}  // namespace cohls::core
