// Whole-flow integration tests: layering + scheduling + binding +
// re-synthesis on the paper's benchmark assays, checked against the
// independent validators.
#include <gtest/gtest.h>

#include "assays/benchmarks.hpp"
#include "baseline/conventional.hpp"
#include "core/progressive_resynthesis.hpp"
#include "schedule/validate.hpp"

namespace cohls {
namespace {

core::SynthesisOptions paper_options() {
  core::SynthesisOptions options;
  options.max_devices = 25;
  options.layering.indeterminate_threshold = 10;
  return options;
}

class BenchmarkCase : public ::testing::TestWithParam<int> {
 protected:
  static model::Assay assay_for(int which) {
    switch (which) {
      case 1: return assays::kinase_activity_assay();
      case 2: return assays::gene_expression_assay();
      default: return assays::rt_qpcr_assay();
    }
  }
};

TEST_P(BenchmarkCase, ComponentOrientedFlowValidates) {
  const model::Assay assay = assay_for(GetParam());
  const auto report = core::synthesize(assay, paper_options());
  const auto violations =
      schedule::certify_result(report.result, assay, report.transport);
  EXPECT_TRUE(violations.empty()) << diag::summary_line(violations.front());
  const auto layering = core::validate_layering(report.plan, assay, 10);
  EXPECT_TRUE(layering.empty()) << layering.front();
}

TEST_P(BenchmarkCase, ConventionalFlowValidates) {
  const model::Assay assay = assay_for(GetParam());
  const auto report = baseline::synthesize_conventional(assay, paper_options());
  const auto violations =
      schedule::certify_result(report.result, assay, report.transport);
  EXPECT_TRUE(violations.empty()) << diag::summary_line(violations.front());
}

TEST_P(BenchmarkCase, EveryOperationBoundOnce) {
  const model::Assay assay = assay_for(GetParam());
  const auto report = core::synthesize(assay, paper_options());
  const auto binding = report.result.binding();
  EXPECT_EQ(static_cast<int>(binding.size()), assay.operation_count());
}

TEST_P(BenchmarkCase, DeviceBudgetRespected) {
  const model::Assay assay = assay_for(GetParam());
  const auto report = core::synthesize(assay, paper_options());
  EXPECT_LE(report.result.devices.size(), 25);
  EXPECT_LE(report.result.used_device_count(), report.result.devices.size());
}

TEST_P(BenchmarkCase, SymbolCountMatchesIndeterminateLayers) {
  const model::Assay assay = assay_for(GetParam());
  const auto report = core::synthesize(assay, paper_options());
  int layers_with_indeterminate = 0;
  for (const auto& layer : report.result.layers) {
    if (layer.has_indeterminate(assay)) {
      ++layers_with_indeterminate;
    }
  }
  EXPECT_EQ(static_cast<int>(report.result.total_time(assay).symbols().size()),
            layers_with_indeterminate);
}

INSTANTIATE_TEST_SUITE_P(Cases, BenchmarkCase, ::testing::Values(1, 2, 3));

TEST(EndToEnd, TightInventoryStillSynthesizesCase1) {
  const model::Assay assay = assays::kinase_activity_assay();
  core::SynthesisOptions options;
  options.max_devices = 3;  // the paper's conventional solution used 3
  const auto report = core::synthesize(assay, options);
  const auto violations =
      schedule::certify_result(report.result, assay, report.transport);
  EXPECT_TRUE(violations.empty()) << diag::summary_line(violations.front());
  EXPECT_LE(report.result.used_device_count(), 3);
}

TEST(EndToEnd, ImpossibleInventoryRaisesTypedError) {
  // Case 2 needs 10 parallel capture rings in layer 1; 4 devices cannot do.
  const model::Assay assay = assays::gene_expression_assay();
  core::SynthesisOptions options;
  options.max_devices = 4;
  options.layering.indeterminate_threshold = 10;
  EXPECT_THROW((void)core::synthesize(assay, options), InfeasibleError);
}

TEST(EndToEnd, LoweringThresholdRestoresFeasibilityOnSmallChips) {
  const model::Assay assay = assays::gene_expression_assay();
  core::SynthesisOptions options;
  options.max_devices = 6;
  options.layering.indeterminate_threshold = 2;  // 2 captures at a time
  const auto report = core::synthesize(assay, options);
  const auto violations =
      schedule::certify_result(report.result, assay, report.transport);
  EXPECT_TRUE(violations.empty()) << diag::summary_line(violations.front());
  EXPECT_LE(report.result.used_device_count(), 6);
}

}  // namespace
}  // namespace cohls
