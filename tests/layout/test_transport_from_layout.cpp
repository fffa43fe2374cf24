#include "layout/transport_from_layout.hpp"

#include <gtest/gtest.h>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "schedule/validate.hpp"

namespace cohls::layout {
namespace {

TEST(TransportFromLayout, SameDeviceEdgesAreZero) {
  model::Assay assay{"t"};
  model::OperationSpec sa;
  sa.name = "a";
  sa.duration = 10_min;
  const auto a = assay.add_operation(sa);
  model::OperationSpec sb;
  sb.name = "b";
  sb.duration = 10_min;
  sb.parents = {a};
  const auto b = assay.add_operation(sb);

  schedule::SynthesisResult result;
  result.devices = model::DeviceInventory(2);
  const auto d0 = result.devices.instantiate(
      {model::ContainerKind::Chamber, model::Capacity::Tiny, {}}, LayerId{0});
  result.layers.push_back({LayerId{0},
                           {{a, d0, 0_min, 10_min, 0_min},
                            {b, d0, 10_min, 10_min, 0_min}}});
  const Placement placement({d0}, {GridPosition{0, 0}}, 1);
  const auto plan = transport_from_layout(placement, result, assay, {});
  EXPECT_EQ(plan.edge_time(*assay.operation(b).parent_edges().begin()), 0_min);
}

TEST(TransportFromLayout, TimeGrowsWithDistance) {
  model::Assay assay{"t"};
  model::OperationSpec spec;
  spec.name = "a";
  spec.duration = 10_min;
  const auto a = assay.add_operation(spec);
  spec.name = "b";
  spec.parents = {a};
  const auto b = assay.add_operation(spec);
  spec.name = "c";
  spec.parents = {a};
  const auto c = assay.add_operation(spec);

  schedule::SynthesisResult result;
  result.devices = model::DeviceInventory(3);
  const model::DeviceConfig cfg{model::ContainerKind::Chamber, model::Capacity::Tiny, {}};
  const auto d0 = result.devices.instantiate(cfg, LayerId{0});
  const auto d1 = result.devices.instantiate(cfg, LayerId{0});
  const auto d2 = result.devices.instantiate(cfg, LayerId{0});
  result.layers.push_back({LayerId{0},
                           {{a, d0, 0_min, 10_min, 0_min},
                            {b, d1, 13_min, 10_min, 0_min},
                            {c, d2, 15_min, 10_min, 0_min}}});
  // d1 adjacent to d0; d2 four cells away.
  const Placement placement({d0, d1, d2},
                            {GridPosition{0, 0}, GridPosition{1, 0}, GridPosition{4, 0}},
                            5);
  LayoutTransportOptions options;
  options.minimum = 1_min;
  options.per_cell = 2_min;
  const auto plan = transport_from_layout(placement, result, assay, options);
  EXPECT_EQ(plan.edge_time(*assay.operation(b).parent_edges().begin()), 1_min);  // adjacent
  EXPECT_EQ(plan.edge_time(*assay.operation(c).parent_edges().begin()),
            1_min + 3 * 2_min);  // 4 cells away
}

TEST(TransportFromLayout, RejectsNegativeOptions) {
  const Placement placement({DeviceId{0}}, {GridPosition{0, 0}}, 1);
  schedule::SynthesisResult result;
  model::Assay assay{"t"};
  LayoutTransportOptions options;
  options.minimum = Minutes{-1};
  EXPECT_THROW((void)transport_from_layout(placement, result, assay, options),
               PreconditionError);
}

TEST(TransportFromLayout, FullFlowWithLayoutRefinementValidates) {
  const model::Assay assay = assays::gene_expression_assay(4);
  core::SynthesisOptions options;
  options.max_devices = 15;
  options.layering.indeterminate_threshold = 4;
  options.transport_refinement = core::TransportRefinement::Layout;
  const auto report = core::synthesize(assay, options);
  const auto violations =
      schedule::certify_result(report.result, assay, report.transport);
  EXPECT_TRUE(violations.empty()) << diag::summary_line(violations.front());
  EXPECT_GE(report.iterations.size(), 2u);
}

TEST(TransportFromLayout, LayoutRefinementImprovesOnTheFlatEstimate) {
  const model::Assay assay = assays::gene_expression_assay();
  core::SynthesisOptions options;
  options.max_devices = 25;
  options.layering.indeterminate_threshold = 10;
  options.transport_refinement = core::TransportRefinement::Layout;
  options.resynthesis_improvement_threshold = -1.0;
  options.max_resynthesis_iterations = 2;
  const auto report = core::synthesize(assay, options);
  EXPECT_LE(report.iterations.back().execution_time.fixed(),
            report.iterations.front().execution_time.fixed());
}

}  // namespace
}  // namespace cohls::layout
