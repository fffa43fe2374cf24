#include "io/export.hpp"

#include <gtest/gtest.h>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"

namespace cohls::io {
namespace {

struct Fixture {
  model::Assay assay = assays::kinase_activity_assay(1);
  core::SynthesisReport report;

  Fixture() {
    core::SynthesisOptions options;
    options.max_devices = 10;
    // The exporters only read the result; at |D| = 10 the kinase layers
    // would otherwise reach the layer MILP, which takes seconds per run.
    options.engine.enable_ilp = false;
    report = core::synthesize(assay, options);
  }
};

/// One synthesis shared by every test that only reads it.
const Fixture& shared_fixture() {
  static const Fixture fixture;
  return fixture;
}

TEST(Gantt, ContainsEveryDeviceAndOperationLegend) {
  const Fixture& f = shared_fixture();
  const std::string gantt = to_gantt(f.report.result, f.assay);
  for (const auto& [op, device] : f.report.result.binding()) {
    EXPECT_NE(gantt.find("device#" + std::to_string(device.value())), std::string::npos);
    EXPECT_NE(gantt.find(f.assay.operation(op).name()), std::string::npos);
  }
  EXPECT_NE(gantt.find("== layer 1"), std::string::npos);
}

TEST(Gantt, ResolutionShortensRows) {
  const Fixture& f = shared_fixture();
  const std::string fine = to_gantt(f.report.result, f.assay, 1_min);
  const std::string coarse = to_gantt(f.report.result, f.assay, 10_min);
  EXPECT_GT(fine.size(), coarse.size());
}

TEST(Gantt, RejectsNonPositiveResolution) {
  const Fixture& f = shared_fixture();
  EXPECT_THROW((void)to_gantt(f.report.result, f.assay, Minutes{0}), PreconditionError);
}

TEST(Csv, OneRowPerOperationPlusHeader) {
  const Fixture& f = shared_fixture();
  const std::string csv = to_csv(f.report.result, f.assay);
  const auto rows = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(rows, f.assay.operation_count() + 1);
  EXPECT_NE(csv.find("layer,operation,name,device,start,end,indeterminate"),
            std::string::npos);
}

TEST(Csv, EscapesCommasInNames) {
  model::Assay assay{"t"};
  model::OperationSpec spec;
  spec.name = "mix, then heat";
  spec.duration = 5_min;
  (void)assay.add_operation(spec);
  core::SynthesisOptions options;
  options.max_devices = 2;
  const auto report = core::synthesize(assay, options);
  const std::string csv = to_csv(report.result, assay);
  EXPECT_NE(csv.find("mix; then heat"), std::string::npos);
}

TEST(Dot, DeclaresUsedDevicesAndPaths) {
  const Fixture& f = shared_fixture();
  const std::string dot = to_dot(f.report.result, f.assay);
  EXPECT_EQ(dot.rfind("graph chip {", 0), 0u);
  for (const auto& [op, device] : f.report.result.binding()) {
    (void)op;
    EXPECT_NE(dot.find("d" + std::to_string(device.value()) + " [label="),
              std::string::npos);
  }
  for (const auto& [a, b] : f.report.result.paths(f.assay).list()) {
    const std::string edge =
        "d" + std::to_string(a.value()) + " -- d" + std::to_string(b.value());
    EXPECT_NE(dot.find(edge), std::string::npos);
  }
}

TEST(Dot, NoPathsMeansNoEdges) {
  model::Assay assay{"t"};
  model::OperationSpec spec;
  spec.name = "solo";
  spec.duration = 5_min;
  (void)assay.add_operation(spec);
  core::SynthesisOptions options;
  options.max_devices = 2;
  const auto report = core::synthesize(assay, options);
  const std::string dot = to_dot(report.result, assay);
  EXPECT_EQ(dot.find("--"), std::string::npos);
}

}  // namespace
}  // namespace cohls::io
