#include "assays/benchmarks.hpp"

#include <gtest/gtest.h>

#include "model/compatibility.hpp"
#include "support/traversal.hpp"

namespace cohls::assays {
namespace {

TEST(Benchmarks, Case1HasPaperDimensions) {
  const model::Assay assay = kinase_activity_assay();
  EXPECT_EQ(assay.operation_count(), 16);
  EXPECT_EQ(assay.indeterminate_count(), 0);
}

TEST(Benchmarks, Case2HasPaperDimensions) {
  const model::Assay assay = gene_expression_assay();
  EXPECT_EQ(assay.operation_count(), 70);
  EXPECT_EQ(assay.indeterminate_count(), 10);
}

TEST(Benchmarks, Case3HasPaperDimensions) {
  const model::Assay assay = rt_qpcr_assay();
  EXPECT_EQ(assay.operation_count(), 120);
  EXPECT_EQ(assay.indeterminate_count(), 20);
}

TEST(Benchmarks, ReplicationScalesLinearly) {
  EXPECT_EQ(kinase_activity_assay(3).operation_count(), 24);
  EXPECT_EQ(gene_expression_assay(2).operation_count(), 14);
  EXPECT_EQ(rt_qpcr_assay(5).operation_count(), 30);
}

TEST(Benchmarks, RejectsNonPositiveReplication) {
  EXPECT_THROW((void)kinase_activity_assay(0), PreconditionError);
  EXPECT_THROW((void)gene_expression_assay(-1), PreconditionError);
  EXPECT_THROW((void)rt_qpcr_assay(0), PreconditionError);
}

TEST(Benchmarks, AllGraphsAreDags) {
  for (const model::Assay& assay :
       {kinase_activity_assay(), gene_expression_assay(), rt_qpcr_assay()}) {
    EXPECT_FALSE(graph::has_cycle(oracles::dependency_graph(assay))) << assay.name();
  }
}

TEST(Benchmarks, EveryOperationHasAnAdmissibleDevice) {
  for (const model::Assay& assay :
       {kinase_activity_assay(), gene_expression_assay(), rt_qpcr_assay()}) {
    for (const auto& op : assay.operations()) {
      EXPECT_FALSE(model::admissible_configs(op).empty())
          << op.name() << " in " << assay.name();
    }
  }
}

TEST(Benchmarks, IndeterminateOpsAreTheCaptures) {
  const model::Assay assay = gene_expression_assay();
  for (const auto id : assay.indeterminate_operations()) {
    EXPECT_NE(assay.operation(id).name().find("capture"), std::string::npos);
    EXPECT_TRUE(assay.operation(id).parents().empty());
  }
}

TEST(Benchmarks, LanesAreIndependentSubgraphs) {
  // Replicated protocols must not cross-link: every dependency stays within
  // one replicate's id range.
  const model::Assay assay = rt_qpcr_assay(3);
  const int per_cell = assay.operation_count() / 3;
  for (const auto& op : assay.operations()) {
    for (const auto parent : op.parents()) {
      EXPECT_EQ(op.id().value() / per_cell, parent.value() / per_cell);
    }
  }
}

TEST(Benchmarks, ComponentRequirementsMatchTheProtocols) {
  const model::Assay assay = rt_qpcr_assay(1);
  // qPCR needs thermal cycling + in-situ fluorescence on a ring mixer.
  const auto& qpcr = assay.operation(OperationId{3});
  EXPECT_EQ(qpcr.container(), model::ContainerKind::Ring);
  EXPECT_TRUE(qpcr.accessories().contains(model::BuiltinAccessory::kHeatingPad));
  EXPECT_TRUE(qpcr.accessories().contains(model::BuiltinAccessory::kOpticalSystem));
  // The melt-curve read-out only needs optics, container-agnostic — the
  // component-oriented binding can put it on the qPCR ring.
  const auto& melt = assay.operation(OperationId{5});
  EXPECT_FALSE(melt.container().has_value());
  EXPECT_TRUE(model::requirements_subsume(qpcr, melt));
}

}  // namespace
}  // namespace cohls::assays
