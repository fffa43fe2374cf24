#include "schedule/transport_plan.hpp"

#include <gtest/gtest.h>

#include "model/assay.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule/validate.hpp"
#include "util/check.hpp"

namespace cohls::schedule {
namespace {

TEST(TransportProgression, TermsAreArithmetic) {
  const TransportProgression p{1_min, 4_min, 4};
  EXPECT_EQ(p.term(0), 1_min);
  EXPECT_EQ(p.term(1), 2_min);
  EXPECT_EQ(p.term(2), 3_min);
  EXPECT_EQ(p.term(3), 4_min);
}

TEST(TransportProgression, BeyondLastTermClampsToMaximum) {
  const TransportProgression p{1_min, 4_min, 4};
  EXPECT_EQ(p.term(9), 4_min);
}

TEST(TransportProgression, SingleTermProgression) {
  const TransportProgression p{3_min, 3_min, 1};
  EXPECT_EQ(p.term(0), 3_min);
  EXPECT_EQ(p.term(5), 3_min);
}

TEST(TransportProgression, NonDivisibleSpanRoundsDown) {
  const TransportProgression p{1_min, 4_min, 3};  // terms 1, 2.5->2, 4
  EXPECT_EQ(p.term(0), 1_min);
  EXPECT_EQ(p.term(1), 2_min);
  EXPECT_EQ(p.term(2), 4_min);
}

TEST(TransportProgression, RejectsBadShapes) {
  const TransportProgression inverted{4_min, 1_min, 3};
  EXPECT_THROW((void)inverted.term(0), PreconditionError);
  const TransportProgression no_terms{1_min, 2_min, 0};
  EXPECT_THROW((void)no_terms.term(0), PreconditionError);
  const TransportProgression fine{1_min, 2_min, 2};
  EXPECT_THROW((void)fine.term(-1), PreconditionError);
}

/// a -> b, a -> c: edge 0 and edge 1.
model::Assay fork_assay() {
  model::Assay assay{"fork"};
  model::OperationSpec spec;
  spec.duration = 5_min;
  spec.name = "a";
  const OperationId a = assay.add_operation(spec);
  spec.name = "b";
  spec.parents = {a};
  (void)assay.add_operation(spec);
  spec.name = "c";
  (void)assay.add_operation(spec);
  return assay;
}

TEST(TransportPlan, UniformFallback) {
  const TransportPlan plan{2_min};
  EXPECT_EQ(plan.edge_time(EdgeId{0}), 2_min);
  EXPECT_EQ(plan.edge_time(EdgeId{1000}), 2_min);
  EXPECT_EQ(plan.uniform_time(), 2_min);
  EXPECT_TRUE(plan.fits(fork_assay()));
}

TEST(TransportPlan, PerEdgeOverride) {
  const model::Assay assay = fork_assay();
  TransportPlan plan{2_min, assay};
  plan.set_edge_time(EdgeId{0}, 5_min);
  EXPECT_EQ(plan.edge_time(EdgeId{0}), 5_min);
  // Each edge has its own time: the sibling edge keeps the fallback.
  EXPECT_EQ(plan.edge_time(EdgeId{1}), 2_min);
  EXPECT_EQ(plan.uniform_time(), 2_min);
}

TEST(TransportPlan, ZeroOverrideRepresentsCoLocation) {
  const model::Assay assay = fork_assay();
  TransportPlan plan{2_min, assay};
  plan.set_edge_time(EdgeId{1}, 0_min);
  EXPECT_EQ(plan.edge_time(EdgeId{1}), 0_min);
}

TEST(TransportPlan, RejectsNegativeTimes) {
  const model::Assay assay = fork_assay();
  TransportPlan plan{1_min, assay};
  EXPECT_THROW(plan.set_edge_time(EdgeId{0}, Minutes{-1}), PreconditionError);
  EXPECT_THROW(TransportPlan{Minutes{-2}}, PreconditionError);
}

// A per-edge plan covers the edges of the assay it was made for; an edge
// id beyond them is a precondition failure, never a read past the end.
TEST(TransportPlan, EdgesOutsideThePlanAreRejected) {
  const model::Assay assay = fork_assay();
  TransportPlan plan{1_min, assay};
  EXPECT_THROW((void)plan.edge_time(EdgeId{2}), PreconditionError);
  EXPECT_THROW((void)plan.edge_time(EdgeId{}), PreconditionError);
  EXPECT_THROW(plan.set_edge_time(EdgeId{2}, 1_min), PreconditionError);
  // A uniform plan has no per-edge times to set.
  TransportPlan uniform{1_min};
  EXPECT_THROW(uniform.set_edge_time(EdgeId{0}, 1_min), PreconditionError);

  model::Assay bigger = fork_assay();
  model::OperationSpec spec;
  spec.name = "d";
  spec.duration = 5_min;
  spec.parents = {OperationId{1}, OperationId{2}};
  (void)bigger.add_operation(spec);
  EXPECT_TRUE(plan.fits(assay));
  EXPECT_FALSE(plan.fits(bigger));
}

// The readers check the plan against the assay they are given: a per-edge
// plan made for another assay is a precondition failure before any edge
// is read.
TEST(TransportPlan, ReadersRejectAPlanForAnotherAssay) {
  const model::Assay assay = fork_assay();
  const TransportPlan plan{1_min, assay};
  model::Assay bigger = fork_assay();
  model::OperationSpec spec;
  spec.name = "d";
  spec.duration = 5_min;
  spec.parents = {OperationId{1}, OperationId{2}};
  const OperationId d = bigger.add_operation(spec);

  LayerRequest request;
  request.layer = LayerId{0};
  request.ops = {OperationId{0}, OperationId{1}, OperationId{2}, d};
  const model::CostModel costs;
  model::DeviceInventory inventory(4);
  EXPECT_THROW((void)schedule_layer(request, bigger, plan, costs, inventory),
               PreconditionError);

  model::DeviceInventory fits_inventory(4);
  request.ops = {OperationId{0}, OperationId{1}, OperationId{2}};
  SynthesisResult result;
  result.layers.push_back(schedule_layer(request, assay, plan, costs, fits_inventory).schedule);
  result.devices = fits_inventory;
  EXPECT_TRUE(certify_result(result, assay, plan).empty());
  EXPECT_THROW((void)certify_result(result, bigger, plan), PreconditionError);
}

}  // namespace
}  // namespace cohls::schedule
