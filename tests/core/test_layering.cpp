#include "core/layering.hpp"

#include <gtest/gtest.h>

#include "assays/benchmarks.hpp"
#include "assays/random_assay.hpp"
#include "core/progressive_resynthesis.hpp"
#include "schedule/validate.hpp"

namespace cohls::core {
namespace {

OperationId add_op(model::Assay& assay, const std::string& name,
                   std::vector<OperationId> parents = {}, bool indeterminate = false) {
  model::OperationSpec spec;
  spec.name = name;
  spec.duration = 10_min;
  spec.parents = std::move(parents);
  spec.indeterminate = indeterminate;
  return assay.add_operation(spec);
}

TEST(Layering, AllDeterminateYieldsOneLayer) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a");
  const auto b = add_op(assay, "b", {a});
  (void)add_op(assay, "c", {b});
  const LayerPlan plan = layer_assay(assay);
  EXPECT_EQ(plan.layer_count(), 1);
  EXPECT_EQ(plan.layer(0).size(), 3u);
  EXPECT_TRUE(validate_layering(plan, assay, 10).empty());
}

TEST(Layering, IndeterminateDescendantsMoveToLaterLayers) {
  model::Assay assay{"t"};
  const auto i = add_op(assay, "capture", {}, true);
  const auto child = add_op(assay, "lysis", {i});
  const auto grandchild = add_op(assay, "rt", {child});
  const LayerPlan plan = layer_assay(assay);
  EXPECT_EQ(plan.layer_count(), 2);
  EXPECT_EQ(plan.layer_of(i), 0);
  EXPECT_EQ(plan.layer_of(child), 1);
  EXPECT_EQ(plan.layer_of(grandchild), 1);
  EXPECT_TRUE(validate_layering(plan, assay, 10).empty());
}

TEST(Layering, ChainedIndeterminatesStack) {
  model::Assay assay{"t"};
  const auto i1 = add_op(assay, "i1", {}, true);
  const auto i2 = add_op(assay, "i2", {i1}, true);
  const auto i3 = add_op(assay, "i3", {i2}, true);
  const LayerPlan plan = layer_assay(assay);
  EXPECT_EQ(plan.layer_count(), 3);
  EXPECT_EQ(plan.layer_of(i1), 0);
  EXPECT_EQ(plan.layer_of(i2), 1);
  EXPECT_EQ(plan.layer_of(i3), 2);
}

TEST(Layering, IndependentIndeterminatesShareALayer) {
  model::Assay assay{"t"};
  (void)add_op(assay, "i1", {}, true);
  (void)add_op(assay, "i2", {}, true);
  (void)add_op(assay, "i3", {}, true);
  const LayerPlan plan = layer_assay(assay);
  EXPECT_EQ(plan.layer_count(), 1);
}

TEST(Layering, ThresholdForcesEviction) {
  model::Assay assay{"t"};
  for (int i = 0; i < 6; ++i) {
    (void)add_op(assay, "i" + std::to_string(i), {}, true);
  }
  LayeringOptions options;
  options.indeterminate_threshold = 2;
  const LayerPlan plan = layer_assay(assay, options);
  EXPECT_EQ(plan.layer_count(), 3);
  for (int li = 0; li < plan.layer_count(); ++li) {
    EXPECT_EQ(plan.layer(li).size(), 2u);
  }
  EXPECT_TRUE(validate_layering(plan, assay, 2).empty());
}

TEST(Layering, AncestorsOfIndeterminateStayInItsLayer) {
  model::Assay assay{"t"};
  const auto prep = add_op(assay, "prep");
  const auto i = add_op(assay, "capture", {prep}, true);
  const LayerPlan plan = layer_assay(assay);
  EXPECT_EQ(plan.layer_count(), 1);
  EXPECT_EQ(plan.layer_of(prep), plan.layer_of(i));
}

TEST(Layering, Case2ShapeMatchesPaper) {
  // 10 parallel captures, threshold 10 -> exactly 2 layers (the paper's
  // "277m+I1" has one indeterminate symbol).
  const model::Assay assay = assays::gene_expression_assay();
  LayeringOptions options;
  options.indeterminate_threshold = 10;
  const LayerPlan plan = layer_assay(assay, options);
  EXPECT_EQ(plan.layer_count(), 2);
  EXPECT_EQ(plan.layer(0).size(), 10u);  // the captures
  EXPECT_EQ(plan.layer(1).size(), 60u);
  EXPECT_TRUE(validate_layering(plan, assay, 10).empty());
}

TEST(Layering, Case3ShapeMatchesPaper) {
  // 20 captures, threshold 10 -> 3 layers (the paper's "603m+I1+I2").
  const model::Assay assay = assays::rt_qpcr_assay();
  LayeringOptions options;
  options.indeterminate_threshold = 10;
  const LayerPlan plan = layer_assay(assay, options);
  EXPECT_EQ(plan.layer_count(), 3);
  EXPECT_TRUE(validate_layering(plan, assay, 10).empty());
}

TEST(Layering, RejectsEmptyAssayAndBadThreshold) {
  model::Assay assay{"t"};
  EXPECT_THROW((void)layer_assay(assay), PreconditionError);
  (void)add_op(assay, "a");
  LayeringOptions options;
  options.indeterminate_threshold = 0;
  EXPECT_THROW((void)layer_assay(assay, options), PreconditionError);
}

TEST(Layering, EvictionNeverEmptiesTheLayer) {
  // At t = 1 and 2 the cheapest candidate's removal set (its cut's sink
  // side plus their in-layer descendants) can be the whole layer, and the
  // next cheapest's can hold every indeterminate op of the layer. Either
  // would leave a layer that ends no branch, so such candidates are passed
  // over; this input used to abort synthesis.
  assays::RandomAssayOptions gen;
  gen.operations = 120;
  gen.indeterminate_probability = 0.15;
  gen.edge_probability = 0.17;
  const model::Assay assay = assays::random_assay(19, gen);
  for (const int threshold : {1, 2}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      LayeringOptions options;
      options.indeterminate_threshold = threshold;
      options.seed = seed;
      const auto violations = validate_layering(layer_assay(assay, options), assay, threshold);
      EXPECT_TRUE(violations.empty()) << "t = " << threshold << ", seed " << seed << ": "
                                      << violations.front();
    }
    SynthesisOptions options;
    options.layering.indeterminate_threshold = threshold;
    const SynthesisReport report = synthesize(assay, options);
    const auto diagnostics = schedule::certify_result(report.result, assay, report.transport);
    EXPECT_TRUE(diagnostics.empty()) << "t = " << threshold << ": "
                                     << diag::summary_line(diagnostics.front());
  }
}

TEST(LayerPlan, LayerOfUnknownIsNegative) {
  const LayerPlan plan({{OperationId{0}}});
  EXPECT_EQ(plan.layer_of(OperationId{5}), -1);
  EXPECT_EQ(plan.layer_of(OperationId{}), -1);
}

TEST(LayerPlan, RejectsDuplicateAssignment) {
  EXPECT_THROW(LayerPlan({{OperationId{0}}, {OperationId{0}}}), PreconditionError);
}

// --- eviction_cost: the Fig. 5 scenarios -----------------------------------

TEST(EvictionCost, SingleChainStoresOneEdge) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a");
  const auto o1 = add_op(assay, "o1", {a}, true);
  const EvictionCost cost = eviction_cost(assay, {a, o1}, o1);
  EXPECT_EQ(cost.storage, 1);
  EXPECT_EQ(cost.moved, std::vector<OperationId>{o1});
}

TEST(EvictionCost, TwoChainsStoreTwoEdges) {
  model::Assay assay{"t"};
  const auto b = add_op(assay, "b");
  const auto c = add_op(assay, "c");
  const auto o2 = add_op(assay, "o2", {b, c}, true);
  const EvictionCost cost = eviction_cost(assay, {b, c, o2}, o2);
  EXPECT_EQ(cost.storage, 2);
  EXPECT_EQ(cost.moved, std::vector<OperationId>{o2});
}

TEST(EvictionCost, DiamondMovesAncestorsForCheaperCut) {
  model::Assay assay{"t"};
  const auto d = add_op(assay, "d");
  const auto e = add_op(assay, "e", {d});
  const auto f = add_op(assay, "f", {d});
  const auto o3 = add_op(assay, "o3", {e, f}, true);
  const EvictionCost cost = eviction_cost(assay, {d, e, f, o3}, o3);
  EXPECT_EQ(cost.storage, 1);
  EXPECT_EQ(cost.moved.size(), 4u);  // d, e, f and o3 itself
}

TEST(EvictionCost, TieBreakPrefersFewerMovedVertices) {
  // a -> b -> o: every single-edge cut has value 1; the sink-closest cut
  // moves nothing but o itself (Fig. 5(d)'s c2-over-c1 rule).
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a");
  const auto b = add_op(assay, "b", {a});
  const auto o = add_op(assay, "o", {b}, true);
  const EvictionCost cost = eviction_cost(assay, {a, b, o}, o);
  EXPECT_EQ(cost.storage, 1);
  EXPECT_EQ(cost.moved, std::vector<OperationId>{o});
}

TEST(EvictionCost, VictimMustBeInLayer) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a");
  const auto o = add_op(assay, "o", {a}, true);
  EXPECT_THROW((void)eviction_cost(assay, {a}, o), PreconditionError);
}

// --- boundary_storage -------------------------------------------------------

TEST(BoundaryStorage, SingleLayerNeedsNoStorage) {
  model::Assay assay{"t"};
  const auto a = add_op(assay, "a");
  (void)add_op(assay, "b", {a});
  const LayerPlan plan = layer_assay(assay);
  EXPECT_TRUE(boundary_storage(plan, assay).empty());
}

TEST(BoundaryStorage, CountsCrossBoundaryEdges) {
  model::Assay assay{"t"};
  const auto i = add_op(assay, "capture", {}, true);
  const auto c1 = add_op(assay, "lysis", {i});
  (void)add_op(assay, "rt", {c1});
  const LayerPlan plan = layer_assay(assay);
  ASSERT_EQ(plan.layer_count(), 2);
  // Only the capture->lysis edge crosses the single boundary.
  EXPECT_EQ(boundary_storage(plan, assay), std::vector<int>{1});
}

TEST(BoundaryStorage, LongEdgesOccupyEveryCrossedBoundary) {
  model::Assay assay{"t"};
  const auto i1 = add_op(assay, "i1", {}, true);
  const auto i2 = add_op(assay, "i2", {i1}, true);
  const auto sink = add_op(assay, "sink", {i1, i2});
  (void)sink;
  const LayerPlan plan = layer_assay(assay);
  ASSERT_EQ(plan.layer_count(), 3);
  // i1->i2 crosses boundary 0; i1->sink crosses both; i2->sink crosses 1.
  EXPECT_EQ(boundary_storage(plan, assay), (std::vector<int>{2, 2}));
}

// Property: layering invariants hold on random assays for several seeds and
// thresholds.
class LayeringProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LayeringProperty, InvariantsHoldOnRandomAssays) {
  const auto [seed, threshold] = GetParam();
  assays::RandomAssayOptions gen;
  gen.operations = 30;
  gen.indeterminate_probability = 0.3;
  const model::Assay assay = assays::random_assay(static_cast<std::uint64_t>(seed) * 7 + 1, gen);
  LayeringOptions options;
  options.indeterminate_threshold = threshold;
  options.seed = static_cast<std::uint64_t>(seed);
  const LayerPlan plan = layer_assay(assay, options);
  const auto violations = validate_layering(plan, assay, threshold);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

INSTANTIATE_TEST_SUITE_P(SeedsAndThresholds, LayeringProperty,
                         ::testing::Combine(::testing::Range(0, 12),
                                            ::testing::Values(1, 2, 5)));

}  // namespace
}  // namespace cohls::core
