// The Assay's flat graph against the adjacency-list Digraph the test oracles
// build from the parent lists (oracles::dependency_graph): the same parents
// and children in the same order, and edge ids numbered in the order the
// Digraph adds its edges -- operation after operation, each in parent-list
// order. Checked on the three paper protocols, 200 random assays, an assay
// with a repeated parent entry, and copies that outlive their source.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "assays/benchmarks.hpp"
#include "assays/random_assay.hpp"
#include "support/traversal.hpp"

namespace cohls::assays {
namespace {

void expect_graph_matches_oracle(const model::Assay& assay) {
  const graph::Digraph g = oracles::dependency_graph(assay);
  ASSERT_EQ(static_cast<std::size_t>(assay.edge_count()), g.edge_count());
  std::int32_t next_edge = 0;
  for (const model::Operation& op : assay.operations()) {
    const graph::NodeIndex node = op.id().index();

    // Parents, their edges and the edge ids, in the Digraph's order.
    const auto& predecessors = g.predecessors(node);
    ASSERT_EQ(op.parents().size(), predecessors.size()) << op.name();
    ASSERT_EQ(op.parent_edges().size(), predecessors.size()) << op.name();
    std::size_t k = 0;
    for (const EdgeId edge : op.parent_edges()) {
      EXPECT_EQ(edge.value(), next_edge++) << op.name();
      const OperationId parent{static_cast<std::int32_t>(predecessors[k])};
      EXPECT_EQ(op.parents()[k], parent) << op.name();
      EXPECT_EQ(assay.edge_parent(edge), parent) << op.name();
      EXPECT_EQ(assay.edge_child(edge), op.id()) << op.name();
      ++k;
    }

    // Children and their edges, in the Digraph's order.
    const auto& successors = g.successors(node);
    std::vector<OperationId> children;
    for (const OperationId child : assay.children(op.id())) {
      children.push_back(child);
    }
    std::vector<OperationId> expected;
    for (const graph::NodeIndex s : successors) {
      expected.push_back(OperationId{static_cast<std::int32_t>(s)});
    }
    EXPECT_EQ(children, expected) << op.name();
    EXPECT_EQ(assay.children(op.id()).empty(), successors.empty()) << op.name();
    k = 0;
    std::optional<EdgeId> previous;
    for (const EdgeId edge : assay.child_edges(op.id())) {
      ASSERT_LT(k, expected.size()) << op.name();
      EXPECT_EQ(assay.edge_parent(edge), op.id()) << op.name();
      EXPECT_EQ(assay.edge_child(edge), expected[k]) << op.name();
      EXPECT_TRUE(!previous || *previous < edge) << op.name();
      previous = edge;
      ++k;
    }
    EXPECT_EQ(k, expected.size()) << op.name();
  }
  EXPECT_EQ(next_edge, assay.edge_count());
}

TEST(AssayGraph, ProtocolsMatchTheDependencyGraph) {
  expect_graph_matches_oracle(kinase_activity_assay());
  expect_graph_matches_oracle(gene_expression_assay());
  expect_graph_matches_oracle(rt_qpcr_assay());
}

class RandomAssayGraph : public ::testing::TestWithParam<int> {};

TEST_P(RandomAssayGraph, MatchesTheDependencyGraph) {
  const int seed = GetParam();
  RandomAssayOptions shape;
  shape.operations = 4 + seed % 57;
  shape.edge_probability = 0.1 + 0.05 * (seed % 7);
  shape.max_parents = 1 + seed % 5;
  expect_graph_matches_oracle(random_assay(static_cast<std::uint64_t>(seed), shape));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAssayGraph, ::testing::Range(0, 200));

TEST(AssayGraph, RepeatedParentEntriesAreSeparateEdges) {
  model::Assay assay("repeat");
  model::OperationSpec spec;
  spec.duration = 5_min;
  spec.name = "a";
  const OperationId a = assay.add_operation(spec);
  spec.name = "b";
  spec.parents = {a, a};
  const OperationId b = assay.add_operation(spec);
  EXPECT_EQ(assay.edge_count(), 2);
  std::vector<OperationId> children;
  for (const OperationId child : assay.children(a)) {
    children.push_back(child);
  }
  EXPECT_EQ(children, (std::vector<OperationId>{b, b}));
  expect_graph_matches_oracle(assay);
}

// Parent views point into the assay's own edge arrays: a copy must read
// its own arrays after the source is gone, and so must a moved-to assay.
TEST(AssayGraph, CopiesAndMovesOutliveTheirSource) {
  std::optional<model::Assay> source(rt_qpcr_assay());
  const model::Assay copy = *source;
  model::Assay assigned("assigned");
  assigned = *source;
  const model::Assay moved = std::move(*source);
  source.reset();
  expect_graph_matches_oracle(copy);
  expect_graph_matches_oracle(assigned);
  expect_graph_matches_oracle(moved);
}

TEST(AssayGraph, EdgeIdsOutsideTheAssayAreRejected) {
  const model::Assay assay = gene_expression_assay();
  EXPECT_THROW((void)assay.edge_parent(EdgeId{assay.edge_count()}), PreconditionError);
  EXPECT_THROW((void)assay.edge_child(EdgeId{}), PreconditionError);
  EXPECT_THROW((void)assay.child_edges(OperationId{assay.operation_count()}),
               PreconditionError);
}

}  // namespace
}  // namespace cohls::assays
