#include "support/digraph.hpp"

#include <gtest/gtest.h>

namespace cohls::graph {
namespace {

TEST(Digraph, StartsEmpty) {
  Digraph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Digraph, PreSizedConstruction) {
  Digraph g{5};
  EXPECT_EQ(g.node_count(), 5u);
}

TEST(Digraph, AddNodeReturnsSequentialIndices) {
  Digraph g;
  EXPECT_EQ(g.add_node(), 0u);
  EXPECT_EQ(g.add_node(), 1u);
  EXPECT_EQ(g.add_node(), 2u);
}

TEST(Digraph, EdgesUpdateBothAdjacencyLists) {
  Digraph g{3};
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  EXPECT_EQ(g.successors(0).size(), 2u);
  EXPECT_EQ(g.predecessors(1).size(), 1u);
  EXPECT_EQ(g.predecessors(2).size(), 1u);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(Digraph, HasEdge) {
  Digraph g{3};
  g.add_edge(1, 2);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Digraph, ParallelEdgesAllowed) {
  Digraph g{2};
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.successors(0).size(), 2u);
}

TEST(Digraph, RejectsOutOfRangeEndpoints) {
  Digraph g{2};
  EXPECT_THROW(g.add_edge(0, 2), PreconditionError);
  EXPECT_THROW(g.add_edge(5, 0), PreconditionError);
  EXPECT_THROW((void)g.successors(2), PreconditionError);
}

}  // namespace
}  // namespace cohls::graph
