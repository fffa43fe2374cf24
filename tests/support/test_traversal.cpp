#include "support/traversal.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.hpp"

namespace cohls::graph {
namespace {

Digraph diamond() {
  // 0 -> 1 -> 3, 0 -> 2 -> 3
  Digraph g{4};
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

TEST(Traversal, TopologicalSortRespectsEdges) {
  const Digraph g = diamond();
  const auto order = topological_sort(g);
  ASSERT_TRUE(order.has_value());
  std::vector<std::size_t> position(g.node_count());
  for (std::size_t i = 0; i < order->size(); ++i) {
    position[(*order)[i]] = i;
  }
  for (NodeIndex n = 0; n < g.node_count(); ++n) {
    for (const NodeIndex s : g.successors(n)) {
      EXPECT_LT(position[n], position[s]);
    }
  }
}

TEST(Traversal, TopologicalSortDetectsCycle) {
  Digraph g{3};
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_FALSE(topological_sort(g).has_value());
  EXPECT_TRUE(has_cycle(g));
}

TEST(Traversal, AcyclicGraphHasNoCycle) {
  EXPECT_FALSE(has_cycle(diamond()));
}

TEST(Traversal, SelfLoopIsACycle) {
  Digraph g{1};
  g.add_edge(0, 0);
  EXPECT_TRUE(has_cycle(g));
}

TEST(Traversal, DescendantsExcludeStart) {
  const Digraph g = diamond();
  const auto d = descendants(g, 0);
  EXPECT_EQ(d, (std::vector<NodeIndex>{1, 2, 3}));
  EXPECT_TRUE(descendants(g, 3).empty());
}

TEST(Traversal, AncestorsExcludeStart) {
  const Digraph g = diamond();
  const auto a = ancestors(g, 3);
  EXPECT_EQ(a, (std::vector<NodeIndex>{0, 1, 2}));
  EXPECT_TRUE(ancestors(g, 0).empty());
}

TEST(Traversal, MasksMatchLists) {
  const Digraph g = diamond();
  const auto mask = descendant_mask(g, 0);
  const auto list = descendants(g, 0);
  for (NodeIndex n = 0; n < g.node_count(); ++n) {
    const bool in_list = std::find(list.begin(), list.end(), n) != list.end();
    EXPECT_EQ(mask[n], in_list);
  }
}

TEST(Traversal, StartNodeIsNotItsOwnDescendantInDag) {
  const Digraph g = diamond();
  EXPECT_FALSE(descendant_mask(g, 0)[0]);
  EXPECT_FALSE(ancestor_mask(g, 3)[3]);
}

// Property: on random DAGs (edges only forward in a random permutation),
// ancestors/descendants are mutually consistent and the topo sort exists.
class RandomDagProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagProperty, AncestorDescendantDuality) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  const std::size_t n = 3 + static_cast<std::size_t>(rng.uniform_int(0, 17));
  Digraph g{n};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(0.25)) {
        g.add_edge(i, j);
      }
    }
  }
  ASSERT_TRUE(topological_sort(g).has_value());
  for (NodeIndex a = 0; a < n; ++a) {
    const auto desc = descendant_mask(g, a);
    for (NodeIndex b = 0; b < n; ++b) {
      if (desc[b]) {
        EXPECT_TRUE(ancestor_mask(g, b)[a])
            << a << " reaches " << b << " but is not its ancestor";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace cohls::graph
