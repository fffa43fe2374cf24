#include "model/assay.hpp"

#include <gtest/gtest.h>

#include "support/traversal.hpp"

namespace cohls::model {
namespace {

/// The ids a parents() or children() view yields, in order.
std::vector<OperationId> ids(const auto& view) {
  std::vector<OperationId> out;
  for (const OperationId id : view) {
    out.push_back(id);
  }
  return out;
}

OperationSpec op(const std::string& name, std::vector<OperationId> parents = {},
                 bool indeterminate = false) {
  OperationSpec spec;
  spec.name = name;
  spec.duration = 10_min;
  spec.indeterminate = indeterminate;
  spec.parents = std::move(parents);
  return spec;
}

TEST(Assay, AddOperationsBuildsGraph) {
  Assay assay("test");
  const auto a = assay.add_operation(op("a"));
  const auto b = assay.add_operation(op("b", {a}));
  const auto c = assay.add_operation(op("c", {a, b}));
  EXPECT_EQ(assay.operation_count(), 3);
  EXPECT_EQ(ids(assay.operation(b).parents()), std::vector<OperationId>{a});
  EXPECT_EQ(ids(assay.children(a)), (std::vector<OperationId>{b, c}));
  EXPECT_TRUE(assay.children(c).empty());
  EXPECT_EQ(oracles::dependency_graph(assay).edge_count(), 3u);
}

TEST(Assay, ChildrenListInTheOrderTheyWereAdded) {
  Assay assay("test");
  const auto a = assay.add_operation(op("a"));
  const auto b = assay.add_operation(op("b", {a}));
  const auto c = assay.add_operation(op("c"));
  const auto d = assay.add_operation(op("d", {c, a}));
  const auto e = assay.add_operation(op("e", {a, c}));
  const auto f = assay.add_operation(op("f", {b, a}));
  EXPECT_EQ(ids(assay.children(a)), (std::vector<OperationId>{b, d, e, f}));
  EXPECT_EQ(ids(assay.children(b)), std::vector<OperationId>{f});
  EXPECT_EQ(ids(assay.children(c)), (std::vector<OperationId>{d, e}));
  // The same order as the successor lists of the dependency graph built
  // from the parent lists.
  const graph::Digraph g = oracles::dependency_graph(assay);
  for (const Operation& operation : assay.operations()) {
    std::vector<OperationId> successors;
    for (const auto node : g.successors(operation.id().index())) {
      successors.push_back(OperationId{static_cast<std::int32_t>(node)});
    }
    EXPECT_EQ(ids(assay.children(operation.id())), successors) << operation.name();
  }
}

TEST(Assay, ParentsMustExistFirst) {
  Assay assay("test");
  EXPECT_THROW(assay.add_operation(op("x", {OperationId{0}})), PreconditionError);
  const auto a = assay.add_operation(op("a"));
  (void)a;
  EXPECT_THROW(assay.add_operation(op("y", {OperationId{5}})), PreconditionError);
}

TEST(Assay, SelfParentImpossible) {
  Assay assay("test");
  // The would-be operation's own id equals operation_count(); using it as a
  // parent is rejected, so cycles cannot be constructed.
  EXPECT_THROW(assay.add_operation(op("a", {OperationId{0}})), PreconditionError);
}

TEST(Assay, IndeterminateQueries) {
  Assay assay("test");
  (void)assay.add_operation(op("a"));
  const auto b = assay.add_operation(op("b", {}, true));
  const auto c = assay.add_operation(op("c", {}, true));
  EXPECT_EQ(assay.indeterminate_count(), 2);
  EXPECT_EQ(assay.indeterminate_operations(), (std::vector<OperationId>{b, c}));
}

TEST(Assay, RejectsUnregisteredAccessory) {
  Assay assay("test");
  OperationSpec spec = op("a");
  spec.accessories.insert(BuiltinAccessory::kCount);  // one past the built-ins
  EXPECT_THROW(assay.add_operation(spec), PreconditionError);
}

TEST(Assay, CustomRegistryAllowsExtendedAccessories) {
  AccessoryRegistry registry;
  const AccessoryId extra = registry.register_accessory("magnet", 2.0);
  Assay assay("test", registry);
  OperationSpec spec = op("a");
  spec.accessories.insert(extra);
  EXPECT_NO_THROW(assay.add_operation(spec));
}

TEST(Assay, UnknownOperationThrows) {
  Assay assay("test");
  EXPECT_THROW((void)assay.operation(OperationId{0}), PreconditionError);
  EXPECT_THROW((void)assay.children(OperationId{3}), PreconditionError);
}

TEST(Assay, RejectsEmptyName) {
  EXPECT_THROW(Assay{""}, PreconditionError);
}

TEST(Assay, GraphIsAlwaysAcyclicByConstruction) {
  Assay assay("test");
  const auto a = assay.add_operation(op("a"));
  const auto b = assay.add_operation(op("b", {a}));
  (void)assay.add_operation(op("c", {b}));
  // Topological order exists for any constructible assay.
  const graph::Digraph g = oracles::dependency_graph(assay);
  std::size_t edges = 0;
  for (graph::NodeIndex n = 0; n < g.node_count(); ++n) {
    for (const auto s : g.successors(n)) {
      EXPECT_GT(s, n) << "edges must go from lower to higher ids";
      ++edges;
    }
  }
  EXPECT_EQ(edges, g.edge_count());
}

}  // namespace
}  // namespace cohls::model
