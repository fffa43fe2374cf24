#include "assays/random_assay.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "model/compatibility.hpp"
#include "support/traversal.hpp"

namespace cohls::assays {
namespace {

TEST(RandomAssay, Deterministic) {
  const model::Assay a = random_assay(42);
  const model::Assay b = random_assay(42);
  ASSERT_EQ(a.operation_count(), b.operation_count());
  for (int i = 0; i < a.operation_count(); ++i) {
    const auto& oa = a.operation(OperationId{i});
    const auto& ob = b.operation(OperationId{i});
    EXPECT_EQ(oa.duration(), ob.duration());
    EXPECT_EQ(oa.indeterminate(), ob.indeterminate());
    EXPECT_EQ(oa.accessories(), ob.accessories());
    EXPECT_TRUE(std::ranges::equal(oa.parents(), ob.parents()));
  }
}

TEST(RandomAssay, DifferentSeedsDiffer) {
  const model::Assay a = random_assay(1);
  const model::Assay b = random_assay(2);
  bool any_difference = a.operation_count() != b.operation_count();
  for (int i = 0; !any_difference && i < a.operation_count(); ++i) {
    const auto& oa = a.operation(OperationId{i});
    const auto& ob = b.operation(OperationId{i});
    any_difference = oa.duration() != ob.duration() || !std::ranges::equal(oa.parents(), ob.parents()) ||
                     !(oa.accessories() == ob.accessories());
  }
  EXPECT_TRUE(any_difference);
}

TEST(RandomAssay, HonorsOperationCount) {
  RandomAssayOptions options;
  options.operations = 31;
  EXPECT_EQ(random_assay(7, options).operation_count(), 31);
}

TEST(RandomAssay, RespectsMaxParents) {
  RandomAssayOptions options;
  options.operations = 40;
  options.edge_probability = 0.9;
  options.max_parents = 2;
  const model::Assay assay = random_assay(11, options);
  for (const auto& op : assay.operations()) {
    EXPECT_LE(op.parents().size(), 2u);
  }
}

TEST(RandomAssay, ZeroIndeterminateProbabilityMeansNone) {
  RandomAssayOptions options;
  options.operations = 50;
  options.indeterminate_probability = 0.0;
  EXPECT_EQ(random_assay(3, options).indeterminate_count(), 0);
}

class RandomAssayProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomAssayProperty, AlwaysWellFormed) {
  RandomAssayOptions options;
  options.operations = 25;
  options.indeterminate_probability = 0.3;
  const model::Assay assay =
      random_assay(static_cast<std::uint64_t>(GetParam()) * 53 + 2, options);
  EXPECT_FALSE(graph::has_cycle(oracles::dependency_graph(assay)));
  for (const auto& op : assay.operations()) {
    EXPECT_GE(op.duration(), options.min_duration);
    EXPECT_LE(op.duration(), options.max_duration);
    EXPECT_FALSE(model::admissible_configs(op).empty())
        << "spec must always be satisfiable";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAssayProperty, ::testing::Range(0, 20));

}  // namespace
}  // namespace cohls::assays
