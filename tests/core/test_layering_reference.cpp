// Differential tests of Algorithm 1 against the test-only reference in
// tests/support/flow_reference.hpp, which recomputes every candidate's
// eviction cut over whole-assay masks in every round. Each case requires
// identical layer plans and, for every layer the reference sees (as the
// dependency phase leaves it and after each eviction), the same storage and
// moved operations from core::eviction_cost and the reference cut for every
// indeterminate operation. A candidate that survives an eviction must keep
// the cost it had on the dependency-phase layer: that is why the library
// computes each candidate's cut once per layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "assays/benchmarks.hpp"
#include "assays/random_assay.hpp"
#include "core/layering.hpp"
#include "support/flow_reference.hpp"

namespace cohls::core {
namespace {

void expect_layering_matches_reference(const model::Assay& assay,
                                       const LayeringOptions& options) {
  const std::string where = assay.name() + ", t = " +
                            std::to_string(options.indeterminate_threshold) + ", seed " +
                            std::to_string(options.seed);
  // Reference cost of each candidate on its dependency-phase layer.
  std::vector<EvictionCost> first(static_cast<std::size_t>(assay.operation_count()));
  const auto observe = [&](const std::vector<OperationId>& layer, bool after_eviction) {
    for (const OperationId op : layer) {
      if (!assay.operation(op).indeterminate()) {
        continue;
      }
      const EvictionCost got = eviction_cost(assay, layer, op);
      const EvictionCost want = oracles::eviction_cost_reference(assay, layer, op);
      EXPECT_EQ(got.storage, want.storage) << where << ", op " << op;
      EXPECT_EQ(got.moved, want.moved) << where << ", op " << op;
      EvictionCost& before = first[op.index()];
      if (!after_eviction) {
        before = want;
      } else {
        EXPECT_EQ(want.storage, before.storage) << where << ", survivor " << op;
        EXPECT_EQ(want.moved, before.moved) << where << ", survivor " << op;
      }
    }
  };
  const LayerPlan want = oracles::layer_assay_reference(assay, options, observe);
  EXPECT_EQ(layer_assay(assay, options).layers(), want.layers()) << where;
  const auto violations = validate_layering(want, assay, options.indeterminate_threshold);
  EXPECT_TRUE(violations.empty()) << where << ": " << violations.front();
}

model::Assay protocol(int index) {
  switch (index) {
    case 0:
      return assays::kinase_activity_assay();
    case 1:
      return assays::gene_expression_assay();
    default:
      return assays::rt_qpcr_assay();
  }
}

class LayeringReference : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LayeringReference, ProtocolPlansAndCutsMatch) {
  const auto [index, threshold] = GetParam();
  const model::Assay assay = protocol(index);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    LayeringOptions options;
    options.indeterminate_threshold = threshold;
    options.seed = seed;
    expect_layering_matches_reference(assay, options);
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, LayeringReference,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Values(1, 2, 3, 5, 10)));

/// Ten random assays per case, 20-140 ops with indeterminate probability
/// 0.10-0.35 and edge probability 0.05-0.17, each layered at t = 1, 2, 3
/// and 5 with layering seed 7 s + t.
class RandomLayeringReference : public ::testing::TestWithParam<int> {};

TEST_P(RandomLayeringReference, PlansAndCutsMatch) {
  for (int s = GetParam() * 10; s < (GetParam() + 1) * 10; ++s) {
    Rng draw{static_cast<std::uint64_t>(s) * 7919 + 3};
    assays::RandomAssayOptions gen;
    gen.operations = static_cast<int>(draw.uniform_int(20, 140));
    gen.indeterminate_probability = 0.10 + 0.25 * draw.uniform_double();
    gen.edge_probability = 0.05 + 0.12 * draw.uniform_double();
    const model::Assay assay = assays::random_assay(static_cast<std::uint64_t>(s), gen);
    for (const int threshold : {1, 2, 3, 5}) {
      LayeringOptions options;
      options.indeterminate_threshold = threshold;
      options.seed = static_cast<std::uint64_t>(7 * s + threshold);
      expect_layering_matches_reference(assay, options);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLayeringReference, ::testing::Range(0, 20));

}  // namespace
}  // namespace cohls::core
