#include "engine/layer_cache.hpp"

#include <gtest/gtest.h>

#include <set>

#include "model/assay.hpp"

namespace cohls::engine {
namespace {

model::OperationSpec op_spec(std::string name, long duration,
                             std::vector<OperationId> parents = {}) {
  model::OperationSpec spec;
  spec.name = std::move(name);
  spec.container = model::ContainerKind::Chamber;
  spec.capacity = model::Capacity::Tiny;
  spec.duration = Minutes{duration};
  spec.parents = std::move(parents);
  return spec;
}

/// Owns everything a LayerSolveContext references.
struct Fixture {
  model::Assay assay{"cache-test"};
  schedule::TransportPlan transport{Minutes{5}};
  model::CostModel costs{};
  core::EngineOptions engine{};
  model::DeviceInventory inventory{10};
  schedule::LayerRequest request;

  [[nodiscard]] core::LayerSolveContext context() const {
    return {request, assay, transport, costs, engine, inventory};
  }
  [[nodiscard]] core::LayerOutcome solve() const {
    return core::synthesize_layer(request, assay, transport, costs, engine, inventory);
  }
};

/// A fixture with one `chain`-op pipeline in the layer.
Fixture chain_fixture(int chain, long base_duration = 10) {
  Fixture f;
  std::vector<OperationId> parents;
  for (int i = 0; i < chain; ++i) {
    const OperationId id = f.assay.add_operation(
        op_spec("op" + std::to_string(i), base_duration + i, parents));
    parents = {id};
    f.request.ops.push_back(id);
  }
  return f;
}

TEST(LayerSolutionCache, MissThenStoreThenHit) {
  Fixture f = chain_fixture(3);
  LayerSolutionCache cache;
  EXPECT_FALSE(cache.lookup(f.context()).has_value());

  const core::LayerOutcome outcome = f.solve();
  cache.store(f.context(), outcome);
  const std::optional<core::LayerOutcome> hit = cache.lookup(f.context());
  ASSERT_TRUE(hit.has_value());

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.stores, 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(LayerSolutionCache, MissThenStoreBuildsOneKey) {
  // One context per solve: the missed lookup leaves its key in the
  // context's memo slot, and the store of the same solve moves it into the
  // cache entry instead of building it again.
  Fixture f = chain_fixture(3);
  LayerSolutionCache cache;
  const core::LayerSolveContext context = f.context();
  ASSERT_TRUE(context.cache_key.empty());
  EXPECT_FALSE(cache.lookup(context).has_value());
  const LayerSignature signature = layer_signature(context);
  EXPECT_EQ(context.cache_key, signature.text);
  EXPECT_EQ(context.cache_key_hash, signature.hash);

  cache.store(context, f.solve());
  EXPECT_TRUE(context.cache_key.empty());
  EXPECT_EQ(cache.stats().stores, 1);
  EXPECT_TRUE(cache.lookup(f.context()).has_value());
}

TEST(LayerSolutionCache, HitReproducesTheSolveExactly) {
  Fixture f = chain_fixture(3);
  LayerSolutionCache cache;
  const core::LayerOutcome outcome = f.solve();
  cache.store(f.context(), outcome);
  const std::optional<core::LayerOutcome> hit = cache.lookup(f.context());
  ASSERT_TRUE(hit.has_value());
  // Compare through the canonical encoding — it covers schedule, devices,
  // consumed hints, engine choice and score.
  EXPECT_TRUE(LayerSolutionCache::encode(f.context(), *hit) ==
              LayerSolutionCache::encode(f.context(), outcome));
  EXPECT_EQ(hit->inventory.size(), outcome.inventory.size());
}

TEST(LayerSolutionCache, NormalizedHitAcrossReplicatedPipelines) {
  // Two structurally identical pipelines in one assay: solving {0,1,2}
  // must produce a hit for {3,4,5}, decoded onto the second pipeline's ids.
  Fixture f;
  std::vector<OperationId> first_ops;
  std::vector<OperationId> second_ops;
  for (int pipeline = 0; pipeline < 2; ++pipeline) {
    std::vector<OperationId> parents;
    for (int i = 0; i < 3; ++i) {
      const OperationId id =
          f.assay.add_operation(op_spec("op" + std::to_string(i), 10 + i, parents));
      parents = {id};
      (pipeline == 0 ? first_ops : second_ops).push_back(id);
    }
  }

  schedule::LayerRequest first = f.request;
  first.layer = LayerId{0};
  first.ops = first_ops;
  schedule::LayerRequest second = f.request;
  second.layer = LayerId{1};
  second.ops = second_ops;

  LayerSolutionCache cache;
  const core::LayerSolveContext context_a{first, f.assay, f.transport,
                                          f.costs, f.engine, f.inventory};
  cache.store(context_a,
              core::synthesize_layer(first, f.assay, f.transport, f.costs,
                                     f.engine, f.inventory));

  const core::LayerSolveContext context_b{second, f.assay, f.transport,
                                          f.costs, f.engine, f.inventory};
  const std::optional<core::LayerOutcome> hit = cache.lookup(context_b);
  ASSERT_TRUE(hit.has_value());

  const std::set<OperationId> expected(second_ops.begin(), second_ops.end());
  ASSERT_EQ(hit->result.schedule.items.size(), 3u);
  for (const schedule::ScheduledOperation& item : hit->result.schedule.items) {
    EXPECT_TRUE(expected.count(item.op) > 0)
        << "decoded schedule references pipeline-1 op " << item.op;
  }
  EXPECT_EQ(hit->result.schedule.layer, LayerId{1});
}

TEST(LayerSolutionCache, DifferentContextsNeverAlias) {
  // One shard forces every entry into the same bucket chain; the full-text
  // compare must still keep distinct contexts apart.
  LayerSolutionCache cache(/*capacity=*/8, /*shards=*/1);
  Fixture a = chain_fixture(2, 10);
  Fixture b = chain_fixture(2, 99);
  cache.store(a.context(), a.solve());
  EXPECT_FALSE(cache.lookup(b.context()).has_value());
  cache.store(b.context(), b.solve());

  const std::optional<core::LayerOutcome> hit_a = cache.lookup(a.context());
  const std::optional<core::LayerOutcome> hit_b = cache.lookup(b.context());
  ASSERT_TRUE(hit_a.has_value());
  ASSERT_TRUE(hit_b.has_value());
  EXPECT_EQ(hit_a->result.schedule.items.front().duration, Minutes{10});
  EXPECT_EQ(hit_b->result.schedule.items.front().duration, Minutes{99});
}

TEST(LayerSolutionCache, LruEvictionBoundsTheSize) {
  LayerSolutionCache cache(/*capacity=*/2, /*shards=*/1);
  Fixture a = chain_fixture(1, 10);
  Fixture b = chain_fixture(1, 20);
  Fixture c = chain_fixture(1, 30);
  cache.store(a.context(), a.solve());
  cache.store(b.context(), b.solve());
  // Touch `a` so `b` is the least recently used entry.
  EXPECT_TRUE(cache.lookup(a.context()).has_value());
  cache.store(c.context(), c.solve());

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_TRUE(cache.lookup(a.context()).has_value());
  EXPECT_FALSE(cache.lookup(b.context()).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(c.context()).has_value());
}

TEST(LayerSolutionCache, FirstWriterWins) {
  LayerSolutionCache cache;
  Fixture f = chain_fixture(2);
  const core::LayerOutcome outcome = f.solve();
  cache.store(f.context(), outcome);
  cache.store(f.context(), outcome);  // duplicate store is a no-op
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().stores, 1);
}

TEST(LayerSolutionCache, UncacheableContextsBypassTheCache) {
  LayerSolutionCache cache;
  Fixture f = chain_fixture(2);
  f.request.binds = [](const model::Operation&, const model::DeviceConfig&) {
    return true;
  };
  EXPECT_FALSE(cache.lookup(f.context()).has_value());
  cache.store(f.context(), chain_fixture(2).solve());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().stores, 0);
  // Bypass is not a miss: the context could never be served.
  EXPECT_EQ(cache.stats().misses, 0);
}

TEST(LayerSolutionCache, VerifyHitsModeAcceptsSoundEntries) {
  LayerSolutionCache cache;
  cache.set_verify_hits(true);
  Fixture f = chain_fixture(3);
  cache.store(f.context(), f.solve());
  // Would abort via COHLS_ASSERT if the signature were incomplete.
  EXPECT_TRUE(cache.lookup(f.context()).has_value());
}

TEST(LayerSolutionCache, EncodeDecodeRoundTripsCreatedDevices) {
  Fixture f = chain_fixture(3);
  const core::LayerOutcome outcome = f.solve();
  ASSERT_GT(outcome.inventory.size(), f.inventory.size());

  const LayerSolutionCache::CachedSolution cached =
      LayerSolutionCache::encode(f.context(), outcome);
  EXPECT_EQ(static_cast<int>(cached.created.size()),
            outcome.inventory.size() - f.inventory.size());

  const core::LayerOutcome decoded = LayerSolutionCache::decode(f.context(), cached);
  EXPECT_TRUE(LayerSolutionCache::encode(f.context(), decoded) == cached);
}

}  // namespace
}  // namespace cohls::engine
