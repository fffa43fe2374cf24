// Byte-level determinism of the engine's machine-readable artifacts: the
// stable results_json rendering must be identical across repeat runs, cache
// shard layouts, and --jobs values, and every metrics emission must be
// key-ordered (std::map iteration) so it never depends on hash-table layout.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "assays/benchmarks.hpp"
#include "engine/batch.hpp"
#include "io/assay_text.hpp"

namespace cohls::engine {
namespace {

BatchJob text_job(std::string name, const model::Assay& assay) {
  BatchJob job;
  job.name = std::move(name);
  job.text = io::to_text(assay);
  return job;
}

std::vector<BatchJob> benchmark_jobs() {
  return {text_job("case1", assays::kinase_activity_assay()),
          text_job("case2", assays::gene_expression_assay()),
          text_job("case3", assays::rt_qpcr_assay())};
}

/// Runs the benchmark jobs on `engine` and asserts every row certified, so
/// a batch whose jobs all fail cannot pass a determinism check vacuously.
void run_all_ok(BatchEngine& engine) {
  for (const BatchResult& row : engine.run(benchmark_jobs())) {
    EXPECT_EQ(row.status, JobStatus::Ok) << row.name << ": " << row.detail;
  }
}

std::string stable_json_for(BatchOptions options) {
  BatchEngine engine(options);
  return results_json(engine.run(benchmark_jobs()), /*stable=*/true);
}

TEST(BatchDeterminism, StableJsonIsByteIdenticalAcrossRepeatRuns) {
  const std::string first = stable_json_for(BatchOptions{});
  const std::string second = stable_json_for(BatchOptions{});
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"wall_seconds\": 0"), std::string::npos);
}

TEST(BatchDeterminism, StableJsonIsByteIdenticalAcrossShardLayouts) {
  // cache_shards is a lock-contention knob only: the documents must not
  // know how the cache spreads its locks.
  BatchOptions narrow;
  narrow.cache_shards = 1;
  BatchOptions medium;
  medium.cache_shards = 4;
  BatchOptions wide;
  wide.cache_shards = 64;
  const std::string baseline = stable_json_for(narrow);
  EXPECT_EQ(baseline, stable_json_for(medium));
  EXPECT_EQ(baseline, stable_json_for(wide));
}

TEST(BatchDeterminism, StableJsonIsByteIdenticalAcrossJobCounts) {
  BatchOptions serial;
  serial.jobs = 1;
  BatchOptions parallel_opts;
  parallel_opts.jobs = 4;
  EXPECT_EQ(stable_json_for(serial), stable_json_for(parallel_opts));
}

TEST(BatchDeterminism, UnstableJsonCarriesRealTimings) {
  BatchEngine engine{BatchOptions{}};
  const std::vector<BatchResult> rows = engine.run(benchmark_jobs());
  for (const BatchResult& row : rows) {
    EXPECT_GT(row.wall_seconds, 0.0) << row.name;
  }
  const std::string raw = results_json(rows);
  const std::string stable = results_json(rows, /*stable=*/true);
  EXPECT_NE(raw, stable) << "raw rendering lost its timings";
  EXPECT_EQ(raw.find("\"wall_seconds\": 0,"), std::string::npos);
  EXPECT_NE(stable.find("\"wall_seconds\": 0,"), std::string::npos);
}

/// Extracts the object keys of `json` in emission order, depth-first.
std::vector<std::string> object_keys(const std::string& json) {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i + 1 < json.size(); ++i) {
    if (json[i] != '"') {
      continue;
    }
    const std::size_t close = json.find('"', i + 1);
    if (close == std::string::npos) {
      break;
    }
    if (close + 1 < json.size() && json[close + 1] == ':') {
      keys.push_back(json.substr(i + 1, close - i - 1));
    }
    i = close;
  }
  return keys;
}

TEST(BatchDeterminism, MetricsEmissionIsKeyOrdered) {
  BatchEngine engine{BatchOptions{}};
  run_all_ok(engine);
  const std::string json = engine.metrics_json();

  // Counter keys (between "counters" and "histograms") and the spliced
  // cache block's count keys must each be sorted — the registry and the
  // splice both emit through std::map, never through a hash table.
  const std::vector<std::string> keys = object_keys(json);
  const auto counters = std::find(keys.begin(), keys.end(), "counters");
  const auto histograms = std::find(keys.begin(), keys.end(), "histograms");
  const auto cache = std::find(keys.begin(), keys.end(), "cache");
  ASSERT_NE(counters, keys.end());
  ASSERT_NE(histograms, keys.end());
  ASSERT_NE(cache, keys.end());
  EXPECT_GT(histograms - counters, 1) << "no counters were registered";
  EXPECT_TRUE(std::is_sorted(counters + 1, histograms))
      << "counter keys not sorted in: " << json;
  const auto cache_counts_end =
      std::find(cache + 1, keys.end(), std::string("hit_rate"));
  ASSERT_NE(cache_counts_end, keys.end());
  EXPECT_TRUE(std::is_sorted(cache + 1, cache_counts_end))
      << "cache stat keys not sorted in: " << json;

  // The text report lists counters in the same sorted order.
  const std::string text = engine.report();
  const std::size_t hits = text.find("layer_cache_hits");
  const std::size_t solved = text.find("layers_solved");
  ASSERT_NE(hits, std::string::npos);
  ASSERT_NE(solved, std::string::npos);
  EXPECT_LT(hits, solved);
}

TEST(BatchDeterminism, CacheStatsAreShardLayoutInvariant) {
  BatchOptions narrow;
  narrow.cache_shards = 1;
  BatchOptions wide;
  wide.cache_shards = 64;
  BatchEngine a(narrow);
  BatchEngine b(wide);
  run_all_ok(a);
  run_all_ok(b);
  const CacheStats sa = a.cache().stats();
  const CacheStats sb = b.cache().stats();
  EXPECT_EQ(sa.hits, sb.hits);
  EXPECT_EQ(sa.misses, sb.misses);
  EXPECT_EQ(sa.stores, sb.stores);
  EXPECT_EQ(sa.evictions, sb.evictions);
}

}  // namespace
}  // namespace cohls::engine
