// End-to-end behavior of the batch-synthesis engine: determinism across job
// counts, shared-cache reuse, failure classification, manifest parsing, and
// a concurrency smoke test (run under TSan in CI).
#include "engine/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>

#include "assays/benchmarks.hpp"
#include "assays/random_assay.hpp"
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

TEST(BatchEngine, SynthesizesAManifest) {
  BatchEngine engine{BatchOptions{}};
  const std::vector<BatchResult> rows = engine.run(benchmark_jobs());
  ASSERT_EQ(rows.size(), 3u);
  for (const BatchResult& row : rows) {
    EXPECT_EQ(row.status, JobStatus::Ok) << row.name << ": " << row.detail;
    EXPECT_FALSE(row.result_text.empty());
    EXPECT_GT(row.summary.devices, 0);
    EXPECT_GT(row.summary.layers, 0);
    EXPECT_GT(row.summary.objective, 0.0);
  }
  EXPECT_EQ(rows[0].name, "case1");
  EXPECT_EQ(rows[2].name, "case3");
}

TEST(BatchEngine, ResultsAreIdenticalForAnyJobCount) {
  // The acceptance bar of the subsystem: --jobs N must be byte-identical
  // to --jobs 1 on the three benchmark assays.
  BatchOptions serial;
  serial.jobs = 1;
  BatchEngine one(serial);
  const std::vector<BatchResult> baseline = one.run(benchmark_jobs());

  BatchOptions parallel_opts;
  parallel_opts.jobs = 8;
  BatchEngine eight(parallel_opts);
  const std::vector<BatchResult> wide = eight.run(benchmark_jobs());

  ASSERT_EQ(baseline.size(), wide.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].status, JobStatus::Ok);
    EXPECT_EQ(baseline[i].result_text, wide[i].result_text)
        << baseline[i].name << " differs between --jobs 1 and --jobs 8";
    EXPECT_EQ(baseline[i].summary.execution_time, wide[i].summary.execution_time);
    EXPECT_DOUBLE_EQ(baseline[i].summary.objective, wide[i].summary.objective);
  }
}

TEST(BatchEngine, CacheDisabledIsStillIdentical) {
  BatchOptions no_cache;
  no_cache.cache_capacity = 0;
  BatchEngine uncached(no_cache);
  BatchEngine cached{BatchOptions{}};
  const std::vector<BatchResult> a = uncached.run(benchmark_jobs());
  const std::vector<BatchResult> b = cached.run(benchmark_jobs());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].result_text, b[i].result_text);
  }
  EXPECT_EQ(uncached.cache().stats().stores, 0);
}

TEST(BatchEngine, ResubmissionHitsTheCache) {
  BatchEngine engine{BatchOptions{}};
  const std::vector<BatchJob> jobs = {text_job("case3", assays::rt_qpcr_assay())};
  (void)engine.run(jobs);
  const CacheStats first = engine.cache().stats();
  (void)engine.run(jobs);
  const CacheStats second = engine.cache().stats();
  EXPECT_GT(second.hits, first.hits);
  EXPECT_EQ(second.stores, first.stores);  // nothing new to learn
  EXPECT_GT(second.hit_rate(), 0.0);
}

TEST(BatchEngine, VerifiedCacheHitsOnReplicatedAssays) {
  // verify_cache_hits re-solves every hit and aborts on any divergence, so
  // a green run here is a proof of signature completeness on real assays.
  BatchOptions options;
  options.verify_cache_hits = true;
  BatchEngine engine(options);
  for (int round = 0; round < 2; ++round) {
    const std::vector<BatchResult> rows = engine.run(benchmark_jobs());
    for (const BatchResult& row : rows) {
      EXPECT_EQ(row.status, JobStatus::Ok) << row.detail;
    }
  }
  EXPECT_GT(engine.cache().stats().hits, 0);
}

TEST(BatchEngine, ClassifiesParseErrors) {
  BatchEngine engine{BatchOptions{}};
  BatchJob bad;
  bad.name = "garbage";
  bad.text = "this is not an assay";
  const std::vector<BatchResult> rows = engine.run({bad});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.front().status, JobStatus::ParseError);
  ASSERT_EQ(rows.front().diagnostics.size(), 1u);
  EXPECT_EQ(rows.front().diagnostics.front().code, diag::codes::kParseError);
  EXPECT_EQ(rows.front().diagnostics.front().span.line, 1);
  EXPECT_EQ(rows.front().detail, diag::summary_line(rows.front().diagnostics.front()));
  EXPECT_EQ(engine.metrics().counter("lint_failed").value(), 1);
}

TEST(BatchEngine, ClassifiesLintFailures) {
  BatchEngine engine{BatchOptions{}};
  BatchJob cyclic;
  cyclic.name = "cyclic";
  cyclic.text =
      "assay \"c\"\n"
      "operation 0 \"a\" duration=5 parents=1\n"
      "operation 1 \"b\" duration=5 parents=0\n";
  const std::vector<BatchResult> rows = engine.run({cyclic});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.front().status, JobStatus::LintFailed);
  EXPECT_TRUE(rows.front().result_text.empty());
  ASSERT_FALSE(rows.front().diagnostics.empty());
  EXPECT_EQ(rows.front().diagnostics.front().code, diag::codes::kDependencyCycle);
  // The detail line leads with the stable code.
  EXPECT_EQ(rows.front().detail.rfind(diag::codes::kDependencyCycle, 0), 0u);
  EXPECT_EQ(engine.metrics().counter("lint_failed").value(), 1);
  EXPECT_EQ(engine.metrics().counter("jobs_failed").value(), 1);
}

TEST(BatchEngine, LintOnlySkipsTheSolver) {
  BatchOptions options;
  options.lint_only = true;
  BatchEngine engine(options);
  const std::vector<BatchResult> rows =
      engine.run({text_job("case1", assays::kinase_activity_assay())});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.front().status, JobStatus::Ok);
  EXPECT_TRUE(rows.front().result_text.empty());
  EXPECT_EQ(rows.front().summary.devices, 0);
  EXPECT_EQ(engine.metrics().counter("lint_passed").value(), 1);
  EXPECT_EQ(engine.metrics().counter("layers_solved").value(), 0);
}

TEST(BatchEngine, LintDisabledFallsBackToBuildErrors) {
  BatchOptions options;
  options.lint = false;
  BatchEngine engine(options);
  BatchJob cyclic;
  cyclic.name = "cyclic";
  cyclic.text =
      "assay \"c\"\n"
      "operation 0 \"a\" duration=5 parents=1\n"
      "operation 1 \"b\" duration=5 parents=0\n";
  const std::vector<BatchResult> rows = engine.run({cyclic});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.front().status, JobStatus::ParseError);
  EXPECT_EQ(engine.metrics().counter("lint_failed").value(), 0);
}

TEST(BatchEngine, WarningsAsErrorsFailTheJobAndShowInJson) {
  // rt-qPCR's 20-capture cluster warns (W101) at the default threshold; with
  // --Werror that fails the job before any solving happens.
  BatchOptions options;
  options.warnings_as_errors = true;
  BatchEngine engine(options);
  const std::vector<BatchResult> rows =
      engine.run({text_job("case3", assays::rt_qpcr_assay())});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.front().status, JobStatus::LintFailed);
  ASSERT_FALSE(rows.front().diagnostics.empty());
  EXPECT_EQ(rows.front().diagnostics.front().code,
            diag::codes::kOverThresholdCluster);
  EXPECT_EQ(engine.metrics().counter("layers_solved").value(), 0);

  const std::string json = results_json(rows);
  EXPECT_NE(json.find("\"status\": \"lint_failed\""), std::string::npos);
  EXPECT_NE(json.find(diag::codes::kOverThresholdCluster), std::string::npos);
}

TEST(BatchEngine, ResultsJsonCoversCleanRuns) {
  BatchEngine engine{BatchOptions{}};
  const std::vector<BatchResult> rows =
      engine.run({text_job("case1", assays::kinase_activity_assay())});
  const std::string json = results_json(rows);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"name\": \"case1\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"diagnostics\": []"), std::string::npos);
}

TEST(BatchEngine, ClassifiesUnreadableFiles) {
  BatchEngine engine{BatchOptions{}};
  BatchJob missing;
  missing.path = "/nonexistent/assay.file";
  const std::vector<BatchResult> rows = engine.run({missing});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.front().status, JobStatus::Error);
}

TEST(BatchEngine, ExpiredDeadlineCancelsTheJob) {
  BatchEngine engine{BatchOptions{}};
  BatchJob job = text_job("case3", assays::rt_qpcr_assay());
  job.deadline_seconds = 1e-9;  // expires before the first layer solve
  const std::vector<BatchResult> rows = engine.run({job});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.front().status, JobStatus::Cancelled);
  EXPECT_EQ(engine.metrics().counter("jobs_cancelled").value(), 1);
}

TEST(BatchEngine, FailedJobsDoNotPoisonLaterRounds) {
  BatchEngine engine{BatchOptions{}};
  BatchJob job = text_job("case1", assays::kinase_activity_assay());
  BatchJob doomed = job;
  doomed.deadline_seconds = 1e-9;
  (void)engine.run({doomed});
  const std::vector<BatchResult> rows = engine.run({job});
  EXPECT_EQ(rows.front().status, JobStatus::Ok) << rows.front().detail;
}

TEST(BatchEngine, MetricsCoverSolvesAndJobs) {
  BatchEngine engine{BatchOptions{}};
  (void)engine.run(benchmark_jobs());
  EXPECT_EQ(engine.metrics().counter("jobs_completed").value(), 3);
  EXPECT_GT(engine.metrics().counter("layers_solved").value(), 0);
  EXPECT_GT(engine.metrics().histogram("layer_solve_seconds").count(), 0);

  const std::string json = engine.metrics_json();
  EXPECT_NE(json.find("\"jobs_completed\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"hit_rate\""), std::string::npos);
  EXPECT_EQ(json.back(), '}');

  const std::string report = engine.report();
  EXPECT_NE(report.find("layer cache:"), std::string::npos);
}

TEST(BatchEngine, ConcurrencySmoke) {
  // Many concurrent jobs sharing one cache and one metrics registry; run
  // under TSan in CI to surface data races. Small assay variants keep it
  // fast enough to repeat.
  BatchOptions options;
  options.jobs = 8;
  BatchEngine engine(options);
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 16; ++i) {
    jobs.push_back(text_job("job" + std::to_string(i),
                            assays::gene_expression_assay(2 + i % 3)));
  }
  const std::vector<BatchResult> rows = engine.run(jobs);
  ASSERT_EQ(rows.size(), jobs.size());
  for (const BatchResult& row : rows) {
    EXPECT_EQ(row.status, JobStatus::Ok) << row.name << ": " << row.detail;
  }
  // Replicated variants share layer contexts, so the shared cache must hit.
  EXPECT_GT(engine.cache().stats().hits, 0);
  EXPECT_EQ(engine.metrics().counter("jobs_completed").value(), 16);
}

TEST(JobsFromManifest, ParsesPathsCommentsAndBlanks) {
  const std::string manifest =
      "# comment\n"
      "\n"
      "a.assay\n"
      "  sub/b.assay  \n"
      "/abs/c.assay\n";
  core::SynthesisOptions options;
  options.max_devices = 7;
  const std::vector<BatchJob> jobs = jobs_from_manifest(manifest, "/base", options);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].path, "/base/a.assay");
  EXPECT_EQ(jobs[1].path, "/base/sub/b.assay");
  EXPECT_EQ(jobs[2].path, "/abs/c.assay");
  EXPECT_EQ(jobs[0].name, "a.assay");
  EXPECT_EQ(jobs[0].options.max_devices, 7);
}

TEST(JobStatusNames, AreStable) {
  EXPECT_EQ(to_string(JobStatus::Ok), "ok");
  EXPECT_EQ(to_string(JobStatus::ParseError), "parse-error");
  EXPECT_EQ(to_string(JobStatus::LintFailed), "lint_failed");
  EXPECT_EQ(to_string(JobStatus::Cancelled), "cancelled");
}

TEST(BatchEngine, PerJobThreadShareDividesTheMachine) {
  // A job's fleet fans out over its share of the hardware threads; a pool
  // that covers (or overshoots) the cores leaves every job one worker.
  const int hardware = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  EXPECT_EQ(per_job_thread_share(1), hardware);  // one job: whole machine
  EXPECT_EQ(per_job_thread_share(0), hardware);  // fewer than one job counts as one
  EXPECT_EQ(per_job_thread_share(2), std::max(1, hardware / 2));
  EXPECT_EQ(per_job_thread_share(hardware), 1);
  EXPECT_EQ(per_job_thread_share(2 * hardware), 1);
}

/// The value of counter `name` in a metrics_json document.
long json_counter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no counter " << name << " in " << json;
    return -1;
  }
  return std::stol(json.substr(at + key.size()));
}

TEST(BatchEngine, MilpCountersReachTheMetricsAndCacheHitsAddNone) {
  // The ablation-D random assays: small single-layer assays whose layers
  // the exact engine admits, so the MILP does real search work.
  assays::RandomAssayOptions gen;
  gen.operations = 4;
  gen.indeterminate_probability = 0.0;
  gen.max_parents = 2;
  std::vector<BatchJob> jobs;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    BatchJob job = text_job("seed" + std::to_string(seed), assays::random_assay(seed * 101, gen));
    job.options.max_devices = 4;
    job.options.engine.enable_ilp = true;
    job.options.engine.ilp_max_ops = 6;
    job.options.engine.ilp_max_devices = 6;
    job.options.engine.ilp_new_slots = 2;
    job.options.max_resynthesis_iterations = 1;
    jobs.push_back(std::move(job));
  }

  BatchEngine engine{BatchOptions{}};
  (void)engine.run(jobs);
  const std::string first = engine.metrics_json();
  EXPECT_GT(json_counter(first, "milp_nodes"), 0);
  EXPECT_GT(json_counter(first, "lp_pivots"), 0);

  // The resubmitted layers come from the cache: no search, no new counts.
  (void)engine.run(jobs);
  const std::string second = engine.metrics_json();
  EXPECT_GT(json_counter(second, "layer_cache_hits"), json_counter(first, "layer_cache_hits"));
  for (const char* name : {"milp_nodes", "lp_pivots", "milp_bound_prunes"}) {
    EXPECT_EQ(json_counter(second, name), json_counter(first, name)) << name;
  }
}

}  // namespace
}  // namespace cohls::engine
