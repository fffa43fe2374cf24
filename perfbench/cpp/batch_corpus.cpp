// Workload `batch-corpus`: a seeded manifest through a fresh BatchEngine.
//
// Why: it drives the same core layers as paper-flow, differently — several
// assays at once, with shared work the layer cache can reuse (some assays
// appear twice in the manifest) and with recovery re-synthesis under
// pinned, no-new-device constraints (every job carries a seeded device-fail
// fault plan and recover_rounds = 3). engine/ (thread pool, layer cache,
// metrics) and core recovery do most of their work here and none in
// paper-flow.
//
// Inputs: a manifest of the parametric paper builders at fixed sizes
// (kinase_activity_assay(lanes), gene_expression_assay(cells),
// rt_qpcr_assay(cells)) plus random_assay draws of kRandomOps operations,
// each job with a device-fail fault plan. The jobs are the same for every
// seed, so the work per batch is too (see make_manifest); --seed draws the
// replay seeds and which random assays repeat.
//
// Bypasses: the exact MILP (jobs synthesize heuristic-only, see make_job)
// and fleet simulation. The benchmark calls nothing below
// engine::BatchEngine and reads only its result rows and metrics_json.
//
// Loop: closed. Batches run back to back, each on a fresh engine (jobs =
// nproc, cache on, lint on), so the cache starts cold every batch and only
// repeats inside one manifest can hit. One batch is one pass.
// Unit of work: one job, from the moment a worker picks it up to its
// certified (and, when the fault bites, recovered or E3xx-diagnosed)
// result — the engine's BatchResult::wall_seconds. Queue wait is not in it:
// the engine reports no per-job completion time.
#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/linter.hpp"
#include "assays/benchmarks.hpp"
#include "assays/random_assay.hpp"
#include "common.hpp"
#include "engine/batch.hpp"
#include "io/assay_text.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace cohls;

// A manifest of ~130 jobs.
constexpr int kBuilderJobs = 8;  // per paper builder
constexpr int kRandomAssays = 96;
constexpr int kRandomOps = 48;
constexpr int kMaxRandomDraws = 1000;
constexpr int kRepeatedJobs = 12;
constexpr int kRecoverRounds = 3;
constexpr int kSetupRepetitions = 9;
constexpr std::uint64_t kStreamTag = 0x4241544348435250ULL;  // "BATCHCRP"

struct Expected {
  engine::JobStatus status = engine::JobStatus::Error;
  double objective = 0.0;
};

engine::BatchJob make_job(const std::string& name, const model::Assay& assay, Rng& rng) {
  engine::BatchJob job;
  job.name = name;
  job.text = io::to_text(assay);
  job.fault_plan = "device-fail " + std::to_string(rng.uniform_int(0, 1)) + " at " +
                   std::to_string(rng.uniform_int(5, 40)) + "\n";
  job.recover_rounds = kRecoverRounds;
  // Heuristic only. Small random layers, and the small residual layers
  // recovery builds, pass the default MILP gate, and the exact solver's
  // cost on them is heavy-tailed: one 48-op draw took 13 s against ~50 ms
  // for the rest of its batch. The figures would then follow the seed, not
  // the engine. The exact path is milp-closure's subject.
  job.options.engine.enable_ilp = false;
  return job;
}

std::vector<engine::BatchJob> make_manifest(std::uint64_t seed) {
  // The jobs themselves (assays and fault plans) come from a stream of their
  // own that does not depend on the seed. Drawn from the seed, the builder
  // sizes, the random assays and the fault plans moved the batch's total
  // work by 15-20 % and its p95 by as much again from seed to seed: the
  // slowest few percent of jobs are the largest builder assays and random
  // draws whose fault forces several recovery rounds.
  Rng fixed(derive_stream_seed(0, kStreamTag, 1));
  std::vector<engine::BatchJob> jobs;
  // Paper builders at sizes spread evenly around the Table-2 ones (2 lanes,
  // 10 cells, 20 cells).
  for (int i = 0; i < kBuilderJobs; ++i) {
    const int lanes = 1 + i % 4;
    jobs.push_back(make_job("kinase-" + std::to_string(lanes),
                            assays::kinase_activity_assay(lanes), fixed));
    const int gene_cells = 4 + i;
    jobs.push_back(make_job("gene-" + std::to_string(gene_cells),
                            assays::gene_expression_assay(gene_cells), fixed));
    const int rt_cells = 8 + i * 12 / (kBuilderJobs - 1);
    jobs.push_back(make_job("rtqpcr-" + std::to_string(rt_cells),
                            assays::rt_qpcr_assay(rt_cells), fixed));
  }
  // Random assays must lint clean: a draw the linter rejects would be a
  // failed job by construction, so the next draw replaces it.
  assays::RandomAssayOptions random;
  random.operations = kRandomOps;
  for (int made = 0, draws = 0; made < kRandomAssays; ++draws) {
    if (draws == kMaxRandomDraws) {
      throw std::runtime_error("no random assay passed the linter");
    }
    const model::Assay assay = assays::random_assay(fixed.next_u64(), random);
    if (!analysis::lint_assay_text(io::to_text(assay)).has_errors()) {
      jobs.push_back(make_job("random-" + std::to_string(made++), assay, fixed));
    }
  }
  // The seed draws the replay seeds and which random assays appear twice.
  // It does not reorder the manifest: with nproc workers, where a large job
  // sits decides how many others it runs alongside, and that moved the p95.
  Rng rng(derive_stream_seed(seed, kStreamTag, 0));
  for (engine::BatchJob& job : jobs) {
    job.simulate_seed = rng.next_u64();
  }
  // Repeats go last so their originals have usually been solved (and
  // cached) by the time a worker picks them up. They repeat random assays,
  // which are all of one size, so the batch's work does not follow which
  // jobs the seed picks.
  std::vector<std::size_t> picks;
  while (static_cast<int>(picks.size()) < kRepeatedJobs) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(3 * kBuilderJobs, static_cast<std::int64_t>(jobs.size()) - 1));
    if (std::find(picks.begin(), picks.end(), pick) == picks.end()) {
      picks.push_back(pick);
    }
  }
  for (const std::size_t pick : picks) {
    engine::BatchJob repeat = jobs[pick];
    repeat.name += "#2";
    jobs.push_back(std::move(repeat));
  }
  return jobs;
}

engine::BatchOptions batch_options(int threads) {
  engine::BatchOptions options;
  options.jobs = threads;
  return options;
}

/// Empty when the row is a correct outcome: certified (status ok, the
/// engine ran certify_result), or a frozen E3xx recovery diagnosis.
std::string verdict(const engine::BatchResult& row, const Expected& expected) {
  std::string error;
  if (row.status == engine::JobStatus::Ok) {
    if (!(row.summary.objective > 0.0)) {
      error = "no objective";
    } else if (row.recovery_attempted && !row.recovered) {
      error = "ok without a recovered mission";
    }
  } else if (row.status == engine::JobStatus::RunFailed) {
    const bool diagnosed =
        std::any_of(row.diagnostics.begin(), row.diagnostics.end(),
                    [](const diag::Diagnostic& d) { return d.code.rfind("COHLS-E3", 0) == 0; });
    if (!diagnosed) {
      error = "run failed without an E3xx diagnosis: " + row.detail;
    }
  } else {
    error = engine::to_string(row.status) + ": " + row.detail;
  }
  if (error.empty() &&
      (row.status != expected.status || row.summary.objective != expected.objective)) {
    error = "result differs from the set-up batch (status " + engine::to_string(row.status) +
            ", objective " + std::to_string(row.summary.objective) + ")";
  }
  return error.empty() ? "" : row.name + ": " + error;
}

}  // namespace

WorkloadResult run_batch_corpus(const RunConfig& config, Tracer& tracer) {
  WorkloadResult result;
  std::vector<engine::BatchJob> jobs;
  std::vector<Expected> expected;
  // Set-up: draw the manifest and run it once on a fresh engine, recording
  // each job's status and objective for the checks of later batches.
  result.setup = timed_setup(kSetupRepetitions, [&] {
    jobs = make_manifest(config.seed);
    engine::BatchEngine warm(batch_options(config.threads));
    expected.clear();
    for (const engine::BatchResult& row : warm.run(jobs)) {
      expected.push_back({row.status, row.summary.objective});
    }
  });
  // Repeats add no new schedule; the objective sums the distinct assays.
  for (std::size_t i = 0; i + kRepeatedJobs < expected.size(); ++i) {
    result.objective_sum += expected[i].objective;
  }

  // Engine counters summed over the batches of the traced run.
  std::map<std::string, double> sums;
  const auto add = [&sums](const std::string& metric, double value) { sums[metric] += value; };
  double attempted_recoveries = 0, recovered = 0, diagnostics = 0;
  const Clock::time_point start = Clock::now();
  do {
    {
      // Host speed, once on every CPU the engine's workers run on. The
      // rotation ends (and the main thread may run anywhere again) before
      // the engine starts its workers, which inherit its CPU set.
      const CpuRotation rotation;
      for (int cpu = 0; cpu < config.threads; ++cpu) {
        rotation.pin(static_cast<std::size_t>(cpu));
        result.probe.sample();
      }
    }
    tracer.begin_item();
    const Clock::time_point begin = Clock::now();
    engine::BatchEngine batch(batch_options(config.threads));
    std::vector<engine::BatchResult> rows;
    {
      const auto span = tracer.span("engine.batch");
      rows = batch.run(jobs);
    }
    result.rounds.push_back({seconds_since(begin), static_cast<double>(rows.size())});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      result.sample(i, rows[i].wall_seconds * 1e3);
      result.check(verdict(rows[i], expected[i]));
      attempted_recoveries += rows[i].recovery_attempted ? 1.0 : 0.0;
      recovered += rows[i].recovered ? 1.0 : 0.0;
      diagnostics += static_cast<double>(rows[i].diagnostics.size());
    }
    if (tracer.enabled()) {
      const std::string json = batch.metrics_json();
      const auto counter = [&json](const char* name) {
        return json_number(json, {"counters", name});
      };
      const auto histogram_ms = [&json](const char* name) {
        return json_number(json, {"histograms", name, "total_seconds"}) * 1e3;
      };
      add("hits", json_number(json, {"cache", "layer_cache_hit_count"}));
      add("misses", json_number(json, {"cache", "layer_cache_miss_count"}));
      add("layers_solved", counter("layers_solved"));
      add("layer_cache_hits", counter("layer_cache_hits"));
      add("ilp_layers", counter("ilp_layers"));
      add("layer_solve_ms", histogram_ms("layer_solve_seconds"));
      add("recoveries_attempted", counter("recoveries_attempted"));
      add("recovery_rounds", counter("recovery_rounds"));
      add("recoveries_degraded", counter("recoveries_degraded"));
      add("recovery_ms", histogram_ms("recovery_seconds"));
    }
  } while (seconds_since(start) < config.seconds);

  result.extra["jobs_per_batch"] = static_cast<double>(jobs.size());
  result.extra["recovered_share"] =
      attempted_recoveries > 0 ? recovered / attempted_recoveries : 0.0;
  if (tracer.enabled()) {
    const double n = std::max<double>(1.0, static_cast<double>(result.latencies_ms.size()));
    auto& layer = result.layer;
    const double lookups = sums["hits"] + sums["misses"];
    layer["analysis.diagnostics"] = diagnostics / n;
    layer["engine.cache_hits"] = sums["hits"] / n;
    layer["engine.cache_misses"] = sums["misses"] / n;
    layer["engine.cache_hit_rate"] = lookups > 0 ? sums["hits"] / lookups : 0.0;
    layer["engine.layers_solved"] = sums["layers_solved"] / n;
    layer["engine.ilp_layers"] = sums["ilp_layers"] / n;
    layer["engine.layer_solve_ms"] = sums["layer_solve_ms"] / n;
    layer["core.layer_solves"] = (sums["layers_solved"] + sums["layer_cache_hits"]) / n;
    layer["core.layer_solve_ms"] = sums["layer_solve_ms"] / n;
    layer["core.layer_solves_ilp"] = sums["ilp_layers"] / n;
    layer["core.recoveries_attempted"] = sums["recoveries_attempted"] / n;
    layer["core.recovery_rounds"] = sums["recovery_rounds"] / n;
    layer["core.recoveries_degraded"] = sums["recoveries_degraded"] / n;
    layer["core.recovery_ms"] = sums["recovery_ms"] / n;
  }
  return result;
}

}  // namespace perfbench
