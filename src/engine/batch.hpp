// The concurrent batch-synthesis engine: fans a manifest of assays out
// across a thread pool, sharing one layer-solution cache and one metrics
// registry among the workers. Results are reported in manifest order
// regardless of completion order, and — because the cache key is a complete
// canonical signature and the default per-layer solver budgets count work,
// not time — the synthesized results are bit-identical for any job count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/progressive_resynthesis.hpp"
#include "diag/diagnostic.hpp"
#include "engine/layer_cache.hpp"
#include "engine/metrics.hpp"
#include "engine/thread_pool.hpp"
#include "sim/fleet.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace cohls::engine {

/// One unit of work: an assay, by file path or inline text.
struct BatchJob {
  /// Display name (defaults to the path / assay name when empty).
  std::string name;
  /// Assay source: `text` wins when set, else `path` is read.
  std::string path;
  std::optional<std::string> text;
  /// Synthesis configuration for this job.
  core::SynthesisOptions options;
  /// Use the modified conventional baseline instead (uncached policy pass).
  bool conventional = false;
  /// Per-job wall-clock budget in seconds (0 = none). Measured from
  /// submission, so queue wait counts against the job.
  double deadline_seconds = 0.0;
  /// Fault-plan DSL text (see sim::parse_fault_plan). When set, the
  /// certified schedule is replayed against the plan and, if the run
  /// breaks, the recovery re-synthesizer is invoked; an unrecoverable fault
  /// reports JobStatus::RunFailed.
  std::optional<std::string> fault_plan;
  /// Seed of the fault-injection replay (indeterminate attempt sampling).
  std::uint64_t simulate_seed = 1;
  /// Monte-Carlo fleet: when > 0, the certified schedule is replayed this
  /// many times with per-run seeds derived from `fleet_seed`, optionally
  /// under `hazard_spec`-sampled device failures, and reduced into
  /// reliability metrics (BatchResult::fleet). Scripted `fault_plan` events
  /// replay in every fleet run.
  int fleet_runs = 0;
  /// Hazard spec (see sim::parse_hazard_spec), e.g.
  /// "exp:5000; heating-pad=weibull:2000,1.5". Empty = no sampled failures.
  std::string hazard_spec;
  std::uint64_t fleet_seed = 1;
  /// Probe degraded-mode recovery (core::recover) on every broken fleet run
  /// so the summary reports a recovery success rate.
  bool fleet_recover = false;
  /// Recovery rounds per mission (--recover-rounds): the fault-injected
  /// replay and every broken fleet run are driven through the re-entrant
  /// mission loop (core::run_mission), surviving up to this many faults
  /// before freezing with COHLS-E305. 1 reproduces single-fault recovery.
  int recover_rounds = 1;
  /// Per-round recovery wall budget in seconds (--recover-budget, 0 = none).
  /// A round that blows it degrades to a heuristic-only continuation
  /// (BatchResult::degraded) instead of failing the job. The job deadline
  /// is not a round budget: it cancels the job.
  double recover_budget_seconds = 0.0;
};

enum class JobStatus {
  Ok,
  ParseError,  ///< the assay text did not parse
  LintFailed,  ///< the pre-solve linter rejected the assay; no solver ran
  Infeasible,  ///< synthesis proved there is no feasible schedule
  Invalid,     ///< a result was produced but failed certification
  RunFailed,   ///< the fault-injected replay broke and recovery failed
  Cancelled,   ///< deadline or engine stop fired mid-synthesis
  Error,       ///< any other failure (unreadable file, internal error)
};

[[nodiscard]] std::string to_string(JobStatus status);

struct BatchRowSummary {
  std::string execution_time;  ///< symbolic, e.g. "277m+I1"
  int devices = 0;
  int paths = 0;
  int layers = 0;
  int resynthesis_iterations = 0;
  double objective = 0.0;
};

struct BatchResult {
  std::string name;
  JobStatus status = JobStatus::Error;
  /// Failure detail (exception message, first diagnostic) when not Ok.
  std::string detail;
  /// Structured diagnostics for this job: lint findings (including parse
  /// errors as COHLS-E100) and, on Invalid, the certifier's findings.
  std::vector<diag::Diagnostic> diagnostics;
  BatchRowSummary summary;
  /// The io::to_text serialization of the result (empty unless Ok/Invalid);
  /// this is the artifact the determinism guarantee is stated over.
  std::string result_text;
  double wall_seconds = 0.0;
  /// The stalled synthesis (BatchOptions::stall_seconds) or a recovery round
  /// was downgraded to the list-scheduling heuristic. Never silent: reported
  /// here and in results_json.
  bool degraded = false;
  /// Fault-injection replay outcome ("completed" / "attempts-exhausted" /
  /// "device-failed"); empty when the job carried no fault plan.
  std::string run_outcome;
  /// The replay broke and the recovery mission ran.
  bool recovery_attempted = false;
  /// The mission produced a certified end-to-end continuation.
  bool recovered = false;
  /// Recovery rounds the fault-injection mission performed (faults survived).
  int recovery_rounds = 0;
  /// A recovery round outlived BatchJob::recover_budget_seconds and fell back
  /// to a heuristic-only continuation (also sets `degraded`).
  bool recovery_degraded = false;
  /// Cumulative elapsed-time credit the mission carried across rounds.
  Minutes recovery_credit{0};
  /// Fleet-simulation reduction; set iff the job requested fleet_runs > 0
  /// and the schedule certified.
  std::optional<sim::FleetSummary> fleet;
};

struct BatchOptions {
  /// Worker threads.
  int jobs = 1;
  /// Layer-solution cache capacity (entries); 0 disables the cache.
  std::size_t cache_capacity = 4096;
  /// Lock shards inside the layer cache. Purely a contention knob: hit/miss
  /// behaviour, reported stats and results are identical for any value
  /// (tests sweep this to prove it).
  int cache_shards = 16;
  /// Default per-job deadline applied when a job does not set its own.
  double default_deadline_seconds = 0.0;
  /// Debug: verify every cache hit against a fresh solve (see
  /// LayerSolutionCache::set_verify_hits).
  bool verify_cache_hits = false;
  /// Lint every assay before synthesis; jobs with lint errors report
  /// JobStatus::LintFailed and never reach the solver.
  bool lint = true;
  /// Lint warnings also fail the job (--Werror).
  bool warnings_as_errors = false;
  /// Only lint: no job runs the solver; clean jobs report Ok.
  bool lint_only = false;
  /// Watchdog: when a synthesis runs longer than this (seconds), it is
  /// cancelled and re-run with the MILP disabled (pure list-scheduling
  /// heuristic; see core::run_or_degrade). The downgrade is reported as
  /// BatchResult::degraded, never applied silently. 0 disables the watchdog.
  double stall_seconds = 0.0;
};

/// One batch job's share of the machine: max(1, B / J) threads for B
/// hardware threads and J concurrent jobs (J < 1 counts as 1). A job's fleet
/// simulation fans out over this many workers.
[[nodiscard]] int per_job_thread_share(int jobs);

class BatchEngine {
 public:
  explicit BatchEngine(BatchOptions options = {});

  /// Runs all jobs to completion (or to their deadlines) and returns one
  /// result per job, in input order. May be called repeatedly; the cache
  /// and metrics persist across calls, so a re-submitted assay hits.
  [[nodiscard]] std::vector<BatchResult> run(const std::vector<BatchJob>& jobs);

  /// Requests cancellation of the batch currently in flight (no-op when
  /// idle). Running jobs report JobStatus::Cancelled; queued jobs never
  /// start.
  void stop();

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const LayerSolutionCache& cache() const { return cache_; }

  /// Metrics text report including cache totals.
  [[nodiscard]] std::string report() const;
  /// Metrics JSON dump; cache totals appear as counters
  /// (layer_cache_hits/misses/stores/evictions) plus "cache_hit_rate".
  [[nodiscard]] std::string metrics_json() const;

 private:
  [[nodiscard]] BatchResult run_one(const BatchJob& job, const CancellationToken& token);

  BatchOptions options_;
  MetricsRegistry metrics_;
  LayerSolutionCache cache_;
  /// The pool of the run() in flight, so stop() can reach it.
  mutable util::Mutex pool_mutex_;
  ThreadPool* active_pool_ COHLS_GUARDED_BY(pool_mutex_) = nullptr;
};

/// Renders batch results as a JSON document: one object per job with name,
/// status, detail, wall_seconds, the summary block, and a `diagnostics`
/// array (diag::json_object per entry). This is the machine-readable
/// counterpart of the cohls_batch table.
///
/// With `stable` set, timing fields (wall_seconds — the only nondeterministic
/// bytes in the document) are emitted as 0, making the rendering
/// byte-identical across repeat runs, shard layouts and --jobs values
/// whenever the results themselves are (see the engine's determinism
/// guarantee). Tests and diffable artifacts use this mode.
[[nodiscard]] std::string results_json(const std::vector<BatchResult>& rows,
                                       bool stable = false);

/// Parses a manifest: one assay-file path per line, '#' comments and blank
/// lines ignored; relative paths resolve against `base_dir`.
[[nodiscard]] std::vector<BatchJob> jobs_from_manifest(
    const std::string& manifest_text, const std::string& base_dir,
    const core::SynthesisOptions& options = {});

}  // namespace cohls::engine
