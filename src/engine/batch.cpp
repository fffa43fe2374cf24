#include "engine/batch.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/linter.hpp"
#include "baseline/conventional.hpp"
#include "core/degrade.hpp"
#include "core/recovery.hpp"
#include "engine/thread_pool.hpp"
#include "io/result_text.hpp"
#include "schedule/validate.hpp"
#include "sim/runtime.hpp"
#include "util/check.hpp"
#include "util/lexer.hpp"

namespace cohls::engine {

namespace {

/// The per-solve MILP counters summed into engine metrics, by metric name.
struct SummedCounter {
  const char* metric;
  long milp::MilpStats::*field;
};
constexpr SummedCounter kSummedCounters[] = {
    {"milp_nodes", &milp::MilpStats::milp_nodes},
    {"lp_pivots", &milp::MilpStats::lp_pivots},
    {"lp_warm_solves", &milp::MilpStats::lp_warm_solves},
    {"lp_cold_solves", &milp::MilpStats::lp_cold_solves},
    {"lp_refactorizations", &milp::MilpStats::lp_refactorizations},
    {"milp_bound_prunes", &milp::MilpStats::milp_bound_prunes},
    {"milp_cutoff_prunes", &milp::MilpStats::milp_cutoff_prunes},
};

/// Adapts the core's per-layer solve events onto the metrics registry.
class MetricsObserver final : public core::SolveObserver {
 public:
  explicit MetricsObserver(MetricsRegistry& metrics)
      : layers_solved_(metrics.counter("layers_solved")),
        layer_cache_hits_(metrics.counter("layer_cache_hits")),
        ilp_layers_(metrics.counter("ilp_layers")),
        solve_seconds_(metrics.histogram("layer_solve_seconds")) {
    for (const SummedCounter& summed : kSummedCounters) {
      summed_.push_back(&metrics.counter(summed.metric));
    }
  }

  void on_layer_solve(const core::LayerSolveEvent& event) override {
    if (event.cache_hit) {
      layer_cache_hits_.increment();
    } else {
      layers_solved_.increment();
    }
    if (event.used_ilp) {
      ilp_layers_.increment();
    }
    for (std::size_t i = 0; i < summed_.size(); ++i) {
      summed_[i]->add(event.*kSummedCounters[i].field);
    }
    solve_seconds_.observe(event.seconds);
  }

 private:
  Counter& layers_solved_;
  Counter& layer_cache_hits_;
  Counter& ilp_layers_;
  Histogram& solve_seconds_;
  std::vector<Counter*> summed_;  ///< parallel to kSummedCounters
};

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  COHLS_EXPECT(static_cast<bool>(file), "cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

}  // namespace

std::string to_string(JobStatus status) {
  switch (status) {
    case JobStatus::Ok:
      return "ok";
    case JobStatus::ParseError:
      return "parse-error";
    case JobStatus::LintFailed:
      return "lint_failed";
    case JobStatus::Infeasible:
      return "infeasible";
    case JobStatus::Invalid:
      return "invalid";
    case JobStatus::RunFailed:
      return "run-failed";
    case JobStatus::Cancelled:
      return "cancelled";
    case JobStatus::Error:
      return "error";
  }
  return "unknown";
}

int per_job_thread_share(int jobs) {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / std::max(1, jobs));
}

BatchEngine::BatchEngine(BatchOptions options)
    : options_(options),
      cache_(options.cache_capacity > 0 ? options.cache_capacity : 1,
             options.cache_shards) {
  cache_.set_verify_hits(options_.verify_cache_hits);
}

BatchResult BatchEngine::run_one(const BatchJob& job, const CancellationToken& token) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point begin = Clock::now();
  MetricsObserver observer(metrics_);

  BatchResult row;
  row.name = !job.name.empty() ? job.name : job.path;
  try {
    const std::string text = job.text.has_value() ? *job.text : read_file(job.path);

    // One lex feeds both the linter and build().
    io::AssaySource source;
    bool run_solver = true;
    if (options_.lint || options_.lint_only) {
      const analysis::AnalysisOptions lint_options{
          job.options.max_devices, job.options.layering.indeterminate_threshold};
      analysis::LintReport lint;
      try {
        source = io::parse_assay_source(text);
        lint = analysis::lint_assay(source, lint_options);
      } catch (const io::ParseError& e) {
        lint.diagnostics.push_back(analysis::parse_error_diagnostic(e));
      }
      const bool passed = lint.clean(options_.warnings_as_errors);
      row.diagnostics = std::move(lint.diagnostics);
      metrics_.counter(passed ? "lint_passed" : "lint_failed").increment();
      if (!passed) {
        // A lexical failure surfaces as the single COHLS-E100 diagnostic;
        // keep reporting it under the dedicated ParseError status.
        row.status = row.diagnostics.front().code == diag::codes::kParseError
                         ? JobStatus::ParseError
                         : JobStatus::LintFailed;
        row.detail = diag::summary_line(row.diagnostics.front());
        run_solver = false;
      } else if (options_.lint_only) {
        row.status = JobStatus::Ok;
        run_solver = false;
      }
    } else {
      source = io::parse_assay_source(text);
    }
    if (!run_solver) {
      row.wall_seconds =
          std::chrono::duration<double>(Clock::now() - begin).count();
      metrics_.counter("jobs_completed").increment();
      if (row.status != JobStatus::Ok) {
        metrics_.counter("jobs_failed").increment();
      }
      metrics_.histogram("job_seconds").observe(row.wall_seconds);
      return row;
    }

    const model::Assay assay = std::move(source).build();
    if (row.name.empty()) {
      row.name = assay.name();
    }

    core::SynthesisOptions options = job.options;
    options.cancel = token;
    options.observer = &observer;
    if (options_.cache_capacity > 0) {
      options.layer_cache = &cache_;
    }
    // The stall watchdog: a synthesis that outlives stall_seconds re-runs
    // with the MILP disabled, flagged on the row, never applied silently.
    // The job's own deadline or stop() cancels the job instead.
    core::SynthesisReport report;
    if (job.conventional) {
      report = baseline::synthesize_conventional(assay, options);
    } else {
      report = core::run_or_degrade(
          options, options_.stall_seconds, row.degraded,
          [&assay](const core::SynthesisOptions& step) { return core::synthesize(assay, step); });
      if (row.degraded) {
        metrics_.counter("fallbacks_taken").increment();
      }
    }

    const auto certification =
        schedule::certify_result(report.result, assay, report.transport);
    row.status = certification.empty() ? JobStatus::Ok : JobStatus::Invalid;
    if (!certification.empty()) {
      row.detail = diag::summary_line(certification.front());
      row.diagnostics.insert(row.diagnostics.end(), certification.begin(),
                             certification.end());
    }

    const core::IterationRecord& kept = report.kept();
    std::ostringstream time_text;
    time_text << kept.execution_time;
    row.summary.execution_time = time_text.str();
    row.summary.devices = kept.device_count;
    row.summary.paths = kept.path_count;
    row.summary.layers = static_cast<int>(report.result.layers.size());
    row.summary.resynthesis_iterations =
        static_cast<int>(report.iterations.size()) - 1;
    row.summary.objective = kept.objective.weighted_total;
    row.result_text = io::to_text(report.result, assay);

    // Fault injection: drive the certified schedule through the re-entrant
    // recovery mission — iterated replay → recover → re-certify, surviving
    // up to job.recover_rounds faults with elapsed-time credit threaded
    // across rounds. A recovered mission keeps the job Ok (every
    // continuation is certified); an unrecoverable one reports RunFailed
    // with the E3xx evidence and the fault chain — never a fabricated
    // success. A round that outlives job.recover_budget_seconds degrades to
    // a heuristic-only continuation (row.degraded); the job deadline
    // cancels the job.
    if (row.status == JobStatus::Ok && job.fault_plan.has_value()) {
      sim::RuntimeOptions runtime;
      runtime.seed = job.simulate_seed;
      runtime.faults = sim::parse_fault_plan(*job.fault_plan);
      core::MissionOptions mission;
      mission.synthesis = options;
      mission.max_rounds = std::max(1, job.recover_rounds);
      mission.round_budget_seconds = job.recover_budget_seconds;
      const Clock::time_point recovery_begin = Clock::now();
      const core::MissionOutcome outcome =
          core::run_mission(assay, report.result, runtime, mission);
      // run_outcome keeps its original contract: the outcome of the replay
      // (= the first break when the plan bites; the mission's end-to-end
      // verdict is `recovered`).
      row.run_outcome = std::string(
          sim::to_string(outcome.round_log.empty() ? outcome.final_trace.outcome
                                                   : outcome.round_log.front().outcome));
      if (!outcome.round_log.empty() || !outcome.recovered) {
        row.recovery_attempted = true;
        metrics_.counter("recoveries_attempted").increment();
        metrics_.histogram("recovery_seconds")
            .observe(std::chrono::duration<double>(Clock::now() - recovery_begin)
                         .count());
        row.recovered = outcome.recovered;
        row.recovery_rounds = outcome.rounds;
        row.recovery_degraded = outcome.degraded;
        row.recovery_credit = outcome.credit_carried;
        row.degraded = row.degraded || outcome.degraded;
        metrics_.counter("recovery_rounds").add(outcome.rounds);
        metrics_.histogram("recovery_rounds_per_mission")
            .observe(static_cast<double>(outcome.rounds));
        if (outcome.degraded) {
          metrics_.counter("recoveries_degraded").increment();
        }
        metrics_.counter("recovery_credit_minutes")
            .add(outcome.credit_carried.count());
        if (outcome.recovered) {
          metrics_.counter("recoveries_succeeded").increment();
        } else {
          row.status = JobStatus::RunFailed;
          row.detail =
              !outcome.diagnostics.empty()
                  ? diag::summary_line(outcome.diagnostics.front())
                  : (outcome.final_trace.failure.has_value()
                         ? outcome.final_trace.failure->detail
                         : "fault replay broke the run");
          row.diagnostics.insert(row.diagnostics.end(),
                                 outcome.diagnostics.begin(),
                                 outcome.diagnostics.end());
        }
      }
    }

    // Fleet simulation: thousands of seeded replays of the certified
    // schedule under sampled hazards, reduced into MTTF / recovery-rate /
    // completion-histogram metrics. Deterministic for any worker count.
    if (row.status == JobStatus::Ok && job.fleet_runs > 0) {
      sim::FleetOptions fleet;
      fleet.runs = job.fleet_runs;
      fleet.seed = job.fleet_seed;
      // Fleet workers get this job's share of the machine; the reduction is
      // identical for any worker count.
      fleet.jobs = per_job_thread_share(options_.jobs);
      fleet.runtime.seed = job.simulate_seed;
      if (job.fault_plan.has_value()) {
        fleet.runtime.faults = sim::parse_fault_plan(*job.fault_plan);
      }
      if (!job.hazard_spec.empty()) {
        fleet.hazard = sim::parse_hazard_spec(job.hazard_spec, assay.registry());
      }
      if (job.fleet_recover) {
        // Broken fleet runs replay through the multi-fault mission loop:
        // the probe re-samples the job's hazard model with the run's own
        // (seed, run) streams, so continuation rounds admit exactly the
        // failures the root sampling clipped — and the reduction stays
        // bit-identical across worker counts.
        const schedule::SynthesisResult& result = report.result;
        const sim::HazardModel& hazard = fleet.hazard;
        const int recover_rounds = std::max(1, job.recover_rounds);
        const double recover_budget = job.recover_budget_seconds;
        const std::uint64_t fleet_seed = job.fleet_seed;
        fleet.mission = [&assay, &result, &options, &hazard, recover_rounds,
                         recover_budget, fleet_seed](
                            const sim::RunTrace&,
                            const sim::RuntimeOptions& run_options,
                            std::uint64_t run) {
          core::MissionOptions mission;
          mission.synthesis = options;
          mission.max_rounds = recover_rounds;
          mission.round_budget_seconds = recover_budget;
          mission.hazard = &hazard;
          mission.hazard_seed = fleet_seed;
          mission.hazard_run = run;
          const core::MissionOutcome outcome =
              core::run_mission(assay, result, run_options, mission);
          sim::MissionReport digest;
          digest.recovered = outcome.recovered;
          digest.rounds = outcome.rounds;
          digest.degraded = outcome.degraded;
          digest.credit = outcome.credit_carried;
          digest.completed_at = outcome.completed_at;
          return digest;
        };
      }
      const Clock::time_point fleet_begin = Clock::now();
      row.fleet = sim::run_fleet(report.result, assay, fleet);
      metrics_.histogram("fleet_seconds")
          .observe(std::chrono::duration<double>(Clock::now() - fleet_begin)
                       .count());
      metrics_.counter("fleet_runs").add(row.fleet->runs);
      metrics_.counter("fleet_breaks")
          .add(row.fleet->device_failed + row.fleet->attempts_exhausted);
      metrics_.counter("fleet_recoveries").add(row.fleet->recovered);
      if (row.fleet->missions > 0) {
        metrics_.counter("fleet_missions").add(row.fleet->missions);
        metrics_.counter("fleet_mission_rounds")
            .add(static_cast<int>(row.fleet->mission_rounds));
        metrics_.counter("fleet_missions_degraded")
            .add(row.fleet->missions_degraded);
        metrics_.counter("fleet_mission_credit_minutes")
            .add(row.fleet->mission_credit.count());
      }
    }
  } catch (const io::ParseError& e) {
    row.status = JobStatus::ParseError;
    row.detail = e.what();
  } catch (const CancelledError& e) {
    row.status = JobStatus::Cancelled;
    row.detail = e.what();
  } catch (const InfeasibleError& e) {
    row.status = JobStatus::Infeasible;
    row.detail = e.what();
  } catch (const sim::FaultPlanError& e) {
    row.status = JobStatus::Error;
    row.detail = std::string{"fault plan: "} + e.what();
  } catch (const sim::HazardSpecError& e) {
    row.status = JobStatus::Error;
    row.detail = std::string{"hazard spec: "} + e.what();
  } catch (const std::exception& e) {
    row.status = JobStatus::Error;
    row.detail = e.what();
  }
  row.wall_seconds = std::chrono::duration<double>(Clock::now() - begin).count();

  metrics_.counter("jobs_completed").increment();
  if (row.status == JobStatus::Cancelled) {
    metrics_.counter("jobs_cancelled").increment();
  } else if (row.status != JobStatus::Ok) {
    metrics_.counter("jobs_failed").increment();
  }
  metrics_.histogram("job_seconds").observe(row.wall_seconds);
  return row;
}

std::vector<BatchResult> BatchEngine::run(const std::vector<BatchJob>& jobs) {
  // Rows are pre-sized so each worker writes its own slot: results come back
  // in manifest order no matter how the pool interleaves the jobs.
  std::vector<BatchResult> rows(jobs.size());
  ThreadPool pool(options_.jobs);
  {
    util::MutexLock lock(pool_mutex_);
    active_pool_ = &pool;
  }

  std::vector<std::future<void>> futures;
  futures.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const BatchJob& job = jobs[i];
    const double deadline = job.deadline_seconds > 0.0
                                ? job.deadline_seconds
                                : options_.default_deadline_seconds;
    futures.push_back(pool.submit(
        [this, &job, &rows, i](const CancellationToken& token) {
          rows[i] = run_one(job, token);
        },
        deadline));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      futures[i].get();
    } catch (const std::future_error&) {
      // stop() abandoned the queued job before it started.
      rows[i].name = !jobs[i].name.empty() ? jobs[i].name : jobs[i].path;
      rows[i].status = JobStatus::Cancelled;
      rows[i].detail = "batch stopped before the job started";
    } catch (const CancelledError& e) {
      // Submitted after stop(); run_one never ran.
      rows[i].name = !jobs[i].name.empty() ? jobs[i].name : jobs[i].path;
      rows[i].status = JobStatus::Cancelled;
      rows[i].detail = e.what();
    }
  }
  {
    util::MutexLock lock(pool_mutex_);
    active_pool_ = nullptr;
  }
  return rows;
}

void BatchEngine::stop() {
  util::MutexLock lock(pool_mutex_);
  if (active_pool_ != nullptr) {
    active_pool_->stop();
  }
}

std::string BatchEngine::report() const {
  const CacheStats cache = cache_.stats();
  std::ostringstream out;
  out << metrics_.text_report();
  out << "layer cache: " << cache.hits << " hits, " << cache.misses
      << " misses, " << cache.stores << " stores, " << cache.evictions
      << " evictions (hit rate ";
  out.precision(3);
  out << cache.hit_rate() << ", " << cache_.size() << '/' << cache_.capacity()
      << " entries)\n";
  return out.str();
}

std::string BatchEngine::metrics_json() const {
  const CacheStats cache = cache_.stats();
  std::map<std::string, std::int64_t> extra{
      {"layer_cache_hit_count", cache.hits},
      {"layer_cache_miss_count", cache.misses},
      {"layer_cache_store_count", cache.stores},
      {"layer_cache_eviction_count", cache.evictions},
  };
  std::ostringstream out;
  const std::string base = metrics_.json();
  // Splice the cache block into the registry's top-level object.
  COHLS_ASSERT(!base.empty() && base.back() == '}', "malformed metrics JSON");
  out << base.substr(0, base.size() - 1) << ", \"cache\": {";
  bool first = true;
  for (const auto& [name, value] : extra) {
    out << (first ? "" : ", ") << '"' << name << "\": " << value;
    first = false;
  }
  out << ", \"hit_rate\": " << cache.hit_rate() << "}}";
  return out.str();
}

std::string results_json(const std::vector<BatchResult>& rows, bool stable) {
  std::ostringstream out;
  out << "{\"jobs\": [";
  bool first_row = true;
  for (const BatchResult& row : rows) {
    out << (first_row ? "" : ", ") << "{\"name\": \""
        << diag::escape_json(row.name) << "\", \"status\": \""
        << to_string(row.status) << "\", \"detail\": \""
        << diag::escape_json(row.detail) << "\", \"wall_seconds\": "
        << (stable ? 0.0 : row.wall_seconds)
        << ", \"summary\": {\"execution_time\": \""
        << diag::escape_json(row.summary.execution_time)
        << "\", \"devices\": " << row.summary.devices
        << ", \"paths\": " << row.summary.paths
        << ", \"layers\": " << row.summary.layers
        << ", \"resynthesis_iterations\": " << row.summary.resynthesis_iterations
        << ", \"objective\": " << row.summary.objective
        << "}, \"degraded\": " << (row.degraded ? "true" : "false")
        << ", \"run_outcome\": \""
        << diag::escape_json(row.run_outcome) << "\", \"recovery_attempted\": "
        << (row.recovery_attempted ? "true" : "false")
        << ", \"recovered\": " << (row.recovered ? "true" : "false")
        << ", \"recovery_rounds\": " << row.recovery_rounds
        << ", \"recovery_degraded\": " << (row.recovery_degraded ? "true" : "false")
        << ", \"recovery_credit_minutes\": " << row.recovery_credit.count()
        << ", \"fleet\": ";
    if (row.fleet.has_value()) {
      const sim::FleetSummary& fleet = *row.fleet;
      out << "{\"runs\": " << fleet.runs << ", \"completed\": " << fleet.completed
          << ", \"device_failed\": " << fleet.device_failed
          << ", \"attempts_exhausted\": " << fleet.attempts_exhausted
          << ", \"recovery_attempts\": " << fleet.recovery_attempts
          << ", \"recovered\": " << fleet.recovered
          << ", \"recovery_success_rate\": " << fleet.recovery_success_rate
          << ", \"mttf_minutes\": " << fleet.mttf_minutes
          << ", \"mean_completion_minutes\": " << fleet.mean_completion_minutes
          << ", \"histogram_min\": " << fleet.histogram_min.count()
          << ", \"histogram_max\": " << fleet.histogram_max.count()
          << ", \"completion_histogram\": [";
      bool first_bucket = true;
      for (const int count : fleet.completion_histogram) {
        out << (first_bucket ? "" : ", ") << count;
        first_bucket = false;
      }
      out << "], \"events\": " << fleet.events
          << ", \"missions\": " << fleet.missions
          << ", \"missions_recovered\": " << fleet.missions_recovered
          << ", \"missions_degraded\": " << fleet.missions_degraded
          << ", \"mission_rounds\": " << fleet.mission_rounds
          << ", \"mission_survival_rate\": " << fleet.mission_survival_rate
          << ", \"mean_mission_rounds\": " << fleet.mean_mission_rounds
          << ", \"mission_credit_minutes\": " << fleet.mission_credit.count()
          << ", \"mission_rounds_histogram\": [";
      bool first_round_bucket = true;
      for (const int count : fleet.mission_rounds_histogram) {
        out << (first_round_bucket ? "" : ", ") << count;
        first_round_bucket = false;
      }
      out << "]}";
    } else {
      out << "null";
    }
    out << ", \"diagnostics\": [";
    bool first_diag = true;
    for (const diag::Diagnostic& d : row.diagnostics) {
      out << (first_diag ? "" : ", ") << diag::json_object(d);
      first_diag = false;
    }
    out << "]}";
    first_row = false;
  }
  out << "]}";
  return out.str();
}

std::vector<BatchJob> jobs_from_manifest(const std::string& manifest_text,
                                         const std::string& base_dir,
                                         const core::SynthesisOptions& options) {
  std::vector<BatchJob> jobs;
  lex::Lines lines(manifest_text);
  while (lines.next()) {
    const std::string path(lex::trim(lines.text()));
    BatchJob job;
    job.name = path;
    job.path = (!base_dir.empty() && path.front() != '/') ? base_dir + "/" + path
                                                          : path;
    job.options = options;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace cohls::engine
