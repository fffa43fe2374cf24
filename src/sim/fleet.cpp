#include "sim/fleet.hpp"

#include <algorithm>
#include <future>
#include <limits>

#include "engine/thread_pool.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cohls::sim {

namespace {

/// Tag of the per-run attempt-seed stream (disjoint by construction from
/// the hazard stream tag inside hazard.cpp).
constexpr std::uint64_t kAttemptStreamTag = 0x415454454D505453ULL;  // "ATTEMPTS"

/// No clipping: a hazard failure sampled past the realized end is simply
/// never "affected" during replay.
constexpr Minutes kNoHorizon{std::numeric_limits<std::int64_t>::max()};

/// Latest minute a sampled failure can still matter. Without scripted
/// degradation or transport delays no replay outlives the schedule's
/// attempt-capped worst case, so failures sampled past it are provably
/// inert and are never added to a plan (the per-device draws still
/// happen, keeping every stream — and thus every outcome — unchanged).
Minutes sampling_horizon(const CompiledSchedule& compiled, const RuntimeOptions& runtime) {
  for (const FaultEvent& event : runtime.faults.events) {
    if (event.kind == FaultKind::Degradation || event.kind == FaultKind::TransportDelay) {
      return kNoHorizon;
    }
  }
  return compiled.worst_case_end(runtime.max_attempts);
}

struct RunRecord {
  RunOutcome outcome = RunOutcome::Completed;
  Minutes completed_at{0};
  std::uint64_t events = 0;
  bool recovery_attempted = false;
  bool recovered = false;
  bool mission_ran = false;
  MissionReport mission;
};

/// Simulates runs [lo, hi) into their record slots. One Replayer and one
/// RuntimeOptions instance serve the whole chunk, so the steady state
/// allocates nothing but the hazard events appended per run.
void simulate_chunk(const CompiledSchedule& compiled,
                    const model::DeviceInventory& devices, const FleetOptions& options,
                    int lo, int hi, std::vector<RunRecord>& records,
                    ReplayStats& stats) {
  Replayer replayer;
  RuntimeOptions run_options = options.runtime;
  const std::size_t scripted_faults = run_options.faults.events.size();
  const Minutes horizon = sampling_horizon(compiled, options.runtime);
  for (int r = lo; r < hi; ++r) {
    run_options.seed =
        derive_stream_seed(options.seed, kAttemptStreamTag, static_cast<std::uint64_t>(r));
    // Keep the scripted prefix, drop the previous run's sampled failures.
    run_options.faults.events.resize(scripted_faults);
    options.hazard.sample_into(run_options.faults, devices, options.seed,
                               static_cast<std::uint64_t>(r), horizon);

    RunRecord record;
    ReplaySummary summary;
    if (options.mission) {
      const RunTrace trace = replayer.run(compiled, run_options, &summary);
      if (!trace.ok()) {
        // The mission replays from the root itself, so it receives the
        // scripted prefix only: re-sampling the hazard model with the same
        // (seed, run) streams reproduces this run's failure times while
        // extending the horizon round by round.
        RuntimeOptions mission_options = run_options;
        mission_options.faults.events.resize(scripted_faults);
        record.mission =
            options.mission(trace, mission_options, static_cast<std::uint64_t>(r));
        record.mission_ran = true;
        record.recovery_attempted = true;
        record.recovered = record.mission.recovered;
      }
    } else if (options.recover) {
      const RunTrace trace = replayer.run(compiled, run_options, &summary);
      if (!trace.ok()) {
        record.recovery_attempted = true;
        record.recovered = options.recover(trace);
      }
    } else {
      summary = replayer.run_summary(compiled, run_options);
    }
    record.outcome = summary.outcome;
    record.completed_at = summary.completed_at;
    record.events = summary.events;
    records[static_cast<std::size_t>(r)] = record;
  }
  stats = replayer.wheel_stats();
}

FleetSummary reduce(const std::vector<RunRecord>& records, const FleetOptions& options) {
  FleetSummary summary;
  summary.runs = static_cast<int>(records.size());

  std::int64_t break_sum = 0;
  std::int64_t completion_sum = 0;
  for (const RunRecord& record : records) {
    switch (record.outcome) {
      case RunOutcome::Completed:
        ++summary.completed;
        completion_sum += record.completed_at.count();
        break;
      case RunOutcome::DeviceFailed:
        ++summary.device_failed;
        break_sum += record.completed_at.count();
        break;
      case RunOutcome::AttemptsExhausted:
        ++summary.attempts_exhausted;
        break_sum += record.completed_at.count();
        break;
    }
    summary.recovery_attempts += record.recovery_attempted ? 1 : 0;
    summary.recovered += record.recovered ? 1 : 0;
    summary.events += record.events;
    if (record.mission_ran) {
      ++summary.missions;
      summary.missions_recovered += record.mission.recovered ? 1 : 0;
      summary.missions_degraded += record.mission.degraded ? 1 : 0;
      summary.mission_rounds += record.mission.rounds;
      summary.mission_credit = summary.mission_credit + record.mission.credit;
      const std::size_t bucket = static_cast<std::size_t>(record.mission.rounds);
      if (summary.mission_rounds_histogram.size() <= bucket) {
        summary.mission_rounds_histogram.resize(bucket + 1, 0);
      }
      ++summary.mission_rounds_histogram[bucket];
    }
  }
  summary.mission_survival_rate =
      summary.missions > 0
          ? static_cast<double>(summary.missions_recovered) / summary.missions
          : 0.0;
  summary.mean_mission_rounds =
      summary.missions > 0
          ? static_cast<double>(summary.mission_rounds) / summary.missions
          : 0.0;

  const int broken = summary.device_failed + summary.attempts_exhausted;
  summary.mttf_minutes =
      broken > 0 ? static_cast<double>(break_sum) / broken : 0.0;
  summary.mean_completion_minutes =
      summary.completed > 0 ? static_cast<double>(completion_sum) / summary.completed
                            : 0.0;
  summary.recovery_success_rate =
      summary.recovery_attempts > 0
          ? static_cast<double>(summary.recovered) / summary.recovery_attempts
          : 0.0;

  if (summary.completed > 0 && options.histogram_buckets > 0) {
    Minutes lo = kNoHorizon;
    Minutes hi{std::numeric_limits<std::int64_t>::min()};
    for (const RunRecord& record : records) {
      if (record.outcome != RunOutcome::Completed) {
        continue;
      }
      lo = std::min(lo, record.completed_at);
      hi = std::max(hi, record.completed_at);
    }
    summary.histogram_min = lo;
    summary.histogram_max = hi;
    const std::int64_t span = hi.count() - lo.count() + 1;
    const std::int64_t width =
        (span + options.histogram_buckets - 1) / options.histogram_buckets;
    summary.completion_histogram.assign(
        static_cast<std::size_t>(options.histogram_buckets), 0);
    for (const RunRecord& record : records) {
      if (record.outcome != RunOutcome::Completed) {
        continue;
      }
      const std::int64_t bucket = (record.completed_at.count() - lo.count()) / width;
      ++summary.completion_histogram[static_cast<std::size_t>(bucket)];
    }
  }
  return summary;
}

}  // namespace

FleetSummary run_fleet(const CompiledSchedule& compiled,
                       const model::DeviceInventory& devices,
                       const FleetOptions& options) {
  COHLS_EXPECT(options.runs >= 0, "fleet size must be non-negative");
  COHLS_EXPECT(options.histogram_buckets >= 1, "histogram needs at least one bucket");

  std::vector<RunRecord> records(static_cast<std::size_t>(options.runs));
  const int jobs = std::clamp(options.jobs, 1, std::max(options.runs, 1));

  std::vector<ReplayStats> worker_stats(static_cast<std::size_t>(jobs));
  if (jobs <= 1) {
    simulate_chunk(compiled, devices, options, 0, options.runs, records, worker_stats[0]);
  } else {
    // Contiguous chunks into disjoint record slots; the serial reduction
    // over run order afterwards makes the result independent of worker
    // timing.
    std::vector<std::future<void>> pending;
    pending.reserve(static_cast<std::size_t>(jobs));
    const int chunk = (options.runs + jobs - 1) / jobs;
    engine::ThreadPool pool(jobs);
    for (int w = 0; w < jobs; ++w) {
      const int lo = w * chunk;
      const int hi = std::min(options.runs, lo + chunk);
      if (lo >= hi) {
        break;
      }
      ReplayStats& stats = worker_stats[static_cast<std::size_t>(w)];
      pending.push_back(pool.submit([&, lo, hi](const CancellationToken&) {
        simulate_chunk(compiled, devices, options, lo, hi, records, stats);
      }));
    }
    for (std::future<void>& f : pending) {
      f.get();
    }
  }

  FleetSummary summary = reduce(records, options);
  for (const ReplayStats& stats : worker_stats) {
    summary.wheel.posted += stats.posted;
  }
  return summary;
}

FleetSummary run_fleet(const schedule::SynthesisResult& result, const model::Assay& assay,
                       const FleetOptions& options) {
  const CompiledSchedule compiled = compile_schedule(result, assay);
  return run_fleet(compiled, result.devices, options);
}

}  // namespace cohls::sim
