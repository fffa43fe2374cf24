// Monte-Carlo fleet simulation: thousands of seeded replays of one
// synthesized schedule, fanned across a worker pool and reduced into
// reliability metrics (MTTF, recovery success rate, completion-time
// histogram). Each run derives its attempt seed and hazard-sampled fault
// plan from counter-based streams of (fleet seed, run index), and the
// reduction walks per-run records in run order — so the summary is
// bit-identical for any worker count and independent of scheduling.
#pragma once

#include <functional>

#include "model/assay.hpp"
#include "schedule/types.hpp"
#include "sim/hazard.hpp"
#include "sim/runtime.hpp"

namespace cohls::sim {

/// What a multi-fault recovery mission reported for one broken run (see
/// core::run_mission; the sim layer only carries the digest so fleets can
/// reduce mission-survival curves without depending on core).
struct MissionReport {
  bool recovered = false;  ///< the mission replayed to completion
  int rounds = 0;          ///< recovery rounds performed (faults survived)
  bool degraded = false;   ///< a round outlived its budget and re-ran heuristic-only
  Minutes credit{0};       ///< cumulative elapsed-time credit carried
  Minutes completed_at{0};  ///< mission-clock end when recovered
};

struct FleetOptions {
  /// Number of seeded replays.
  int runs = 1000;
  /// Fleet master seed; run r's streams derive from (seed, r).
  std::uint64_t seed = 1;
  /// Worker threads (1 = run inline on the caller).
  int jobs = 1;
  /// Base replay options. The per-run attempt seed is derived from the
  /// fleet seed; any scripted faults here replay in every run, with
  /// hazard-sampled failures appended.
  RuntimeOptions runtime;
  HazardModel hazard;
  /// Optional recovery probe, called with the trace of every broken run;
  /// returns whether recovery (e.g. core re-synthesis of the residual
  /// assay) succeeded. Must be thread-safe and deterministic in the trace.
  std::function<bool(const RunTrace&)> recover;
  /// Optional multi-fault mission probe; takes precedence over `recover`.
  /// Called for every broken run with the trace, the run's replay options
  /// restricted to the *scripted* fault prefix (the mission re-samples the
  /// hazard model per round with the same (seed, run) streams and its own
  /// per-round horizons), and the run index. Must be thread-safe and
  /// deterministic in its arguments — the reduction stays bit-identical
  /// across worker counts.
  std::function<MissionReport(const RunTrace&, const RuntimeOptions&, std::uint64_t)>
      mission;
  /// Buckets of the completion-time histogram.
  int histogram_buckets = 16;
};

struct FleetSummary {
  int runs = 0;
  int completed = 0;
  int device_failed = 0;
  int attempts_exhausted = 0;
  /// Broken runs offered to the recovery probe (= broken runs when a probe
  /// is set, else 0) and how many of those recovered.
  int recovery_attempts = 0;
  int recovered = 0;
  /// recovered / recovery_attempts; 0 when nothing was attempted.
  double recovery_success_rate = 0.0;
  /// Mean break time of broken runs in minutes; 0 when nothing broke.
  double mttf_minutes = 0.0;
  /// Mean realized completion time of completed runs; 0 when none completed.
  double mean_completion_minutes = 0.0;
  /// Completion-time histogram over completed runs: `histogram_buckets`
  /// equal-width buckets spanning [histogram_min, histogram_max].
  Minutes histogram_min{0};
  Minutes histogram_max{0};
  std::vector<int> completion_histogram;
  /// Break candidates examined across all runs (ReplaySummary::events).
  std::uint64_t events = 0;
  /// Break-scan statistics summed across all workers.
  ReplayStats wheel;

  // Multi-fault mission reductions (populated when a mission probe is set;
  // zero otherwise). A "mission" is one broken run driven through the
  // re-entrant replay→recover loop.
  int missions = 0;
  int missions_recovered = 0;  ///< recovered after >= 1 rounds
  int missions_degraded = 0;   ///< missions with a heuristic-only round
  /// Total recovery rounds across all missions.
  std::int64_t mission_rounds = 0;
  /// missions_recovered / missions; 0 when no mission ran.
  double mission_survival_rate = 0.0;
  /// mission_rounds / missions; 0 when no mission ran.
  double mean_mission_rounds = 0.0;
  /// Total elapsed-time credit carried across mission rounds, in minutes.
  Minutes mission_credit{0};
  /// mission_rounds_histogram[k] = missions that performed exactly k
  /// recovery rounds (size = max observed rounds + 1; empty without
  /// missions).
  std::vector<int> mission_rounds_histogram;
};

/// Simulates `options.runs` seeded replays of `result` and reduces them.
/// The reduction is deterministic: bit-identical for the same
/// (result, assay, options) at any `jobs`.
[[nodiscard]] FleetSummary run_fleet(const schedule::SynthesisResult& result,
                                     const model::Assay& assay,
                                     const FleetOptions& options);

/// As above, for a schedule already compiled with compile_schedule. The
/// inventory supplies the devices hazards sample over.
[[nodiscard]] FleetSummary run_fleet(const CompiledSchedule& compiled,
                                     const model::DeviceInventory& devices,
                                     const FleetOptions& options);

}  // namespace cohls::sim
