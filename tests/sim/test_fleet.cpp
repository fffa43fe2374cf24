#include "sim/fleet.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/recovery.hpp"
#include "support/runtime_reference.hpp"
#include "util/rng.hpp"

namespace cohls {
namespace {

struct Fixture {
  model::Assay assay;
  core::SynthesisReport report;
};

const Fixture& fixture() {
  static const Fixture shared = [] {
    core::SynthesisOptions options;
    options.max_devices = 12;
    options.layering.indeterminate_threshold = 3;
    model::Assay assay = assays::gene_expression_assay(3);
    core::SynthesisReport report = core::synthesize(assay, options);
    return Fixture{std::move(assay), std::move(report)};
  }();
  return shared;
}

void expect_summary_identical(const sim::FleetSummary& a, const sim::FleetSummary& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.device_failed, b.device_failed);
  EXPECT_EQ(a.attempts_exhausted, b.attempts_exhausted);
  EXPECT_EQ(a.recovery_attempts, b.recovery_attempts);
  EXPECT_EQ(a.recovered, b.recovered);
  // Bit-identical reductions: exact double equality is the contract.
  EXPECT_EQ(a.recovery_success_rate, b.recovery_success_rate);
  EXPECT_EQ(a.mttf_minutes, b.mttf_minutes);
  EXPECT_EQ(a.mean_completion_minutes, b.mean_completion_minutes);
  EXPECT_EQ(a.histogram_min, b.histogram_min);
  EXPECT_EQ(a.histogram_max, b.histogram_max);
  EXPECT_EQ(a.completion_histogram, b.completion_histogram);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.wheel.posted, b.wheel.posted);
  EXPECT_EQ(a.wheel.cascaded, b.wheel.cascaded);
  EXPECT_EQ(a.missions, b.missions);
  EXPECT_EQ(a.missions_recovered, b.missions_recovered);
  EXPECT_EQ(a.missions_degraded, b.missions_degraded);
  EXPECT_EQ(a.mission_rounds, b.mission_rounds);
  EXPECT_EQ(a.mission_survival_rate, b.mission_survival_rate);
  EXPECT_EQ(a.mean_mission_rounds, b.mean_mission_rounds);
  EXPECT_EQ(a.mission_credit, b.mission_credit);
  EXPECT_EQ(a.mission_rounds_histogram, b.mission_rounds_histogram);
}

/// The multi-fault mission probe the batch engine wires up: every broken
/// fleet run re-enters core::run_mission with the fleet's own hazard
/// streams, so continuation replays admit exactly the failures the root
/// sampling clipped.
sim::FleetOptions mission_fleet_options(const Fixture& f, int runs,
                                        std::uint64_t seed,
                                        const sim::HazardModel& hazard) {
  core::SynthesisOptions synth_options;
  synth_options.max_devices = 12;
  synth_options.layering.indeterminate_threshold = 3;
  // Heuristic-only continuations: still certified, but cheap enough that a
  // 64-run sweep with up to 3 recovery rounds per broken run stays fast
  // under TSan. Determinism is unaffected.
  synth_options.engine.enable_ilp = false;

  sim::FleetOptions options;
  options.runs = runs;
  options.seed = seed;
  options.hazard = hazard;
  options.mission = [&f, &hazard, synth_options, seed](
                        const sim::RunTrace&, const sim::RuntimeOptions& runtime,
                        std::uint64_t run) {
    core::MissionOptions mission;
    mission.synthesis = synth_options;
    mission.max_rounds = 3;
    mission.hazard = &hazard;
    mission.hazard_seed = seed;
    mission.hazard_run = run;
    const core::MissionOutcome out =
        core::run_mission(f.assay, f.report.result, runtime, mission);
    sim::MissionReport report;
    report.recovered = out.recovered;
    report.rounds = out.rounds;
    report.degraded = out.degraded;
    report.credit = out.credit_carried;
    report.completed_at = out.completed_at;
    return report;
  };
  return options;
}

TEST(Fleet, HappyPathFleetCompletesEveryRun) {
  const Fixture& f = fixture();
  sim::FleetOptions options;
  options.runs = 64;
  options.seed = 11;
  const sim::FleetSummary summary = sim::run_fleet(f.report.result, f.assay, options);
  EXPECT_EQ(summary.runs, 64);
  EXPECT_EQ(summary.completed, 64);
  EXPECT_EQ(summary.device_failed, 0);
  EXPECT_EQ(summary.attempts_exhausted, 0);
  EXPECT_EQ(summary.mttf_minutes, 0.0);
  EXPECT_GT(summary.mean_completion_minutes, 0.0);
  // Only failures and exhaustions are break candidates; a fault-free fleet
  // therefore examines none at all.
  EXPECT_EQ(summary.events, 0u);
  ASSERT_FALSE(summary.completion_histogram.empty());
  int binned = 0;
  for (const int count : summary.completion_histogram) {
    binned += count;
  }
  EXPECT_EQ(binned, 64);
  EXPECT_GE(summary.histogram_max, summary.histogram_min);
}

TEST(Fleet, ReductionMatchesAManualReferenceLoop) {
  const Fixture& f = fixture();
  const sim::HazardModel hazard =
      sim::parse_hazard_spec("exp:400", f.assay.registry());

  sim::FleetOptions options;
  options.runs = 48;
  options.seed = 7;
  options.hazard = hazard;
  const sim::FleetSummary summary = sim::run_fleet(f.report.result, f.assay, options);

  // Re-derive the reduction with the three-pass reference simulator and the
  // same per-run streams.
  int completed = 0;
  int broken = 0;
  std::int64_t completion_sum = 0;
  std::int64_t break_sum = 0;
  for (int r = 0; r < options.runs; ++r) {
    sim::RuntimeOptions runtime = options.runtime;
    runtime.seed = derive_stream_seed(options.seed, 0x415454454D505453ULL,
                                      static_cast<std::uint64_t>(r));
    hazard.sample_into(runtime.faults, f.report.result.devices, options.seed,
                       static_cast<std::uint64_t>(r),
                       Minutes{std::numeric_limits<std::int64_t>::max()});
    const sim::RunTrace trace =
        oracles::simulate_run_reference(f.report.result, f.assay, runtime);
    if (trace.ok()) {
      ++completed;
      completion_sum += trace.completed_at.count();
    } else {
      ++broken;
      break_sum += trace.completed_at.count();
    }
  }
  EXPECT_GT(broken, 0) << "hazard scale chosen to break some of 48 runs";
  EXPECT_EQ(summary.completed, completed);
  EXPECT_EQ(summary.device_failed + summary.attempts_exhausted, broken);
  EXPECT_EQ(summary.mttf_minutes,
            broken > 0 ? static_cast<double>(break_sum) / broken : 0.0);
  EXPECT_EQ(summary.mean_completion_minutes,
            completed > 0 ? static_cast<double>(completion_sum) / completed : 0.0);
}

TEST(Fleet, ReductionIsBitIdenticalAcrossWorkerCounts) {
  const Fixture& f = fixture();
  sim::FleetOptions options;
  options.runs = 64;
  options.seed = 21;
  options.hazard = sim::parse_hazard_spec("exp:500", f.assay.registry());

  options.jobs = 1;
  const sim::FleetSummary serial = sim::run_fleet(f.report.result, f.assay, options);
  options.jobs = 4;
  const sim::FleetSummary parallel = sim::run_fleet(f.report.result, f.assay, options);
  options.jobs = 8;
  const sim::FleetSummary wide = sim::run_fleet(f.report.result, f.assay, options);

  EXPECT_GT(serial.device_failed, 0);
  expect_summary_identical(serial, parallel);
  expect_summary_identical(serial, wide);
}

TEST(Fleet, RecoveryProbeSeesEveryBrokenRun) {
  const Fixture& f = fixture();
  sim::FleetOptions options;
  options.runs = 32;
  options.seed = 3;
  options.hazard = sim::parse_hazard_spec("exp:300", f.assay.registry());

  std::atomic<int> probed{0};
  options.recover = [&probed](const sim::RunTrace& trace) {
    ++probed;
    return trace.outcome == sim::RunOutcome::DeviceFailed;
  };
  const sim::FleetSummary summary = sim::run_fleet(f.report.result, f.assay, options);
  const int broken = summary.device_failed + summary.attempts_exhausted;
  EXPECT_GT(broken, 0);
  EXPECT_EQ(summary.recovery_attempts, broken);
  EXPECT_EQ(probed.load(), broken);
  EXPECT_EQ(summary.recovered, summary.device_failed);
  EXPECT_EQ(summary.recovery_success_rate,
            static_cast<double>(summary.recovered) / summary.recovery_attempts);
}

TEST(Fleet, ResynthesisRecoveryUnderHazards) {
  // End-to-end: broken fleet runs feed the real recovery re-synthesizer.
  const Fixture& f = fixture();
  core::SynthesisOptions synth_options;
  synth_options.max_devices = 12;
  synth_options.layering.indeterminate_threshold = 3;

  sim::FleetOptions options;
  options.runs = 12;
  options.seed = 5;
  options.jobs = 2;
  options.hazard = sim::parse_hazard_spec("exp:250", f.assay.registry());
  options.recover = [&](const sim::RunTrace& trace) {
    return core::recover(f.assay, f.report.result, trace, synth_options).recovered;
  };
  const sim::FleetSummary summary = sim::run_fleet(f.report.result, f.assay, options);
  EXPECT_GT(summary.recovery_attempts, 0);
  EXPECT_GE(summary.recovery_attempts, summary.recovered);
}

TEST(Fleet, MultiFaultMissionSweepSurvivesMultipleRounds) {
  // Every broken run re-enters the full replay→recover→re-certify mission
  // loop; re-anchored hazard streams admit the continuation-era failures the
  // root sampling clipped, so some missions must survive >= 2 faults.
  const Fixture& f = fixture();
  const sim::HazardModel hazard =
      sim::parse_hazard_spec("exp:250", f.assay.registry());
  sim::FleetOptions options = mission_fleet_options(f, 64, 29, hazard);
  options.jobs = 4;
  const sim::FleetSummary summary = sim::run_fleet(f.report.result, f.assay, options);

  const int broken = summary.device_failed + summary.attempts_exhausted;
  EXPECT_GT(broken, 0);
  EXPECT_EQ(summary.missions, broken);
  EXPECT_EQ(summary.recovery_attempts, broken);
  EXPECT_EQ(summary.recovered, summary.missions_recovered);
  EXPECT_GT(summary.mission_survival_rate, 0.0);
  EXPECT_EQ(summary.mission_survival_rate,
            static_cast<double>(summary.missions_recovered) / summary.missions);

  std::int64_t histogram_rounds = 0;
  std::int64_t multi_round = 0;
  for (std::size_t k = 0; k < summary.mission_rounds_histogram.size(); ++k) {
    histogram_rounds +=
        static_cast<std::int64_t>(k) * summary.mission_rounds_histogram[k];
    if (k >= 2) {
      multi_round += summary.mission_rounds_histogram[k];
    }
  }
  EXPECT_EQ(histogram_rounds, summary.mission_rounds);
  EXPECT_GT(multi_round, 0) << "no mission needed more than one recovery round";
}

TEST(Fleet, MissionReductionIsBitIdenticalAcrossWorkerCounts) {
  const Fixture& f = fixture();
  const sim::HazardModel hazard =
      sim::parse_hazard_spec("exp:300", f.assay.registry());

  sim::FleetOptions options = mission_fleet_options(f, 64, 33, hazard);
  options.jobs = 1;
  const sim::FleetSummary serial = sim::run_fleet(f.report.result, f.assay, options);
  options.jobs = 4;
  const sim::FleetSummary parallel = sim::run_fleet(f.report.result, f.assay, options);
  options.jobs = 8;
  const sim::FleetSummary wide = sim::run_fleet(f.report.result, f.assay, options);

  EXPECT_GT(serial.missions, 0);
  expect_summary_identical(serial, parallel);
  expect_summary_identical(serial, wide);
}

TEST(Fleet, SixtyFourRunParallelSweepIsRaceFree) {
  // The TSan CI step drives this test: 64 runs across 8 workers with
  // hazards and a trace-materializing recovery probe.
  const Fixture& f = fixture();
  sim::FleetOptions options;
  options.runs = 64;
  options.seed = 17;
  options.jobs = 8;
  options.hazard = sim::parse_hazard_spec("exp:350", f.assay.registry());
  std::atomic<int> probed{0};
  options.recover = [&probed](const sim::RunTrace& trace) {
    ++probed;
    return !trace.layers.empty();
  };
  const sim::FleetSummary summary = sim::run_fleet(f.report.result, f.assay, options);
  EXPECT_EQ(summary.runs, 64);
  EXPECT_EQ(summary.completed + summary.device_failed + summary.attempts_exhausted, 64);
  EXPECT_EQ(probed.load(), summary.recovery_attempts);
}

}  // namespace
}  // namespace cohls
