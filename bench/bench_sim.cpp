// Simulation-runtime benchmark: the fleet driver (compile-once schedule,
// per-layer break-scan replay, trace-free summaries, break truncation)
// against a loop of the original three-pass simulate_run — per run a full
// window materialization, O(windows x faults) break scans, and a complete
// RunTrace. Both sides replay the same Table-2 schedules under the same
// hazard-sampled fault plans with the same counter-derived per-run seeds,
// so their reductions must agree EXACTLY (integer outcome counts and sums);
// a mismatch makes the binary exit non-zero. The full run times the fleet
// with every hardware worker (the reference is inherently serial) and gates
// the case-2 speedup at >= 10x when the pool has at least 4 workers: the
// hazard sampler and window-realization pass are shared by both sides and
// irreducible under the bit-identical-reduction requirement, which caps the
// single-worker ratio near 4-6x, so on narrower machines the ratio is
// reported and recorded but not enforced.
//
// Schedules come from the heuristic synthesizer (MILP disabled): this
// benchmark measures the replay engine, not the layer solver, and the
// heuristic keeps regeneration fast and deterministic.
//
// Alongside the timed sweep, every case runs an (untimed) mission sweep: a
// smaller fleet under a harsher hazard whose broken runs re-enter the
// re-entrant multi-fault recovery loop (core::run_mission), so the JSON
// also records mission-survival reliability (survival rate, mean rounds,
// credit carried, rounds histogram).
//
// Output: a human-readable table, and BENCH_sim.json with one record per
// Table-2 case holding runs/sec, events/sec, the speedup, the reliability
// reduction, the mission-survival reduction and the break-scan counters
// (`events`, `wheel.posted`, `wheel.cascaded`).
// Smoke mode writes the same document (timing fields included but
// meaningless at one worker) so CI can assert its fields.
//
// Usage: bench_sim [--smoke] [--out <path>]
//   --smoke    quick differential run for CI: 256-run fleet of case 2,
//              reference parity + jobs 1 vs 8 reduction identity (mission
//              fields included), no timing gate
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/recovery.hpp"
#include "sim/fleet.hpp"
#include "sim/hazard.hpp"
#include "sim/runtime.hpp"
#include "support/runtime_reference.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace cohls;

namespace {

using Clock = std::chrono::steady_clock;

/// Must match the fleet driver's attempt-seed stream (fleet.cpp) so the
/// reference loop replays the exact same runs.
constexpr std::uint64_t kAttemptStreamTag = 0x415454454D505453ULL;  // "ATTEMPTS"
constexpr Minutes kNoHorizon{std::numeric_limits<std::int64_t>::max()};

constexpr std::uint64_t kFleetSeed = 1;
constexpr const char* kHazardSpec = "exp:2000";
constexpr int kFullRuns = 1000;
constexpr int kSmokeRuns = 256;
constexpr double kCase2SpeedupGate = 10.0;
/// The mission sweep breaks runs on purpose: a harsher hazard over a
/// smaller fleet, so the replay→recover→re-certify loop gets real work
/// without dominating the benchmark wall time.
constexpr const char* kMissionHazardSpec = "exp:400";
constexpr int kMissionFullRuns = 256;
constexpr int kMissionSmokeRuns = 64;
constexpr int kMissionRounds = 3;

struct Case {
  std::string name;
  model::Assay assay;
};

/// The reference-side reduction: the integer accumulators run_fleet's
/// reduce() computes, re-derived from full simulate_run_reference traces.
struct ReferenceReduction {
  int completed = 0;
  int device_failed = 0;
  int attempts_exhausted = 0;
  std::int64_t completion_sum = 0;
  std::int64_t break_sum = 0;
};

ReferenceReduction reference_loop(const schedule::SynthesisResult& result,
                                  const model::Assay& assay,
                                  const sim::HazardModel& hazard, int runs) {
  ReferenceReduction out;
  sim::RuntimeOptions options;
  for (int r = 0; r < runs; ++r) {
    options.seed = derive_stream_seed(kFleetSeed, kAttemptStreamTag,
                                      static_cast<std::uint64_t>(r));
    options.faults.events.clear();
    hazard.sample_into(options.faults, result.devices, kFleetSeed,
                       static_cast<std::uint64_t>(r), kNoHorizon);
    const sim::RunTrace trace = oracles::simulate_run_reference(result, assay, options);
    switch (trace.outcome) {
      case sim::RunOutcome::Completed:
        ++out.completed;
        out.completion_sum += trace.completed_at.count();
        break;
      case sim::RunOutcome::DeviceFailed:
        ++out.device_failed;
        out.break_sum += trace.failure->at.count();
        break;
      case sim::RunOutcome::AttemptsExhausted:
        ++out.attempts_exhausted;
        out.break_sum += trace.failure->at.count();
        break;
    }
  }
  return out;
}

/// Exact agreement between the reference loop and the fleet reduction: the
/// outcome counts are integers and the means divide identical integer sums
/// by identical counts, so == (not NEAR) is the correct comparison.
bool reductions_match(const ReferenceReduction& ref, const sim::FleetSummary& fleet) {
  const int broken = ref.device_failed + ref.attempts_exhausted;
  const double ref_mttf =
      broken > 0 ? static_cast<double>(ref.break_sum) / broken : 0.0;
  const double ref_mean =
      ref.completed > 0 ? static_cast<double>(ref.completion_sum) / ref.completed
                        : 0.0;
  return ref.completed == fleet.completed &&
         ref.device_failed == fleet.device_failed &&
         ref.attempts_exhausted == fleet.attempts_exhausted &&
         ref_mttf == fleet.mttf_minutes &&
         ref_mean == fleet.mean_completion_minutes;
}

bool summaries_identical(const sim::FleetSummary& a, const sim::FleetSummary& b) {
  return a.runs == b.runs && a.completed == b.completed &&
         a.device_failed == b.device_failed &&
         a.attempts_exhausted == b.attempts_exhausted &&
         a.mttf_minutes == b.mttf_minutes &&
         a.mean_completion_minutes == b.mean_completion_minutes &&
         a.histogram_min == b.histogram_min && a.histogram_max == b.histogram_max &&
         a.completion_histogram == b.completion_histogram && a.events == b.events &&
         a.wheel.posted == b.wheel.posted && a.wheel.cascaded == b.wheel.cascaded &&
         a.missions == b.missions && a.missions_recovered == b.missions_recovered &&
         a.missions_degraded == b.missions_degraded &&
         a.mission_rounds == b.mission_rounds &&
         a.mission_survival_rate == b.mission_survival_rate &&
         a.mean_mission_rounds == b.mean_mission_rounds &&
         a.mission_credit == b.mission_credit &&
         a.mission_rounds_histogram == b.mission_rounds_histogram;
}

double elapsed_ms(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin).count();
}

struct CaseRecord {
  std::string name;
  int ops = 0;
  int layers = 0;
  int runs = 0;
  double reference_ms = 0.0;
  double fleet_ms = 0.0;
  double speedup = 0.0;
  double runs_per_sec = 0.0;
  double events_per_sec = 0.0;
  bool match = false;
  sim::FleetSummary summary;
  int mission_runs = 0;
  sim::FleetSummary mission;  ///< the untimed mission-survival sweep
};

std::string json_record(const CaseRecord& record) {
  std::ostringstream out;
  out << "{\"case\": \"" << record.name << "\", \"ops\": " << record.ops
      << ", \"layers\": " << record.layers << ", \"runs\": " << record.runs
      << ", \"reference_ms\": " << record.reference_ms
      << ", \"fleet_ms\": " << record.fleet_ms << ", \"speedup\": " << record.speedup
      << ", \"runs_per_sec\": " << record.runs_per_sec
      << ", \"events_per_sec\": " << record.events_per_sec
      << ", \"reduction_matches\": " << (record.match ? "true" : "false")
      << ", \"completed\": " << record.summary.completed
      << ", \"device_failed\": " << record.summary.device_failed
      << ", \"attempts_exhausted\": " << record.summary.attempts_exhausted
      << ", \"mttf_minutes\": " << record.summary.mttf_minutes
      << ", \"mean_completion_minutes\": " << record.summary.mean_completion_minutes
      << ", \"events\": " << record.summary.events << ", \"wheel\": {\"posted\": "
      << record.summary.wheel.posted << ", \"cascaded\": " << record.summary.wheel.cascaded
      << "}"
      << ", \"mission_runs\": " << record.mission_runs
      << ", \"missions\": " << record.mission.missions
      << ", \"missions_recovered\": " << record.mission.missions_recovered
      << ", \"missions_degraded\": " << record.mission.missions_degraded
      << ", \"mission_rounds\": " << record.mission.mission_rounds
      << ", \"mission_survival_rate\": " << record.mission.mission_survival_rate
      << ", \"mean_mission_rounds\": " << record.mission.mean_mission_rounds
      << ", \"mission_credit_minutes\": " << record.mission.mission_credit.count()
      << ", \"mission_rounds_histogram\": [";
  for (std::size_t i = 0; i < record.mission.mission_rounds_histogram.size(); ++i) {
    out << (i ? ", " : "") << record.mission.mission_rounds_histogram[i];
  }
  out << "]}";
  return out.str();
}

/// The mission sweep's fleet options: every broken run re-enters the
/// re-entrant recovery loop with hazard re-anchoring on the same (seed,
/// run) counter streams, mirroring the engine's --fleet-recover wiring.
sim::FleetOptions mission_fleet_options(const model::Assay& assay,
                                        const core::SynthesisReport& report,
                                        const sim::HazardModel& hazard,
                                        const core::SynthesisOptions& synth,
                                        int runs, int jobs) {
  sim::FleetOptions options;
  options.runs = runs;
  options.seed = kFleetSeed;
  options.hazard = hazard;
  options.jobs = jobs;
  options.mission = [&assay, &report, &hazard, synth](
                        const sim::RunTrace&, const sim::RuntimeOptions& runtime,
                        std::uint64_t run) {
    core::MissionOptions mission;
    mission.synthesis = synth;
    mission.max_rounds = kMissionRounds;
    mission.hazard = &hazard;
    mission.hazard_seed = kFleetSeed;
    mission.hazard_run = run;
    const core::MissionOutcome out =
        core::run_mission(assay, report.result, runtime, mission);
    sim::MissionReport digest;
    digest.recovered = out.recovered;
    digest.rounds = out.rounds;
    digest.degraded = out.degraded;
    digest.credit = out.credit_carried;
    digest.completed_at = out.completed_at;
    return digest;
  };
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_sim.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_sim [--smoke] [--out <path>]\n";
      return 2;
    }
  }

  // The replay engine is the subject: synthesize with the fast heuristic.
  core::SynthesisOptions synth;
  synth.engine.enable_ilp = false;

  std::vector<Case> cases;
  if (!smoke) {
    cases.push_back({"case1-kinase2", assays::kinase_activity_assay(2)});
  }
  cases.push_back({"case2-gene10", assays::gene_expression_assay(10)});
  if (!smoke) {
    cases.push_back({"case3-rtqpcr20", assays::rt_qpcr_assay(20)});
  }
  const int runs = smoke ? kSmokeRuns : kFullRuns;
  // Full mode times the fleet at machine width; smoke keeps jobs=1 so the
  // 1-vs-8 identity check below compares genuinely different schedules of
  // the same work.
  const int workers = smoke ? 1
                            : static_cast<int>(std::max(
                                  1u, std::thread::hardware_concurrency()));

  bool all_match = true;
  double case2_speedup = 0.0;
  std::vector<CaseRecord> records;
  TextTable table({"case", "ops", "layers", "runs", "reference ms", "fleet ms",
                   "speedup", "runs/s", "events/s", "match"});
  for (const Case& item : cases) {
    const core::SynthesisReport report = core::synthesize(item.assay, synth);
    const sim::HazardModel hazard =
        sim::parse_hazard_spec(kHazardSpec, item.assay.registry());

    sim::FleetOptions fleet;
    fleet.runs = runs;
    fleet.seed = kFleetSeed;
    fleet.hazard = hazard;
    fleet.jobs = workers;

    const Clock::time_point fleet_begin = Clock::now();
    const sim::FleetSummary summary = sim::run_fleet(report.result, item.assay, fleet);
    const double fleet_ms = elapsed_ms(fleet_begin);

    const Clock::time_point ref_begin = Clock::now();
    const ReferenceReduction reference =
        reference_loop(report.result, item.assay, hazard, runs);
    const double reference_ms = elapsed_ms(ref_begin);

    CaseRecord record;
    record.name = item.name;
    record.ops = static_cast<int>(item.assay.operations().size());
    record.layers = static_cast<int>(report.result.layers.size());
    record.runs = runs;
    record.reference_ms = reference_ms;
    record.fleet_ms = fleet_ms;
    record.speedup = fleet_ms > 0.0 ? reference_ms / fleet_ms : 0.0;
    record.runs_per_sec = fleet_ms > 0.0 ? runs / (fleet_ms / 1000.0) : 0.0;
    record.events_per_sec =
        fleet_ms > 0.0 ? static_cast<double>(summary.events) / (fleet_ms / 1000.0)
                       : 0.0;
    record.match = reductions_match(reference, summary);
    record.summary = summary;

    // The untimed mission-survival sweep: harsher hazard, smaller fleet,
    // every broken run driven through core::run_mission.
    const sim::HazardModel mission_hazard =
        sim::parse_hazard_spec(kMissionHazardSpec, item.assay.registry());
    record.mission_runs = smoke ? kMissionSmokeRuns : kMissionFullRuns;
    const sim::FleetOptions mission_fleet = mission_fleet_options(
        item.assay, report, mission_hazard, synth, record.mission_runs, workers);
    record.mission = sim::run_fleet(report.result, item.assay, mission_fleet);
    all_match = all_match && record.match;
    if (item.name == "case2-gene10") {
      case2_speedup = record.speedup;
    }

    std::ostringstream speedup_text, runs_text, events_text, ref_text, fleet_text;
    speedup_text.precision(3);
    speedup_text << record.speedup;
    runs_text.precision(4);
    runs_text << record.runs_per_sec;
    events_text.precision(4);
    events_text << record.events_per_sec;
    ref_text.precision(4);
    ref_text << std::fixed << reference_ms;
    fleet_text.precision(4);
    fleet_text << std::fixed << fleet_ms;
    table.add_row({record.name, std::to_string(record.ops),
                   std::to_string(record.layers), std::to_string(runs),
                   ref_text.str(), fleet_text.str(), speedup_text.str(),
                   runs_text.str(), events_text.str(),
                   record.match ? "yes" : "NO"});
    records.push_back(std::move(record));

    // Worker-count identity: the reduction is bit-identical at any jobs,
    // for both the timed sweep and the mission-survival sweep.
    if (smoke) {
      sim::FleetOptions parallel = fleet;
      parallel.jobs = 8;
      const sim::FleetSummary wide =
          sim::run_fleet(report.result, item.assay, parallel);
      if (!summaries_identical(summary, wide)) {
        std::cerr << "FAIL: jobs 1 vs 8 reductions diverge on " << item.name << "\n";
        return 1;
      }
      sim::FleetOptions mission_parallel = mission_fleet;
      mission_parallel.jobs = 8;
      const sim::FleetSummary mission_wide =
          sim::run_fleet(report.result, item.assay, mission_parallel);
      if (!summaries_identical(records.back().mission, mission_wide)) {
        std::cerr << "FAIL: jobs 1 vs 8 mission reductions diverge on "
                  << item.name << "\n";
        return 1;
      }
      std::cout << "jobs 1 vs 8 reduction identity (fleet + mission): ok\n";
    }
  }
  table.print(std::cout);

  if (!all_match) {
    std::cerr << "FAIL: fleet reduction diverges from the"
                 " simulate_run_reference loop\n";
    return 1;
  }
  std::cout << "reduction parity vs simulate_run_reference: ok\n";

  // The 10x criterion presumes a multi-worker fleet against the serial
  // reference; under 4 workers (including smoke's jobs=1) the shared
  // sampling/realization cost caps the ratio below the gate no matter how
  // fast the replay is, so the measured value is recorded but not enforced.
  const bool gate_enforced = !smoke && workers >= 4;
  const char* gate_reason =
      smoke ? "smoke mode times a single worker: the ratio is not meaningful"
      : gate_enforced
          ? "fleet pool has >= 4 workers"
          : "fewer than 4 workers: the shared hazard-sampling and "
            "window-realization cost bounds the single-worker ratio below "
            "the gate";
  const bool gate_passed = !gate_enforced || case2_speedup >= kCase2SpeedupGate;
  std::cout << "case-2 speedup " << case2_speedup << "x on " << workers
            << " worker(s); " << kCase2SpeedupGate << "x gate "
            << (gate_enforced ? (gate_passed ? "enforced: ok" : "enforced: failed")
                              : "not enforced")
            << "\n";
  std::ostringstream json;
  json << "{\n  \"benchmark\": \"bench_sim\",\n  \"hazard\": \"" << kHazardSpec
       << "\",\n  \"mission_hazard\": \"" << kMissionHazardSpec
       << "\",\n  \"fleet_seed\": " << kFleetSeed
       << ",\n  \"runs_per_fleet\": " << runs
       << ",\n  \"mission_runs_per_fleet\": "
       << (smoke ? kMissionSmokeRuns : kMissionFullRuns)
       << ",\n  \"workers\": " << workers
       << ",\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"case2_speedup_vs_reference\": " << case2_speedup
       << ",\n  \"gate\": {\"threshold\": " << kCase2SpeedupGate
       << ", \"measured\": " << case2_speedup
       << ", \"enforced\": " << (gate_enforced ? "true" : "false")
       << ", \"passed\": " << (gate_passed ? "true" : "false")
       << ", \"reason\": \"" << gate_reason << "\"}"
       << ",\n  \"reductions_match\": " << (all_match ? "true" : "false")
       << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    json << "    " << json_record(records[i]) << (i + 1 < records.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << json.str();
  std::cout << "wrote " << out_path << "\n";
  // The record is written either way, so a failed gate keeps what it measured.
  if (!gate_passed) {
    std::cerr << "FAIL: case-2 fleet speedup " << case2_speedup << " < "
              << kCase2SpeedupGate << "x gate (" << workers << " workers)\n";
    return 1;
  }
  return 0;
}
