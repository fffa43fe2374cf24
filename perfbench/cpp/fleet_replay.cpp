// Workload `fleet-replay`: Monte-Carlo fleets of the case-2 and case-3
// schedules.
//
// Why: sim/ (event wheel, replayer, worker fan-out and reduction) does
// almost all the work here, against a single replay per assay in
// paper-flow. ROADMAP item 3's fan-out fix (case 3 ran at 0.72x of the
// serial loop on 4 workers) is judged on this workload.
//
// Inputs: the gene-expression (case 2) and RT-qPCR (case 3) schedules are
// synthesized and compiled once during set-up; every fleet replays kRuns
// seeded runs under the hazard spec "exp:2000" with jobs = nproc and no
// recovery probe. --seed picks kFleetSeeds fleet seeds and the loop cycles
// through the (case, fleet seed) pairs.
//
// Bypasses: synthesis (set-up only), the MILP, the batch engine and
// recovery.
//
// Correctness: every fleet's outcome counts (completed, device_failed,
// attempts_exhausted) and event count must equal those recorded for the same
// case and seed by a serial (jobs = 1) fleet in set-up, and the 1000-run
// fleets at seed 1 must reproduce the counts committed in BENCH_sim.json.
//
// Loop: closed, one fleet at a time, in whole passes over the (case, fleet
// seed) pairs. Unit of work: one replay for the throughput metric; the
// latency metrics time one sim::run_fleet call.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "assays/benchmarks.hpp"
#include "common.hpp"
#include "core/progressive_resynthesis.hpp"
#include "schedule/objective.hpp"
#include "schedule/validate.hpp"
#include "sim/fleet.hpp"
#include "sim/hazard.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace cohls;

constexpr int kRuns = 10000;
constexpr int kFleetSeeds = 4;
constexpr const char* kHazardSpec = "exp:2000";
constexpr int kSetupRepetitions = 9;
constexpr std::uint64_t kStreamTag = 0x464C454554525059ULL;  // "FLEETRPY"

/// BENCH_sim.json: 1000 runs, fleet seed 1, "exp:2000".
struct KnownFleet {
  int completed;
  int device_failed;
  int attempts_exhausted;
};
constexpr KnownFleet kKnownCase2{274, 726, 0};
constexpr KnownFleet kKnownCase3{32, 968, 0};

struct Case {
  std::string name;
  model::Assay assay;
  schedule::SynthesisResult result;
  sim::CompiledSchedule compiled;
  sim::HazardModel hazard;
  double objective = 0.0;
  KnownFleet known;
};

struct Fleet {
  std::size_t case_index = 0;
  std::uint64_t seed = 1;
  sim::FleetSummary serial;
};

sim::FleetOptions fleet_options(const Case& c, std::uint64_t seed, int runs, int jobs) {
  sim::FleetOptions options;
  options.runs = runs;
  options.seed = seed;
  options.jobs = jobs;
  options.hazard = c.hazard;
  return options;
}

std::string compare(const std::string& what, const sim::FleetSummary& got, int completed,
                    int device_failed, int attempts_exhausted) {
  if (got.completed == completed && got.device_failed == device_failed &&
      got.attempts_exhausted == attempts_exhausted) {
    return "";
  }
  return what + ": completed/device_failed/attempts_exhausted " +
         std::to_string(got.completed) + "/" + std::to_string(got.device_failed) + "/" +
         std::to_string(got.attempts_exhausted) + ", expected " + std::to_string(completed) +
         "/" + std::to_string(device_failed) + "/" + std::to_string(attempts_exhausted);
}

}  // namespace

WorkloadResult run_fleet_replay(const RunConfig& config, Tracer& tracer) {
  WorkloadResult result;
  std::vector<Case> cases;
  std::vector<Fleet> fleets;
  double compile_ms = 0.0;
  result.setup = timed_setup(kSetupRepetitions, [&] {
    cases.clear();
    fleets.clear();
    compile_ms = 0.0;
    cases.push_back({"case2", assays::gene_expression_assay(), {}, {}, {}, 0.0, kKnownCase2});
    cases.push_back({"case3", assays::rt_qpcr_assay(), {}, {}, {}, 0.0, kKnownCase3});
    for (Case& c : cases) {
      // The configuration bench_sim synthesizes its fleet schedules with.
      core::SynthesisOptions synth;
      synth.engine.enable_ilp = false;
      const core::SynthesisReport report = core::synthesize(c.assay, synth);
      const auto findings = schedule::certify_result(report.result, c.assay, report.transport);
      if (!findings.empty()) {
        throw std::runtime_error(c.name + " schedule failed certification: " +
                                 diag::summary_line(findings.front()));
      }
      c.result = report.result;
      c.objective =
          schedule::evaluate_objective(c.result, c.assay, synth.costs).weighted_total;
      const Clock::time_point begin = Clock::now();
      c.compiled = sim::compile_schedule(c.result, c.assay);
      compile_ms += ms_since(begin);
      c.hazard = sim::parse_hazard_spec(kHazardSpec, c.assay.registry());
    }
    Rng rng(derive_stream_seed(config.seed, kStreamTag, 0));
    for (int k = 0; k < kFleetSeeds; ++k) {
      const std::uint64_t seed = rng.next_u64();
      for (std::size_t i = 0; i < cases.size(); ++i) {
        const Case& c = cases[i];
        fleets.push_back({i, seed,
                          sim::run_fleet(c.compiled, c.result.devices,
                                         fleet_options(c, seed, kRuns, 1))});
      }
    }
  });
  for (const Case& c : cases) {
    result.objective_sum += c.objective;
    const sim::FleetSummary known =
        sim::run_fleet(c.compiled, c.result.devices, fleet_options(c, 1, 1000, config.threads));
    result.check(compare(c.name + " 1000-run fleet at seed 1 vs BENCH_sim.json", known,
                         c.known.completed, c.known.device_failed,
                         c.known.attempts_exhausted));
  }

  double runs = 0, events = 0, posted = 0, cascaded = 0;
  double pass_ms = 0, pass_runs = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t next = 0; next % fleets.size() != 0 || seconds_since(start) < config.seconds;
       ++next) {
    const Fleet& fleet = fleets[next % fleets.size()];
    const Case& c = cases[fleet.case_index];
    tracer.begin_item();
    const Clock::time_point begin = Clock::now();
    sim::FleetSummary summary;
    {
      const auto span = tracer.span("sim.fleet");
      summary = sim::run_fleet(c.compiled, c.result.devices,
                               fleet_options(c, fleet.seed, kRuns, config.threads));
    }
    result.sample(next % fleets.size(), ms_since(begin));
    // A pass replays every (case, fleet seed) pair once.
    pass_ms += result.latencies_ms.back();
    pass_runs += summary.runs;
    if ((next + 1) % fleets.size() == 0) {
      result.rounds.push_back({pass_ms / 1e3, pass_runs});
      pass_ms = pass_runs = 0;
      result.probe.sample();
    }
    std::string error = compare(c.name + " fleet seed " + std::to_string(fleet.seed), summary,
                                fleet.serial.completed, fleet.serial.device_failed,
                                fleet.serial.attempts_exhausted);
    if (error.empty() && summary.events != fleet.serial.events) {
      error = c.name + " fleet seed " + std::to_string(fleet.seed) +
              ": event count differs from the serial fleet";
    }
    result.check(error);
    runs += summary.runs;
    events += static_cast<double>(summary.events);
    posted += static_cast<double>(summary.wheel.posted);
    cascaded += static_cast<double>(summary.wheel.cascaded);
  }

  const double n = std::max<double>(1.0, static_cast<double>(result.latencies_ms.size()));
  result.extra["fleet_runs_per_call"] = kRuns;
  if (tracer.enabled()) {
    auto& layer = result.layer;
    const double fleet_ms = tracer.total_ms("sim.fleet");
    layer["sim.compile_ms"] = compile_ms / static_cast<double>(cases.size());
    layer["sim.fleet_ms"] = fleet_ms / n;
    layer["sim.replay_us"] = runs > 0 ? fleet_ms * 1e3 / runs : 0.0;
    layer["sim.events"] = events / n;
    layer["sim.events_per_s"] = fleet_ms > 0 ? events / (fleet_ms / 1e3) : 0.0;
    layer["sim.wheel_posted"] = posted / n;
    layer["sim.wheel_cascaded"] = cascaded / n;
  }
  return result;
}

}  // namespace perfbench
