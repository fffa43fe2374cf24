// Differential recovery: build_residual, recover and run_mission keep their
// id translations in dense frames; the map-based implementations they
// replaced live on as oracles (support/recovery_reference). On the three
// protocols and on generated assays, under seeded plans over all four fault
// kinds -- simultaneous and silent past failures, exhaustions, degradations,
// transport delays, pinned devices that die, 1-3 rounds, with and without a
// hazard model -- every residual must read as the oracle's maps and every
// mission outcome must equal the oracle's, field for field.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "assays/benchmarks.hpp"
#include "assays/random_assay.hpp"
#include "core/progressive_resynthesis.hpp"
#include "core/recovery.hpp"
#include "sim/fleet.hpp"
#include "sim/hazard.hpp"
#include "sim/runtime.hpp"
#include "support/recovery_reference.hpp"
#include "util/rng.hpp"

namespace cohls::core {
namespace {

struct Case {
  std::string name;
  model::Assay assay;
  SynthesisOptions options;
  SynthesisReport report;
  std::int64_t makespan = 0;
};

Case make_case(std::string name, model::Assay assay, const SynthesisOptions& options) {
  Case c{std::move(name), std::move(assay), options, {}, 0};
  c.report = synthesize(c.assay, c.options);
  c.makespan = sim::simulate_run(c.report.result, c.assay, {}).completed_at.count();
  return c;
}

std::vector<Case> protocol_cases() {
  SynthesisOptions options;
  options.max_devices = 12;
  options.layering.indeterminate_threshold = 3;
  std::vector<Case> cases;
  cases.push_back(make_case("kinase-activity", assays::kinase_activity_assay(2), options));
  cases.push_back(make_case("gene-expression", assays::gene_expression_assay(3), options));
  cases.push_back(make_case("rt-qpcr", assays::rt_qpcr_assay(3), options));
  return cases;
}

/// A generated assay, synthesized heuristic-only: the bookkeeping under
/// test does not depend on the layer engine.
Case random_case(int seed) {
  assays::RandomAssayOptions shape;
  shape.operations = 8 + seed % 9;
  shape.indeterminate_probability = 0.25;
  SynthesisOptions options;
  options.max_devices = 40;
  options.layering.indeterminate_threshold = 1 + seed % 3;
  options.layering.seed = static_cast<std::uint64_t>(seed);
  options.engine.enable_ilp = false;
  return make_case("random-" + std::to_string(seed),
                   assays::random_assay(static_cast<std::uint64_t>(seed), shape), options);
}

constexpr int kRandomCases = 100;

/// A seeded plan over all four fault kinds: one to three device failures
/// (a later one ties with the one before it a third of the time), and now
/// and then an exhaustion of a capture, an exhaustion of any operation, a
/// degradation and a transport delay. Failures on devices that have
/// finished their work pass silently and are struck at the next break.
sim::RuntimeOptions random_plan(const Case& c, std::uint64_t seed) {
  Rng rng(derive_stream_seed(seed, 0x5245434FULL, 0));  // "RECO"
  sim::RuntimeOptions runtime;
  runtime.seed = seed;
  const std::vector<model::Device>& devices = c.report.result.devices.devices();
  const auto device = [&] {
    return devices[static_cast<std::size_t>(
                       rng.uniform_int(0, static_cast<std::int64_t>(devices.size()) - 1))]
        .id;
  };
  const auto minute = [&] {
    return Minutes{rng.uniform_int(1, std::max<std::int64_t>(c.makespan, 2))};
  };
  const auto failures = rng.uniform_int(1, 3);
  for (std::int64_t k = 0; k < failures; ++k) {
    const Minutes at =
        k > 0 && rng.uniform_int(0, 2) == 0 ? runtime.faults.events.back().at : minute();
    runtime.faults.events.push_back(
        sim::FaultEvent{sim::FaultKind::DeviceFailure, device(), OperationId{}, at});
  }
  const std::vector<OperationId> captures = c.assay.indeterminate_operations();
  if (!captures.empty() && rng.uniform_int(0, 3) == 0) {
    sim::FaultEvent exhaust;
    exhaust.kind = sim::FaultKind::AttemptExhaustion;
    exhaust.op = captures[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(captures.size()) - 1))];
    runtime.faults.events.push_back(exhaust);
  }
  if (rng.uniform_int(0, 3) == 0) {
    // Any operation: one that is not indeterminate is never exhausted, so
    // it completes, and later rounds must skip the event.
    sim::FaultEvent exhaust;
    exhaust.kind = sim::FaultKind::AttemptExhaustion;
    exhaust.op = OperationId{static_cast<std::int32_t>(
        rng.uniform_int(0, c.assay.operation_count() - 1))};
    runtime.faults.events.push_back(exhaust);
  }
  if (rng.uniform_int(0, 3) == 0) {
    sim::FaultEvent degrade;
    degrade.kind = sim::FaultKind::Degradation;
    degrade.device = device();
    degrade.factor = 1.5;
    degrade.at = minute();
    runtime.faults.events.push_back(degrade);
  }
  if (rng.uniform_int(0, 3) == 0) {
    sim::FaultEvent delay;
    delay.kind = sim::FaultKind::TransportDelay;
    delay.delay = Minutes{2};
    delay.at = minute();
    runtime.faults.events.push_back(delay);
  }
  return runtime;
}

// --- comparisons -------------------------------------------------------------

void expect_same_residual(const ResidualAssay& got,
                          const oracles::ResidualAssayReference& want,
                          const std::string& context) {
  ASSERT_EQ(got.assay.name(), want.assay.name()) << context;
  ASSERT_EQ(got.assay.operation_count(), want.assay.operation_count()) << context;
  for (const model::Operation& op : got.assay.operations()) {
    const model::Operation& other = want.assay.operation(op.id());
    EXPECT_EQ(op.name(), other.name()) << context;
    EXPECT_EQ(op.container(), other.container()) << context;
    EXPECT_EQ(op.capacity(), other.capacity()) << context;
    EXPECT_EQ(op.accessories(), other.accessories()) << context;
    EXPECT_EQ(op.duration(), other.duration()) << context << " op " << op.id();
    EXPECT_EQ(op.indeterminate(), other.indeterminate()) << context;
    EXPECT_TRUE(std::ranges::equal(op.parents(), other.parents())) << context;
  }

  // Each frame read back as the oracle's map: an entry per key, an invalid
  // id where the map has none.
  ASSERT_EQ(got.to_original.size(), want.to_original.size()) << context;
  for (const auto& [residual_id, original_id] : want.to_original) {
    EXPECT_EQ(got.to_original[residual_id.index()], original_id) << context;
  }
  std::size_t present = 0;
  for (std::size_t k = 0; k < got.from_original.size(); ++k) {
    const auto entry = want.from_original.find(OperationId{static_cast<std::int32_t>(k)});
    if (entry == want.from_original.end()) {
      EXPECT_FALSE(got.from_original[k].valid()) << context << " original " << k;
    } else {
      EXPECT_EQ(got.from_original[k], entry->second) << context << " original " << k;
      ++present;
    }
  }
  EXPECT_EQ(present, want.from_original.size()) << context;
  present = 0;
  for (std::size_t k = 0; k < got.device_map.size(); ++k) {
    const auto entry = want.device_map.find(DeviceId{static_cast<std::int32_t>(k)});
    if (entry == want.device_map.end()) {
      EXPECT_FALSE(got.device_map[k].valid()) << context << " device " << k;
    } else {
      EXPECT_EQ(got.device_map[k], entry->second) << context << " device " << k;
      ++present;
    }
  }
  EXPECT_EQ(present, want.device_map.size()) << context;

  EXPECT_EQ(got.pinned, want.pinned) << context;
  EXPECT_EQ(got.surviving_devices, want.surviving_devices) << context;
}

void expect_same_diagnostics(const std::vector<diag::Diagnostic>& got,
                             const std::vector<diag::Diagnostic>& want,
                             const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].code, want[i].code) << context;
    EXPECT_EQ(got[i].severity, want[i].severity) << context;
    EXPECT_EQ(got[i].message, want[i].message) << context;
    EXPECT_EQ(got[i].fixit, want[i].fixit) << context;
    ASSERT_EQ(got[i].notes.size(), want[i].notes.size()) << context;
    for (std::size_t n = 0; n < got[i].notes.size(); ++n) {
      EXPECT_EQ(got[i].notes[n].message, want[i].notes[n].message) << context;
    }
  }
}

void expect_same_schedule(const schedule::SynthesisResult& got,
                          const schedule::SynthesisResult& want,
                          const std::string& context) {
  ASSERT_EQ(got.layers.size(), want.layers.size()) << context;
  for (std::size_t li = 0; li < got.layers.size(); ++li) {
    const auto& a = got.layers[li].items;
    const auto& b = want.layers[li].items;
    ASSERT_EQ(a.size(), b.size()) << context << " layer " << li;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(a[i].op == b[i].op && a[i].device == b[i].device &&
                  a[i].start == b[i].start && a[i].duration == b[i].duration &&
                  a[i].transport == b[i].transport)
          << context << " layer " << li << " item " << i;
    }
  }
  EXPECT_EQ(got.devices.size(), want.devices.size()) << context;
}

void expect_same_recovery(const RecoveryOutcome& got,
                          const oracles::RecoveryOutcomeReference& want,
                          const std::string& context) {
  EXPECT_EQ(got.recovered, want.recovered) << context;
  expect_same_residual(got.residual, want.residual, context);
  expect_same_diagnostics(got.diagnostics, want.diagnostics, context);
  expect_same_schedule(got.continuation.result, want.continuation.result, context);
}

void expect_same_trace(const sim::RunTrace& got, const sim::RunTrace& want,
                       const std::string& context) {
  EXPECT_EQ(got.outcome, want.outcome) << context;
  EXPECT_EQ(got.completed_at, want.completed_at) << context;
  EXPECT_EQ(got.planned_fixed, want.planned_fixed) << context;
  ASSERT_EQ(got.layers.size(), want.layers.size()) << context;
  for (std::size_t li = 0; li < got.layers.size(); ++li) {
    const sim::LayerTrace& a = got.layers[li];
    const sim::LayerTrace& b = want.layers[li];
    EXPECT_TRUE(a.layer == b.layer && a.start == b.start && a.end == b.end)
        << context << " layer " << li;
    ASSERT_EQ(a.operations.size(), b.operations.size()) << context << " layer " << li;
    for (std::size_t oi = 0; oi < a.operations.size(); ++oi) {
      const sim::OperationTrace& x = a.operations[oi];
      const sim::OperationTrace& y = b.operations[oi];
      EXPECT_TRUE(x.op == y.op && x.device == y.device && x.start == y.start &&
                  x.actual == y.actual && x.attempts == y.attempts)
          << context << " layer " << li << " op " << oi;
    }
  }
  EXPECT_EQ(got.completed, want.completed) << context;
  EXPECT_EQ(got.lost, want.lost) << context;
  ASSERT_EQ(got.in_flight.size(), want.in_flight.size()) << context;
  for (std::size_t i = 0; i < got.in_flight.size(); ++i) {
    const sim::InFlightOperation& x = got.in_flight[i];
    const sim::InFlightOperation& y = want.in_flight[i];
    EXPECT_TRUE(x.op == y.op && x.device == y.device && x.started == y.started &&
                x.elapsed == y.elapsed && x.remaining == y.remaining)
        << context << " in flight " << i;
  }
  ASSERT_EQ(got.failure.has_value(), want.failure.has_value()) << context;
  if (got.failure.has_value()) {
    const sim::RunFailure& a = *got.failure;
    const sim::RunFailure& b = *want.failure;
    EXPECT_TRUE(a.outcome == b.outcome && a.layer == b.layer && a.device == b.device &&
                a.op == b.op && a.at == b.at && a.detail == b.detail)
        << context;
  }
}

void expect_same_mission(const MissionOutcome& got, const MissionOutcome& want,
                         const std::string& context) {
  EXPECT_EQ(got.recovered, want.recovered) << context;
  EXPECT_EQ(got.degraded, want.degraded) << context;
  EXPECT_EQ(got.rounds, want.rounds) << context;
  EXPECT_EQ(got.completed_at, want.completed_at) << context;
  EXPECT_EQ(got.credit_carried, want.credit_carried) << context;
  ASSERT_EQ(got.round_log.size(), want.round_log.size()) << context;
  for (std::size_t r = 0; r < got.round_log.size(); ++r) {
    const MissionRound& a = got.round_log[r];
    const MissionRound& b = want.round_log[r];
    EXPECT_TRUE(a.break_at == b.break_at && a.outcome == b.outcome &&
                a.failed_device == b.failed_device && a.pinned_ops == b.pinned_ops &&
                a.credit == b.credit && a.degraded == b.degraded &&
                a.recovered == b.recovered)
        << context << " round " << r;
  }
  EXPECT_EQ(got.fault_chain, want.fault_chain) << context;
  expect_same_trace(got.final_trace, want.final_trace, context);
  expect_same_diagnostics(got.diagnostics, want.diagnostics, context);
}

// --- residuals -----------------------------------------------------------------

/// What one case's residual comparisons covered.
struct ResidualCoverage {
  int broken = 0;
  int pinned = 0;
  int carried_pins = 0;
  int struck = 0;
};

/// Breaks `c` under a few seeded plans and compares build_residual and
/// recover with their oracles: bare, and re-entrant with a carry and extra
/// struck devices the way a mission's later round would pass them.
void expect_residuals_match(const Case& c, std::uint64_t seeds, bool recover_too,
                            ResidualCoverage& coverage) {
  const std::vector<model::Device>& devices = c.report.result.devices.devices();
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const std::string context = c.name + " seed " + std::to_string(seed);
    const sim::RuntimeOptions runtime = random_plan(c, seed);
    const sim::RunTrace trace = sim::simulate_run(c.report.result, c.assay, runtime);
    if (trace.ok()) {
      continue;
    }
    ++coverage.broken;

    expect_same_residual(build_residual(c.assay, c.report.result, trace),
                         oracles::build_residual_reference(c.assay, c.report.result, trace),
                         context);

    // A later round's view: every other device the plan fails by the break
    // is struck, plus one more; every outstanding operation carries a pin
    // on some device, dead or alive, and a root duration longer than its
    // own.
    Rng rng(derive_stream_seed(seed, 0x4341525259ULL, 0));  // "CARRY"
    std::set<DeviceId> also_failed;
    for (const sim::FaultEvent& event : runtime.faults.events) {
      if (event.kind == sim::FaultKind::DeviceFailure && event.at <= trace.failure->at &&
          event.device != trace.failure->device) {
        also_failed.insert(event.device);
      }
    }
    also_failed.insert(devices[static_cast<std::size_t>(rng.uniform_int(
                                   0, static_cast<std::int64_t>(devices.size()) - 1))]
                           .id);
    const std::set<OperationId> completed(trace.completed.begin(), trace.completed.end());
    RecoveryCarry carry;
    for (const model::Operation& op : c.assay.operations()) {
      if (completed.count(op.id()) == 0 && rng.uniform_int(0, 1) == 0) {
        const DeviceId held = devices[static_cast<std::size_t>(rng.uniform_int(
                                          0, static_cast<std::int64_t>(devices.size()) - 1))]
                                  .id;
        carry.emplace(op.id(), CarriedPin{held, op.duration() + Minutes{3}});
      }
    }
    coverage.struck += static_cast<int>(also_failed.size());
    coverage.carried_pins += static_cast<int>(carry.size());
    const ResidualAssay reentrant =
        build_residual(c.assay, c.report.result, trace, carry, also_failed);
    coverage.pinned += static_cast<int>(reentrant.pinned.size());
    expect_same_residual(reentrant,
                         oracles::build_residual_reference(c.assay, c.report.result, trace,
                                                           carry, also_failed),
                         context + " re-entrant");

    if (recover_too) {
      expect_same_recovery(
          recover(c.assay, c.report.result, trace, c.options),
          oracles::recover_reference(c.assay, c.report.result, trace, c.options), context);
      expect_same_recovery(
          recover(c.assay, c.report.result, trace, c.options, carry, also_failed),
          oracles::recover_reference(c.assay, c.report.result, trace, c.options, carry,
                                     also_failed),
          context + " re-entrant");
    }
  }
}

TEST(ResidualReference, ProtocolsMatchTheMapBasedOracle) {
  ResidualCoverage coverage;
  for (const Case& c : protocol_cases()) {
    expect_residuals_match(c, 8, true, coverage);
  }
  EXPECT_GT(coverage.broken, 0);
  EXPECT_GT(coverage.pinned, 0);
  EXPECT_GT(coverage.carried_pins, 0);
}

TEST(ResidualReference, RandomAssaysMatchTheMapBasedOracle) {
  ResidualCoverage coverage;
  for (int seed = 0; seed < kRandomCases; ++seed) {
    expect_residuals_match(random_case(seed), 4, seed % 4 == 0, coverage);
  }
  EXPECT_GT(coverage.broken, kRandomCases);
  EXPECT_GT(coverage.pinned, 0);
  EXPECT_GT(coverage.carried_pins, 0);
  EXPECT_GT(coverage.struck, 0);
}

// --- missions ------------------------------------------------------------------

/// What one sweep of mission comparisons covered.
struct MissionCoverage {
  int missions = 0;
  int multi_round = 0;
  int rebroken = 0;  ///< missions whose continuation broke again
  int frozen = 0;
  int struck = 0;  ///< missions whose chain holds more faults than breaks
  int pinned = 0;  ///< missions with a round that pinned in-flight work
};

void expect_mission_matches(const Case& c, const sim::RuntimeOptions& runtime,
                            const MissionOptions& mission, const std::string& context,
                            MissionCoverage& coverage) {
  const MissionOutcome got = run_mission(c.assay, c.report.result, runtime, mission);
  const MissionOutcome want =
      oracles::run_mission_reference(c.assay, c.report.result, runtime, mission);
  expect_same_mission(got, want, context);
  ++coverage.missions;
  coverage.multi_round += got.rounds >= 2 ? 1 : 0;
  coverage.rebroken += got.round_log.size() >= 2 ? 1 : 0;
  coverage.frozen += got.recovered ? 0 : 1;
  coverage.struck += got.fault_chain.size() > got.round_log.size() ? 1 : 0;
  coverage.pinned +=
      std::any_of(got.round_log.begin(), got.round_log.end(),
                  [](const MissionRound& round) { return round.pinned_ops > 0; })
          ? 1
          : 0;
}

/// Seeded plans at 1-3 rounds, every third one with a hazard model
/// re-sampled each round.
void sweep_missions(const Case& c, std::uint64_t seeds, MissionCoverage& coverage) {
  const sim::HazardModel hazard = sim::parse_hazard_spec("exp:400", c.assay.registry());
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    MissionOptions mission;
    mission.synthesis = c.options;
    mission.max_rounds = 1 + static_cast<int>(seed % 3);
    if (seed % 3 == 0) {
      mission.hazard = &hazard;
      mission.hazard_seed = seed;
      mission.hazard_run = seed * 7;
    }
    expect_mission_matches(c, random_plan(c, seed), mission,
                           c.name + " seed " + std::to_string(seed), coverage);
  }
}

TEST(MissionReference, ProtocolsMatchTheMapBasedOracle) {
  MissionCoverage coverage;
  for (const Case& c : protocol_cases()) {
    sweep_missions(c, 9, coverage);
  }
  EXPECT_GT(coverage.multi_round, 0);
  EXPECT_GT(coverage.pinned, 0);
}

TEST(MissionReference, RandomAssaysMatchTheMapBasedOracle) {
  MissionCoverage coverage;
  for (int seed = 0; seed < kRandomCases; ++seed) {
    sweep_missions(random_case(seed), 3, coverage);
  }
  EXPECT_EQ(coverage.missions, 3 * kRandomCases);
  EXPECT_GT(coverage.multi_round, 0);
  EXPECT_GT(coverage.frozen, 0);
  EXPECT_GT(coverage.struck, 0);
  EXPECT_GT(coverage.pinned, 0);
}

TEST(MissionReference, PinnedDeviceDeathMatchesTheMapBasedOracle) {
  // A first-layer device dies halfway through one of its operations, which
  // pins the work running beside it; one minute later each pinned
  // operation's device dies in turn, so the carried credit is lost.
  MissionCoverage coverage;
  int pinned_deaths = 0;
  for (const Case& c : protocol_cases()) {
    for (const schedule::ScheduledOperation& item : c.report.result.layers.front().items) {
      sim::RuntimeOptions runtime;
      runtime.attempt_success_probability = 1.0;
      const Minutes at = item.start + Minutes{std::max<std::int64_t>(item.duration.count() / 2, 1)};
      runtime.faults.events.push_back(
          sim::FaultEvent{sim::FaultKind::DeviceFailure, item.device, OperationId{}, at});
      const sim::RunTrace first = sim::simulate_run(c.report.result, c.assay, runtime);
      for (const sim::InFlightOperation& running : first.in_flight) {
        sim::RuntimeOptions chained = runtime;
        chained.faults.events.push_back(sim::FaultEvent{
            sim::FaultKind::DeviceFailure, running.device, OperationId{}, at + Minutes{1}});
        for (const int rounds : {1, 2, 3}) {
          MissionOptions mission;
          mission.synthesis = c.options;
          mission.max_rounds = rounds;
          expect_mission_matches(
              c, chained, mission,
              c.name + " pinned op " + std::to_string(running.op.value()), coverage);
        }
        ++pinned_deaths;
      }
    }
  }
  EXPECT_GT(pinned_deaths, 0);
  EXPECT_GT(coverage.rebroken, 0);
}

TEST(MissionReference, ExhaustionsOfCompletedOperationsMatchTheMapBasedOracle) {
  // A plan may name an operation that is not indeterminate: the replay
  // never exhausts it, it completes, and once a recovery round has dropped
  // it every later round must skip the event instead of translating it.
  // The sharpest case names a completed operation whose id the residual
  // gives to a capture: translated by mistake, the event would exhaust it.
  MissionCoverage coverage;
  int sharp = 0;
  for (int seed = 0; seed < kRandomCases; ++seed) {
    const Case c = random_case(seed);
    MissionOptions mission;
    mission.synthesis = c.options;
    mission.max_rounds = 2;
    sim::RuntimeOptions healthy;
    healthy.attempt_success_probability = 1.0;
    healthy.max_attempts = 3;
    const sim::RunTrace windows = sim::simulate_run(c.report.result, c.assay, healthy);
    for (const sim::LayerTrace& layer : windows.layers) {
      for (const sim::OperationTrace& window : layer.operations) {
        sim::RuntimeOptions runtime = healthy;
        runtime.faults.events.push_back(
            sim::FaultEvent{sim::FaultKind::DeviceFailure, window.device, OperationId{},
                            window.start + Minutes{std::max<std::int64_t>(
                                               window.actual.count() / 2, 1)}});
        const sim::RunTrace first = sim::simulate_run(c.report.result, c.assay, runtime);
        if (first.ok()) {
          continue;
        }
        const oracles::ResidualAssayReference residual =
            oracles::build_residual_reference(c.assay, c.report.result, first);
        for (const OperationId done : first.completed) {
          if (done.value() >= residual.assay.operation_count() ||
              !residual.assay.operation(done).indeterminate()) {
            continue;
          }
          sim::RuntimeOptions named = runtime;
          sim::FaultEvent exhaust;
          exhaust.kind = sim::FaultKind::AttemptExhaustion;
          exhaust.op = done;
          named.faults.events.push_back(exhaust);
          expect_mission_matches(c, named, mission,
                                 c.name + " exhaust " + std::to_string(done.value()),
                                 coverage);
          ++sharp;
        }
      }
    }
  }
  EXPECT_GT(sharp, 0);
  EXPECT_GT(coverage.multi_round + coverage.rebroken, 0);
}

TEST(MissionReference, FleetMissionProbeMatchesTheMapBasedOracle) {
  // The probe the batch engine wires into a fleet: every broken run
  // re-enters the mission loop with the fleet's own hazard streams.
  const Case c = protocol_cases()[1];
  const sim::HazardModel hazard = sim::parse_hazard_spec("exp:400", c.assay.registry());
  MissionCoverage coverage;
  sim::FleetOptions fleet;
  fleet.runs = 48;
  fleet.seed = 5;
  fleet.hazard = hazard;
  fleet.mission = [&](const sim::RunTrace&, const sim::RuntimeOptions& runtime,
                      std::uint64_t run) {
    MissionOptions mission;
    mission.synthesis = c.options;
    mission.synthesis.engine.enable_ilp = false;
    mission.max_rounds = 3;
    mission.hazard = &hazard;
    mission.hazard_seed = fleet.seed;
    mission.hazard_run = run;
    expect_mission_matches(c, runtime, mission, "fleet run " + std::to_string(run),
                           coverage);
    return sim::MissionReport{};
  };
  (void)sim::run_fleet(c.report.result, c.assay, fleet);
  EXPECT_GT(coverage.missions, 0);
}

}  // namespace
}  // namespace cohls::core
