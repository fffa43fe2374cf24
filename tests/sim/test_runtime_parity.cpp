// Differential parity: the break-scan replay (simulate_run) must produce
// bit-identical RunTraces to the original three-pass implementation
// (oracles::simulate_run_reference, tests/support) across the randomized
// fault-sweep corpus — every protocol x device x layer boundary x seed —
// plus exhaustion, degradation, transport and hazard-sampled plans, and
// failures tying with each other or with an exhaustion at one minute. Any
// divergence in any field, down to the failure detail string, is a bug in
// the replay.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "sim/faults.hpp"
#include "sim/hazard.hpp"
#include "sim/runtime.hpp"
#include "support/runtime_reference.hpp"

namespace cohls {
namespace {

struct Protocol {
  std::string name;
  model::Assay assay;
};

std::vector<Protocol> protocols() {
  std::vector<Protocol> list;
  list.push_back({"kinase-activity", assays::kinase_activity_assay(2)});
  list.push_back({"gene-expression", assays::gene_expression_assay(3)});
  list.push_back({"rt-qpcr", assays::rt_qpcr_assay(3)});
  return list;
}

core::SynthesisOptions sweep_options() {
  core::SynthesisOptions options;
  options.max_devices = 12;
  options.layering.indeterminate_threshold = 3;
  return options;
}

void expect_identical(const sim::RunTrace& replay, const sim::RunTrace& reference,
                      const std::string& context) {
  ASSERT_EQ(replay.outcome, reference.outcome) << context;
  ASSERT_EQ(replay.completed_at, reference.completed_at) << context;
  ASSERT_EQ(replay.planned_fixed, reference.planned_fixed) << context;

  ASSERT_EQ(replay.layers.size(), reference.layers.size()) << context;
  for (std::size_t li = 0; li < replay.layers.size(); ++li) {
    const sim::LayerTrace& a = replay.layers[li];
    const sim::LayerTrace& b = reference.layers[li];
    ASSERT_EQ(a.layer, b.layer) << context << " layer " << li;
    ASSERT_EQ(a.start, b.start) << context << " layer " << li;
    ASSERT_EQ(a.end, b.end) << context << " layer " << li;
    ASSERT_EQ(a.operations.size(), b.operations.size()) << context << " layer " << li;
    for (std::size_t oi = 0; oi < a.operations.size(); ++oi) {
      const sim::OperationTrace& x = a.operations[oi];
      const sim::OperationTrace& y = b.operations[oi];
      ASSERT_EQ(x.op, y.op) << context;
      ASSERT_EQ(x.device, y.device) << context;
      ASSERT_EQ(x.start, y.start) << context;
      ASSERT_EQ(x.actual, y.actual) << context;
      ASSERT_EQ(x.attempts, y.attempts) << context;
    }
  }

  ASSERT_EQ(replay.completed, reference.completed) << context;
  ASSERT_EQ(replay.lost, reference.lost) << context;
  ASSERT_EQ(replay.in_flight.size(), reference.in_flight.size()) << context;
  for (std::size_t i = 0; i < replay.in_flight.size(); ++i) {
    const sim::InFlightOperation& x = replay.in_flight[i];
    const sim::InFlightOperation& y = reference.in_flight[i];
    ASSERT_EQ(x.op, y.op) << context;
    ASSERT_EQ(x.device, y.device) << context;
    ASSERT_EQ(x.started, y.started) << context;
    ASSERT_EQ(x.elapsed, y.elapsed) << context;
    ASSERT_EQ(x.remaining, y.remaining) << context;
  }

  ASSERT_EQ(replay.failure.has_value(), reference.failure.has_value()) << context;
  if (replay.failure.has_value()) {
    const sim::RunFailure& a = *replay.failure;
    const sim::RunFailure& b = *reference.failure;
    ASSERT_EQ(a.outcome, b.outcome) << context;
    ASSERT_EQ(a.layer, b.layer) << context;
    ASSERT_EQ(a.device, b.device) << context;
    ASSERT_EQ(a.op, b.op) << context;
    ASSERT_EQ(a.at, b.at) << context;
    ASSERT_EQ(a.detail, b.detail) << context;
  }
}

void expect_parity(const schedule::SynthesisResult& result, const model::Assay& assay,
                   const sim::RuntimeOptions& options, const std::string& context) {
  const sim::RunTrace replay = sim::simulate_run(result, assay, options);
  const sim::RunTrace reference = oracles::simulate_run_reference(result, assay, options);
  expect_identical(replay, reference, context);
}

TEST(RuntimeParity, FaultSweepCorpusIsBitIdentical) {
  const core::SynthesisOptions options = sweep_options();
  int broken = 0;
  for (const Protocol& protocol : protocols()) {
    const core::SynthesisReport report = core::synthesize(protocol.assay, options);
    ASSERT_FALSE(report.result.layers.empty()) << protocol.name;

    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      sim::RuntimeOptions healthy;
      healthy.seed = seed;
      const sim::RunTrace base =
          oracles::simulate_run_reference(report.result, protocol.assay, healthy);
      ASSERT_TRUE(base.ok());
      expect_parity(report.result, protocol.assay, healthy,
                    protocol.name + " healthy seed " + std::to_string(seed));

      std::set<Minutes> boundaries;
      for (const sim::LayerTrace& layer : base.layers) {
        boundaries.insert(layer.start);
      }
      for (const model::Device& device : report.result.devices.devices()) {
        for (const Minutes when : boundaries) {
          sim::RuntimeOptions runtime;
          runtime.seed = seed;
          runtime.faults.events.push_back(sim::FaultEvent{
              sim::FaultKind::DeviceFailure, device.id, OperationId{}, when});
          std::ostringstream context;
          context << protocol.name << " device " << device.id.value() << " at "
                  << when.count() << " seed " << seed;
          const sim::RunTrace reference =
              oracles::simulate_run_reference(report.result, protocol.assay, runtime);
          const sim::RunTrace replay =
              sim::simulate_run(report.result, protocol.assay, runtime);
          expect_identical(replay, reference, context.str());
          if (!reference.ok()) {
            ++broken;
          }
        }
      }
    }
  }
  EXPECT_GT(broken, 10);  // the corpus must actually exercise break paths
}

TEST(RuntimeParity, ExhaustionAtEveryIndeterminateOp) {
  const core::SynthesisOptions options = sweep_options();
  const Protocol protocol{"gene-expression", assays::gene_expression_assay(3)};
  const core::SynthesisReport report = core::synthesize(protocol.assay, options);

  for (const OperationId op : protocol.assay.indeterminate_operations()) {
    sim::RuntimeOptions runtime;
    runtime.attempt_success_probability = 1.0;  // only the script fails
    sim::FaultEvent exhaust;
    exhaust.kind = sim::FaultKind::AttemptExhaustion;
    exhaust.op = op;
    runtime.faults.events.push_back(exhaust);
    expect_parity(report.result, protocol.assay, runtime,
                  "exhaust op " + std::to_string(op.value()));
  }
}

TEST(RuntimeParity, DegradationTransportAndCombinedPlans) {
  const core::SynthesisOptions options = sweep_options();
  const Protocol protocol{"rt-qpcr", assays::rt_qpcr_assay(3)};
  const core::SynthesisReport report = core::synthesize(protocol.assay, options);
  const std::vector<model::Device>& devices = report.result.devices.devices();
  ASSERT_FALSE(devices.empty());

  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    sim::RuntimeOptions runtime;
    runtime.seed = seed;
    sim::FaultEvent degrade;
    degrade.kind = sim::FaultKind::Degradation;
    degrade.device = devices[seed % devices.size()].id;
    degrade.factor = 1.5;
    runtime.faults.events.push_back(degrade);
    sim::FaultEvent transport;
    transport.kind = sim::FaultKind::TransportDelay;
    transport.delay = Minutes{3};
    transport.at = Minutes{10};
    runtime.faults.events.push_back(transport);
    // A late failure on top: layer spans already shifted by the above.
    sim::FaultEvent fail;
    fail.kind = sim::FaultKind::DeviceFailure;
    fail.device = devices[(seed + 1) % devices.size()].id;
    fail.at = Minutes{40};
    runtime.faults.events.push_back(fail);
    expect_parity(report.result, protocol.assay, runtime,
                  "combined plan seed " + std::to_string(seed));
  }
}

TEST(RuntimeParity, HazardSampledPlans) {
  const core::SynthesisOptions options = sweep_options();
  const Protocol protocol{"gene-expression", assays::gene_expression_assay(3)};
  const core::SynthesisReport report = core::synthesize(protocol.assay, options);
  const sim::HazardModel hazard =
      sim::parse_hazard_spec("exp:300", protocol.assay.registry());

  // At two attempts checks run out often, so exhaustions race the failures.
  int exhausted = 0;
  for (const int max_attempts : {1000, 2}) {
    for (std::uint64_t run = 0; run < 32; ++run) {
      sim::RuntimeOptions runtime;
      runtime.seed = run + 1;
      runtime.max_attempts = max_attempts;
      hazard.sample_into(runtime.faults, report.result.devices, 42, run,
                         Minutes{1'000'000});
      expect_parity(report.result, protocol.assay, runtime,
                    "hazard run " + std::to_string(run) + " max_attempts " +
                        std::to_string(max_attempts));
      exhausted += sim::simulate_run(report.result, protocol.assay, runtime).outcome ==
                           sim::RunOutcome::AttemptsExhausted
                       ? 1
                       : 0;
    }
  }
  EXPECT_GT(exhausted, 0);
}

TEST(RuntimeParity, SimultaneousFailuresTieBreakLikeTheReference) {
  const core::SynthesisOptions options = sweep_options();
  const Protocol protocol{"kinase-activity", assays::kinase_activity_assay(2)};
  const core::SynthesisReport report = core::synthesize(protocol.assay, options);
  const std::vector<model::Device>& devices = report.result.devices.devices();
  ASSERT_GE(devices.size(), 2u);

  // Two devices die the same minute (in both registration orders): the
  // lower device id must win, as in Break::beats. Ties with an exhaustion
  // are covered by the two tests below.
  for (const bool swapped : {false, true}) {
    sim::RuntimeOptions runtime;
    runtime.seed = 5;
    sim::FaultEvent a;
    a.kind = sim::FaultKind::DeviceFailure;
    a.device = devices[swapped ? 1 : 0].id;
    a.at = Minutes{5};
    sim::FaultEvent b = a;
    b.device = devices[swapped ? 0 : 1].id;
    runtime.faults.events.push_back(a);
    runtime.faults.events.push_back(b);
    expect_parity(report.result, protocol.assay, runtime,
                  std::string("simultaneous failures swapped=") +
                      (swapped ? "true" : "false"));
  }
}

/// A plan that exhausts `op` and fails `device` at `at`, in either order.
sim::RuntimeOptions exhaustion_and_failure(OperationId op, DeviceId device, Minutes at,
                                           int max_attempts, bool failure_first) {
  sim::RuntimeOptions runtime;
  runtime.attempt_success_probability = 1.0;  // only the script fails
  runtime.max_attempts = max_attempts;
  sim::FaultEvent exhaust;
  exhaust.kind = sim::FaultKind::AttemptExhaustion;
  exhaust.op = op;
  const sim::FaultEvent fail{sim::FaultKind::DeviceFailure, device, OperationId{}, at};
  runtime.faults.events.push_back(failure_first ? fail : exhaust);
  runtime.faults.events.push_back(failure_first ? exhaust : fail);
  return runtime;
}

TEST(RuntimeParity, FailureBeatsAnExhaustionAtTheSameMinute) {
  const core::SynthesisOptions options = sweep_options();
  constexpr int kMaxAttempts = 3;

  int failure_won = 0;
  for (const Protocol& protocol : protocols()) {
    const core::SynthesisReport report = core::synthesize(protocol.assay, options);
    for (const OperationId op : protocol.assay.indeterminate_operations()) {
      // The exhaustion's break minute, taken from the reference replay of
      // the exhaustion alone.
      sim::RuntimeOptions alone;
      alone.attempt_success_probability = 1.0;
      alone.max_attempts = kMaxAttempts;
      sim::FaultEvent exhaust;
      exhaust.kind = sim::FaultKind::AttemptExhaustion;
      exhaust.op = op;
      alone.faults.events.push_back(exhaust);
      const sim::RunTrace base =
          oracles::simulate_run_reference(report.result, protocol.assay, alone);
      ASSERT_EQ(base.outcome, sim::RunOutcome::AttemptsExhausted);
      const Minutes at = base.failure->at;

      for (const model::Device& device : report.result.devices.devices()) {
        for (const bool failure_first : {false, true}) {
          const sim::RuntimeOptions runtime =
              exhaustion_and_failure(op, device.id, at, kMaxAttempts, failure_first);
          std::ostringstream context;
          context << protocol.name << " exhaust op " << op.value() << " + device "
                  << device.id.value() << " at " << at.count()
                  << " failure_first=" << failure_first;
          const sim::RunTrace reference =
              oracles::simulate_run_reference(report.result, protocol.assay, runtime);
          expect_parity(report.result, protocol.assay, runtime, context.str());
          ASSERT_EQ(reference.failure->at, at) << context.str();
          if (reference.outcome == sim::RunOutcome::DeviceFailed) {
            ++failure_won;
          }
        }
      }
    }
  }
  // A failure on a device with unfinished work must win the tie.
  EXPECT_GT(failure_won, 0);
}

TEST(RuntimeParity, FailureAndExhaustionOnALayerBoundary) {
  const core::SynthesisOptions options = sweep_options();
  // Enough attempts that the exhausted operation outlasts every other one
  // in its layer, so its completion is the layer's end.
  constexpr int kMaxAttempts = 50;

  int next_layer_breaks = 0;
  for (const Protocol& protocol : protocols()) {
    const core::SynthesisReport report = core::synthesize(protocol.assay, options);
    sim::RuntimeOptions healthy;
    healthy.attempt_success_probability = 1.0;
    const sim::RunTrace base =
        oracles::simulate_run_reference(report.result, protocol.assay, healthy);
    ASSERT_TRUE(base.ok());

    for (std::size_t li = 0; li < base.layers.size(); ++li) {
      const sim::LayerTrace& layer = base.layers[li];
      for (const sim::OperationTrace& item : layer.operations) {
        if (!protocol.assay.operation(item.op).indeterminate()) {
          continue;
        }
        const Minutes at = item.start + kMaxAttempts * item.actual;
        bool dominates = true;
        for (const sim::OperationTrace& other : layer.operations) {
          dominates = dominates && other.start + other.actual <= at;
        }
        if (!dominates) {
          continue;
        }
        for (const model::Device& device : report.result.devices.devices()) {
          for (const bool failure_first : {false, true}) {
            const sim::RuntimeOptions runtime = exhaustion_and_failure(
                item.op, device.id, at, kMaxAttempts, failure_first);
            std::ostringstream context;
            context << protocol.name << " layer " << li << " exhaust op "
                    << item.op.value() << " + device " << device.id.value() << " at "
                    << at.count() << " failure_first=" << failure_first;
            const sim::RunTrace reference =
                oracles::simulate_run_reference(report.result, protocol.assay, runtime);
            expect_parity(report.result, protocol.assay, runtime, context.str());
            ASSERT_EQ(reference.failure->at, at) << context.str();
            if (reference.outcome == sim::RunOutcome::DeviceFailed &&
                li + 1 < base.layers.size()) {
              // A failure that wins on a non-final boundary belongs to the
              // layer about to run.
              ASSERT_EQ(reference.failure->layer, base.layers[li + 1].layer)
                  << context.str();
              ++next_layer_breaks;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(next_layer_breaks, 0);
}

}  // namespace
}  // namespace cohls
