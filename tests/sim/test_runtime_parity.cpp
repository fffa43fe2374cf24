// Differential parity: the event-wheel replay (simulate_run) must produce
// bit-identical RunTraces to the original three-pass implementation
// (oracles::simulate_run_reference, tests/support) across the randomized
// fault-sweep corpus — every protocol x device x layer boundary x seed —
// plus exhaustion, degradation, transport and hazard-sampled plans. Any
// divergence in any field, down to the failure detail string, is a bug in
// the wheel replay.
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

void expect_identical(const sim::RunTrace& wheel, const sim::RunTrace& reference,
                      const std::string& context) {
  ASSERT_EQ(wheel.outcome, reference.outcome) << context;
  ASSERT_EQ(wheel.completed_at, reference.completed_at) << context;
  ASSERT_EQ(wheel.planned_fixed, reference.planned_fixed) << context;

  ASSERT_EQ(wheel.layers.size(), reference.layers.size()) << context;
  for (std::size_t li = 0; li < wheel.layers.size(); ++li) {
    const sim::LayerTrace& a = wheel.layers[li];
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

  ASSERT_EQ(wheel.completed, reference.completed) << context;
  ASSERT_EQ(wheel.lost, reference.lost) << context;
  ASSERT_EQ(wheel.in_flight.size(), reference.in_flight.size()) << context;
  for (std::size_t i = 0; i < wheel.in_flight.size(); ++i) {
    const sim::InFlightOperation& x = wheel.in_flight[i];
    const sim::InFlightOperation& y = reference.in_flight[i];
    ASSERT_EQ(x.op, y.op) << context;
    ASSERT_EQ(x.device, y.device) << context;
    ASSERT_EQ(x.started, y.started) << context;
    ASSERT_EQ(x.elapsed, y.elapsed) << context;
    ASSERT_EQ(x.remaining, y.remaining) << context;
  }

  ASSERT_EQ(wheel.failure.has_value(), reference.failure.has_value()) << context;
  if (wheel.failure.has_value()) {
    const sim::RunFailure& a = *wheel.failure;
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
  const sim::RunTrace wheel = sim::simulate_run(result, assay, options);
  const sim::RunTrace reference = oracles::simulate_run_reference(result, assay, options);
  expect_identical(wheel, reference, context);
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
          const sim::RunTrace wheel =
              sim::simulate_run(report.result, protocol.assay, runtime);
          expect_identical(wheel, reference, context.str());
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

  for (std::uint64_t run = 0; run < 32; ++run) {
    sim::RuntimeOptions runtime;
    runtime.seed = run + 1;
    hazard.sample_into(runtime.faults, report.result.devices, 42, run,
                       Minutes{1'000'000});
    expect_parity(report.result, protocol.assay, runtime,
                  "hazard run " + std::to_string(run));
  }
}

TEST(RuntimeParity, SimultaneousFailuresTieBreakLikeTheReference) {
  const core::SynthesisOptions options = sweep_options();
  const Protocol protocol{"kinase-activity", assays::kinase_activity_assay(2)};
  const core::SynthesisReport report = core::synthesize(protocol.assay, options);
  const std::vector<model::Device>& devices = report.result.devices.devices();
  ASSERT_GE(devices.size(), 2u);

  // Two devices die the same minute (in both registration orders), plus an
  // exhaustion landing nearby: the drain order must reproduce Break::beats.
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

}  // namespace
}  // namespace cohls
