#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "sim/runtime.hpp"

namespace cohls::sim {
namespace {

struct Fixture {
  model::Assay assay = assays::gene_expression_assay(3);
  core::SynthesisReport report;

  Fixture() {
    core::SynthesisOptions options;
    options.max_devices = 12;
    options.layering.indeterminate_threshold = 3;
    report = core::synthesize(assay, options);
  }
};

TEST(FaultPlan, ParsesEveryDirective) {
  const FaultPlan plan = parse_fault_plan(
      "# a comment\n"
      "\n"
      "device-fail 2 at 30\n"
      "degrade 1 by 1.5 from 10\n"
      "degrade 1 by 2\n"
      "exhaust 7\n"
      "transport-delay 3 from 45\n");
  ASSERT_EQ(plan.events.size(), 5u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::DeviceFailure);
  EXPECT_EQ(plan.events[0].device, DeviceId{2});
  EXPECT_EQ(plan.events[0].at, 30_min);
  EXPECT_EQ(plan.events[1].kind, FaultKind::Degradation);
  EXPECT_DOUBLE_EQ(plan.events[1].factor, 1.5);
  EXPECT_EQ(plan.events[1].at, 10_min);
  EXPECT_EQ(plan.events[2].at, 0_min);
  EXPECT_EQ(plan.events[3].kind, FaultKind::AttemptExhaustion);
  EXPECT_EQ(plan.events[3].op, OperationId{7});
  EXPECT_EQ(plan.events[4].kind, FaultKind::TransportDelay);
  EXPECT_EQ(plan.events[4].delay, 3_min);
}

TEST(FaultPlan, TextRoundTrips) {
  const FaultPlan plan = parse_fault_plan(
      "device-fail 2 at 30\n"
      "degrade 1 by 1.5 from 10\n"
      "exhaust 7\n"
      "transport-delay 3 from 45\n");
  const FaultPlan again = parse_fault_plan(to_text(plan));
  EXPECT_EQ(plan.events, again.events);
}

TEST(FaultPlan, RejectsMalformedDirectivesWithLineNumbers) {
  const auto line_of = [](const std::string& text) {
    try {
      (void)parse_fault_plan(text);
    } catch (const FaultPlanError& e) {
      return e.line();
    }
    return -1;
  };
  EXPECT_EQ(line_of("frobnicate 1\n"), 1);
  EXPECT_EQ(line_of("# fine\ndevice-fail 1\n"), 2);
  EXPECT_EQ(line_of("device-fail -1 at 5\n"), 1);
  EXPECT_EQ(line_of("degrade 0 by 0.5\n"), 1);       // factor < 1
  EXPECT_EQ(line_of("device-fail 0 at -3\n"), 1);    // negative time
  EXPECT_EQ(line_of("exhaust many\n"), 1);           // not a number
  EXPECT_EQ(line_of("device-fail 0 at 5 extra\n"), 1);
  EXPECT_EQ(line_of("degrade 0 by nan\n"), 1);       // non-finite factor
  EXPECT_EQ(line_of("degrade 0 by inf\n"), 1);
  EXPECT_EQ(line_of("\ndevice-fail 4294967296 at 5\n"), 2);  // id above INT32_MAX
  EXPECT_EQ(line_of("exhaust 4294967297\n"), 1);
}

TEST(FaultPlan, HelpersAggregateActiveEvents) {
  const FaultPlan plan = parse_fault_plan(
      "degrade 1 by 1.5\n"
      "degrade 1 by 2 from 50\n"
      "transport-delay 3\n"
      "transport-delay 4 from 100\n");
  EXPECT_DOUBLE_EQ(plan.degradation_factor(DeviceId{1}, 0_min), 1.5);
  EXPECT_DOUBLE_EQ(plan.degradation_factor(DeviceId{1}, 60_min), 3.0);
  EXPECT_DOUBLE_EQ(plan.degradation_factor(DeviceId{0}, 60_min), 1.0);
  EXPECT_EQ(plan.transport_delay(0_min), 3_min);
  EXPECT_EQ(plan.transport_delay(100_min), 7_min);
  EXPECT_FALSE(plan.exhausts(OperationId{0}));
}

TEST(FaultInjection, DeviceFailureBreaksTheRunAndClassifiesOperations) {
  const Fixture f;
  // Fail the first device that has work scheduled on it, mid-run.
  const DeviceId victim = f.report.result.layers.front().items.front().device;
  RuntimeOptions options;
  options.attempt_success_probability = 1.0;
  options.faults.events.push_back(
      FaultEvent{FaultKind::DeviceFailure, victim, OperationId{}, 1_min});
  const RunTrace trace = simulate_run(f.report.result, f.assay, options);

  EXPECT_FALSE(trace.ok());
  EXPECT_EQ(trace.outcome, RunOutcome::DeviceFailed);
  ASSERT_TRUE(trace.failure.has_value());
  EXPECT_EQ(trace.failure->device, victim);
  EXPECT_EQ(trace.failure->at, 1_min);

  // Classification is a partition: no operation is both completed and lost
  // or in flight, in-flight operations sit on surviving devices, and
  // everything stranded on the victim is lost.
  for (const InFlightOperation& running : trace.in_flight) {
    EXPECT_NE(running.device, victim);
    EXPECT_GT(running.remaining, 0_min);
    EXPECT_GE(running.elapsed, 0_min);
    for (const OperationId done : trace.completed) {
      EXPECT_NE(done, running.op);
    }
  }
  for (const OperationId gone : trace.lost) {
    for (const OperationId done : trace.completed) {
      EXPECT_NE(done, gone);
    }
  }
}

TEST(FaultInjection, DegradationInflatesDurations) {
  const Fixture f;
  RuntimeOptions healthy;
  healthy.attempt_success_probability = 1.0;
  const RunTrace base = simulate_run(f.report.result, f.assay, healthy);

  RuntimeOptions slowed = healthy;
  for (const model::Device& device : f.report.result.devices.devices()) {
    slowed.faults.events.push_back(
        FaultEvent{FaultKind::Degradation, device.id, OperationId{}, 0_min, 2.0});
  }
  const RunTrace degraded = simulate_run(f.report.result, f.assay, slowed);
  ASSERT_TRUE(degraded.ok());
  // Every realized duration doubles (planned start offsets within a layer
  // do not scale, so the total stretches but is not exactly 2x).
  EXPECT_GT(degraded.completed_at, base.completed_at);
  ASSERT_EQ(degraded.layers.size(), base.layers.size());
  for (std::size_t li = 0; li < degraded.layers.size(); ++li) {
    ASSERT_EQ(degraded.layers[li].operations.size(),
              base.layers[li].operations.size());
    for (std::size_t k = 0; k < degraded.layers[li].operations.size(); ++k) {
      EXPECT_EQ(degraded.layers[li].operations[k].actual,
                2 * base.layers[li].operations[k].actual);
    }
  }
}

TEST(FaultInjection, ScriptedExhaustionBreaksAtTheIndeterminateOp) {
  const Fixture f;
  const std::vector<OperationId> indeterminate = f.assay.indeterminate_operations();
  ASSERT_FALSE(indeterminate.empty());
  RuntimeOptions options;
  options.attempt_success_probability = 1.0;  // only the script can fail
  options.max_attempts = 4;
  FaultEvent exhaust;
  exhaust.kind = FaultKind::AttemptExhaustion;
  exhaust.op = indeterminate.front();
  options.faults.events.push_back(exhaust);

  const RunTrace trace = simulate_run(f.report.result, f.assay, options);
  EXPECT_EQ(trace.outcome, RunOutcome::AttemptsExhausted);
  ASSERT_TRUE(trace.failure.has_value());
  EXPECT_EQ(trace.failure->op, indeterminate.front());
  // The scripted exhaustion consumed the whole attempt budget.
  bool found = false;
  for (const LayerTrace& layer : trace.layers) {
    for (const OperationTrace& op : layer.operations) {
      if (op.op == indeterminate.front()) {
        EXPECT_EQ(op.attempts, 4);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(FaultInjection, TransportDelayStretchesOnlyTransferringLayers) {
  const Fixture f;
  RuntimeOptions healthy;
  healthy.attempt_success_probability = 1.0;
  const RunTrace base = simulate_run(f.report.result, f.assay, healthy);

  RuntimeOptions congested = healthy;
  congested.faults.events.push_back(
      FaultEvent{FaultKind::TransportDelay, DeviceId{}, OperationId{}, 0_min, 1.0,
                 5_min});
  const RunTrace delayed = simulate_run(f.report.result, f.assay, congested);
  ASSERT_TRUE(delayed.ok());
  EXPECT_GE(delayed.completed_at, base.completed_at);
}

TEST(FaultInjection, IdenticalSeedsAndPlansAreBitIdentical) {
  const Fixture f;
  RuntimeOptions options;
  options.seed = 11;
  const DeviceId victim = f.report.result.layers.front().items.front().device;
  options.faults.events.push_back(
      FaultEvent{FaultKind::DeviceFailure, victim, OperationId{}, 20_min});

  const RunTrace a = simulate_run(f.report.result, f.assay, options);
  const RunTrace b = simulate_run(f.report.result, f.assay, options);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.completed_at, b.completed_at);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.lost, b.lost);
  ASSERT_EQ(a.in_flight.size(), b.in_flight.size());
  for (std::size_t i = 0; i < a.in_flight.size(); ++i) {
    EXPECT_EQ(a.in_flight[i].op, b.in_flight[i].op);
    EXPECT_EQ(a.in_flight[i].device, b.in_flight[i].device);
    EXPECT_EQ(a.in_flight[i].elapsed, b.in_flight[i].elapsed);
    EXPECT_EQ(a.in_flight[i].remaining, b.in_flight[i].remaining);
  }
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].end, b.layers[i].end);
    EXPECT_EQ(a.layers[i].operations.size(), b.layers[i].operations.size());
  }
}

TEST(FaultInjection, FailureOfAnIdleDeviceIsHarmless) {
  const Fixture f;
  RuntimeOptions options;
  options.attempt_success_probability = 1.0;
  // A device id beyond the inventory never has work bound to it.
  options.faults.events.push_back(
      FaultEvent{FaultKind::DeviceFailure, DeviceId{999}, OperationId{}, 0_min});
  const RunTrace trace = simulate_run(f.report.result, f.assay, options);
  EXPECT_TRUE(trace.ok());
  EXPECT_FALSE(trace.failure.has_value());
}

}  // namespace
}  // namespace cohls::sim
