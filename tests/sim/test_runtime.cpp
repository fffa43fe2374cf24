#include "sim/runtime.hpp"

#include <gtest/gtest.h>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "sim/hazard.hpp"

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

TEST(Runtime, CertainSuccessMatchesThePlanExactly) {
  const Fixture f;
  RuntimeOptions options;
  options.attempt_success_probability = 1.0;
  const RunTrace trace = simulate_run(f.report.result, f.assay, options);
  EXPECT_EQ(trace.completed_at, trace.planned_fixed);
  EXPECT_EQ(trace.overrun(), 0_min);
}

TEST(Runtime, OverrunIsNeverNegative) {
  const Fixture f;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RuntimeOptions options;
    options.seed = seed;
    const RunTrace trace = simulate_run(f.report.result, f.assay, options);
    EXPECT_GE(trace.completed_at, trace.planned_fixed) << "seed " << seed;
  }
}

TEST(Runtime, DeterministicPerSeed) {
  const Fixture f;
  RuntimeOptions options;
  options.seed = 7;
  const RunTrace a = simulate_run(f.report.result, f.assay, options);
  const RunTrace b = simulate_run(f.report.result, f.assay, options);
  EXPECT_EQ(a.completed_at, b.completed_at);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].end, b.layers[i].end);
  }
}

TEST(Runtime, OnlyIndeterminateOpsRetry) {
  const Fixture f;
  RuntimeOptions options;
  options.attempt_success_probability = 0.2;  // lots of retries
  options.seed = 3;
  const RunTrace trace = simulate_run(f.report.result, f.assay, options);
  for (const LayerTrace& layer : trace.layers) {
    for (const OperationTrace& op : layer.operations) {
      if (f.assay.operation(op.op).indeterminate()) {
        EXPECT_GE(op.attempts, 1);
        EXPECT_EQ(op.actual, op.attempts * f.assay.operation(op.op).duration());
      } else {
        EXPECT_EQ(op.attempts, 1);
        EXPECT_EQ(op.actual, f.assay.operation(op.op).duration());
      }
    }
  }
}

TEST(Runtime, LayersExecuteBackToBack) {
  const Fixture f;
  const RunTrace trace = simulate_run(f.report.result, f.assay);
  Minutes expected_start{0};
  for (const LayerTrace& layer : trace.layers) {
    EXPECT_EQ(layer.start, expected_start);
    EXPECT_GE(layer.end, layer.start);
    expected_start = layer.end;
  }
  EXPECT_EQ(trace.completed_at, expected_start);
}

TEST(Runtime, ExhaustedAttemptsBreakTheRunInsteadOfFakingSuccess) {
  const Fixture f;
  RuntimeOptions options;
  options.attempt_success_probability = 1e-9;  // effectively never succeeds
  options.max_attempts = 3;
  const RunTrace trace = simulate_run(f.report.result, f.assay, options);
  // The cap bounds the retries, and hitting it is a reported failure —
  // never a fabricated completion.
  EXPECT_FALSE(trace.ok());
  EXPECT_EQ(trace.outcome, RunOutcome::AttemptsExhausted);
  ASSERT_TRUE(trace.failure.has_value());
  EXPECT_TRUE(f.assay.operation(trace.failure->op).indeterminate());
  EXPECT_FALSE(trace.failure->detail.empty());
  for (const LayerTrace& layer : trace.layers) {
    for (const OperationTrace& op : layer.operations) {
      EXPECT_LE(op.attempts, 3);
    }
  }
  // The exhausted operation's work is void, not completed.
  for (const OperationId op : trace.completed) {
    EXPECT_NE(op, trace.failure->op);
  }
}

TEST(Runtime, TracedAndSummaryReplaysCountTheSameEvents) {
  const Fixture f;
  const CompiledSchedule compiled = compile_schedule(f.report.result, f.assay);
  const HazardModel hazard = parse_hazard_spec("exp:300", f.assay.registry());
  const std::vector<model::Device>& devices = f.report.result.devices.devices();
  ASSERT_GE(devices.size(), 2u);

  std::vector<RuntimeOptions> plans;
  for (std::uint64_t run = 0; run < 32; ++run) {
    RuntimeOptions options;
    options.seed = run + 1;
    hazard.sample_into(options.faults, f.report.result.devices, 42, run,
                       Minutes{1'000'000});
    plans.push_back(options);
  }
  for (const Minutes at : {0_min, 5_min, 40_min, 1'000'000_min}) {
    RuntimeOptions options;
    options.max_attempts = 3;
    options.faults.events.push_back(
        FaultEvent{FaultKind::DeviceFailure, devices[0].id, OperationId{}, at});
    options.faults.events.push_back(
        FaultEvent{FaultKind::DeviceFailure, devices[1].id, OperationId{}, at});
    FaultEvent exhaust;
    exhaust.kind = FaultKind::AttemptExhaustion;
    exhaust.op = f.assay.indeterminate_operations().front();
    options.faults.events.push_back(exhaust);
    plans.push_back(options);
  }

  Replayer traced;
  Replayer summarized;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    ReplaySummary digest;
    (void)traced.run(compiled, plans[i], &digest);
    const ReplaySummary summary = summarized.run_summary(compiled, plans[i]);
    EXPECT_EQ(digest.events, summary.events) << "plan " << i;
    EXPECT_EQ(digest.outcome, summary.outcome) << "plan " << i;
    EXPECT_EQ(digest.completed_at, summary.completed_at) << "plan " << i;
    total += summary.events;
  }
  EXPECT_GT(total, 0u);  // the plans must actually offer break candidates
  EXPECT_EQ(traced.wheel_stats().posted, summarized.wheel_stats().posted);
}

TEST(Runtime, RejectsBadOptions) {
  const Fixture f;
  RuntimeOptions options;
  options.attempt_success_probability = 0.0;
  EXPECT_THROW((void)simulate_run(f.report.result, f.assay, options), PreconditionError);
  options.attempt_success_probability = 0.5;
  options.max_attempts = 0;
  EXPECT_THROW((void)simulate_run(f.report.result, f.assay, options), PreconditionError);
}

}  // namespace
}  // namespace cohls::sim
