// The engine resilience ladder: stall-watchdog downgrade to the heuristic,
// final verdicts on deterministic failures, and the fault-injected replay +
// recovery stage of the batch pipeline. Runs under TSan in CI.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "assays/benchmarks.hpp"
#include "core/progressive_resynthesis.hpp"
#include "engine/batch.hpp"
#include "io/assay_text.hpp"

namespace cohls::engine {
namespace {

core::SynthesisOptions benchmark_options() {
  core::SynthesisOptions options;
  options.max_devices = 12;
  options.layering.indeterminate_threshold = 3;
  return options;
}

BatchJob benchmark_job() {
  BatchJob job;
  job.name = "gene-expression";
  job.text = io::to_text(assays::gene_expression_assay(3));
  job.options = benchmark_options();
  return job;
}

/// The assay of Recover.UniqueCapableDeviceLostReportsE301: two large-ring
/// operations in sequence plus an independent tiny chamber, so losing the
/// one ring mid-run leaves the second ring operation unbindable.
model::Assay unique_device_assay(OperationId* first_ring_op) {
  model::Assay assay{"unique-device"};
  model::OperationSpec a1;
  a1.name = "A1";
  a1.container = model::ContainerKind::Ring;
  a1.capacity = model::Capacity::Large;
  a1.duration = 20_min;
  const OperationId a1_id = assay.add_operation(a1);
  model::OperationSpec a2 = a1;
  a2.name = "A2";
  a2.parents = {a1_id};
  (void)assay.add_operation(a2);
  model::OperationSpec b;
  b.name = "B";
  b.container = model::ContainerKind::Chamber;
  b.capacity = model::Capacity::Tiny;
  b.duration = 50_min;
  (void)assay.add_operation(b);
  if (first_ring_op != nullptr) {
    *first_ring_op = a1_id;
  }
  return assay;
}

TEST(Resilience, StallWatchdogDowngradesToHeuristicAndReports) {
  BatchOptions options;
  options.stall_seconds = 1e-4;  // every real synthesis outlives this
  BatchEngine engine(options);
  const std::vector<BatchResult> rows = engine.run({benchmark_job()});

  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].status, JobStatus::Ok) << rows[0].detail;
  EXPECT_TRUE(rows[0].degraded);
  EXPECT_GE(engine.metrics().counter("fallbacks_taken").value(), 1);
  // The downgraded schedule is still a certified result.
  EXPECT_FALSE(rows[0].result_text.empty());
  EXPECT_GT(rows[0].summary.layers, 0);
}

TEST(Resilience, WatchdogDoesNotMaskTheJobDeadline) {
  BatchOptions options;
  options.stall_seconds = 30.0;  // watchdog armed but far away
  BatchEngine engine(options);
  BatchJob job = benchmark_job();
  job.deadline_seconds = 1e-6;  // expires before synthesis starts
  const std::vector<BatchResult> rows = engine.run({job});

  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].status, JobStatus::Cancelled);
  // A real deadline is a cancellation, never a silent heuristic downgrade.
  EXPECT_FALSE(rows[0].degraded);
  EXPECT_EQ(engine.metrics().counter("fallbacks_taken").value(), 0);
}

TEST(Resilience, DeterministicVerdictsAreFinalNotRetried) {
  // Infeasibility and an unreadable file are deterministic verdicts:
  // re-running cannot change them, so each is reported once, as is.
  BatchOptions options;
  options.lint = false;  // reach the solver so infeasibility is its verdict
  BatchEngine engine(options);

  model::Assay infeasible{"too-many-captures"};
  for (int k = 0; k < 3; ++k) {
    model::OperationSpec spec;
    spec.name = "capture-" + std::to_string(k);
    spec.container = model::ContainerKind::Chamber;
    spec.capacity = model::Capacity::Tiny;
    spec.duration = 10_min;
    spec.indeterminate = true;
    (void)infeasible.add_operation(spec);
  }
  BatchJob infeasible_job;
  infeasible_job.name = "infeasible";
  infeasible_job.text = io::to_text(infeasible);
  infeasible_job.options.max_devices = 2;  // 3 captures need 3 devices

  BatchJob missing;
  missing.name = "missing";
  missing.path = "/nonexistent/assay/file.assay";

  const std::vector<BatchResult> rows = engine.run({infeasible_job, missing});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].status, JobStatus::Infeasible) << rows[0].detail;
  EXPECT_EQ(rows[1].status, JobStatus::Error);
}

TEST(Resilience, RecoveredFaultKeepsTheJobOkAndCounts) {
  // Kill the device of the first scheduled operation mid-run, after the
  // indeterminate capture layer has passed: the replay must break, and the
  // residual re-plans cleanly on the survivors.
  const model::Assay assay = assays::gene_expression_assay(3);
  const core::SynthesisReport report =
      core::synthesize(assay, benchmark_options());
  const DeviceId victim = report.result.layers.front().items.front().device;

  BatchJob job = benchmark_job();
  std::ostringstream plan;
  plan << "device-fail " << victim.value() << " at 30\n";
  job.fault_plan = plan.str();

  BatchEngine engine{BatchOptions{}};
  const std::vector<BatchResult> rows = engine.run({job});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].status, JobStatus::Ok) << rows[0].detail;
  EXPECT_EQ(rows[0].run_outcome, "device-failed");
  EXPECT_TRUE(rows[0].recovery_attempted);
  EXPECT_TRUE(rows[0].recovered);
  EXPECT_EQ(engine.metrics().counter("recoveries_attempted").value(), 1);
  EXPECT_EQ(engine.metrics().counter("recoveries_succeeded").value(), 1);
  EXPECT_GE(engine.metrics().histogram("recovery_seconds").count(), 1);
}

TEST(Resilience, UnrecoverableFaultReportsRunFailedWithE3xx) {
  OperationId a1_id;
  const model::Assay assay = unique_device_assay(&a1_id);
  core::SynthesisOptions options;
  options.max_devices = 4;
  const core::SynthesisReport report = core::synthesize(assay, options);
  const std::map<OperationId, DeviceId> binding = report.result.binding();

  BatchJob job;
  job.name = "unique-device";
  job.text = io::to_text(assay);
  job.options = options;
  std::ostringstream plan;
  plan << "device-fail " << binding.at(a1_id).value() << " at 5\n";
  job.fault_plan = plan.str();

  BatchEngine engine{BatchOptions{}};
  const std::vector<BatchResult> rows = engine.run({job});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].status, JobStatus::RunFailed);
  EXPECT_EQ(rows[0].run_outcome, "device-failed");
  EXPECT_TRUE(rows[0].recovery_attempted);
  EXPECT_FALSE(rows[0].recovered);
  EXPECT_FALSE(rows[0].detail.empty());
  ASSERT_FALSE(rows[0].diagnostics.empty());
  for (const diag::Diagnostic& d : rows[0].diagnostics) {
    EXPECT_EQ(d.code, diag::codes::kRecoveryUnbindable);
  }
  EXPECT_EQ(engine.metrics().counter("recoveries_attempted").value(), 1);
  EXPECT_EQ(engine.metrics().counter("recoveries_succeeded").value(), 0);
  EXPECT_NE(results_json(rows).find("run-failed"), std::string::npos);
}

TEST(Resilience, MalformedFaultPlanIsAJobErrorNotACrash) {
  BatchJob job = benchmark_job();
  job.fault_plan = "frobnicate the chip\n";
  BatchEngine engine{BatchOptions{}};
  const std::vector<BatchResult> rows = engine.run({job});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].status, JobStatus::Error);
  EXPECT_NE(rows[0].detail.find("fault plan"), std::string::npos);
}

TEST(Resilience, ResultsJsonCarriesResilienceFields) {
  BatchJob job = benchmark_job();
  // A device id beyond the inventory: the plan is live but harmless, so the
  // replay completes and no recovery runs.
  job.fault_plan = "device-fail 999 at 0\n";
  BatchEngine engine{BatchOptions{}};
  const std::vector<BatchResult> rows = engine.run({job});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].status, JobStatus::Ok) << rows[0].detail;
  EXPECT_EQ(rows[0].run_outcome, "completed");
  EXPECT_FALSE(rows[0].recovery_attempted);

  const std::string json = results_json(rows);
  EXPECT_NE(json.find("\"degraded\": false"), std::string::npos);
  EXPECT_NE(json.find("\"run_outcome\": \"completed\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery_attempted\": false"), std::string::npos);
  EXPECT_NE(json.find("\"recovered\": false"), std::string::npos);
}

}  // namespace
}  // namespace cohls::engine
