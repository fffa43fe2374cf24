#include "core/recovery.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "assays/benchmarks.hpp"
#include "sim/faults.hpp"
#include "sim/runtime.hpp"

namespace cohls::core {
namespace {

struct Fixture {
  model::Assay assay = assays::gene_expression_assay(3);
  SynthesisOptions options;
  SynthesisReport report;

  Fixture() {
    options.max_devices = 12;
    options.layering.indeterminate_threshold = 3;
    report = synthesize(assay, options);
  }

  /// A broken trace: the device executing the first scheduled operation
  /// dies at `at` minutes into a deterministic (always-succeeds) replay.
  [[nodiscard]] sim::RunTrace break_at(Minutes at) const {
    sim::RuntimeOptions runtime;
    runtime.attempt_success_probability = 1.0;
    const DeviceId victim = report.result.layers.front().items.front().device;
    runtime.faults.events.push_back(
        sim::FaultEvent{sim::FaultKind::DeviceFailure, victim, OperationId{}, at});
    return sim::simulate_run(report.result, assay, runtime);
  }
};

TEST(BuildResidual, DropsCompletedOpsAndStrikesTheFailedDevice) {
  const Fixture f;
  const sim::RunTrace trace = f.break_at(30_min);
  ASSERT_FALSE(trace.ok());
  const ResidualAssay residual = build_residual(f.assay, f.report.result, trace);

  EXPECT_EQ(residual.assay.operation_count(),
            f.assay.operation_count() - static_cast<int>(trace.completed.size()));
  EXPECT_EQ(static_cast<int>(residual.surviving_devices.size()),
            f.report.result.devices.size() - 1);
  EXPECT_FALSE(residual.device_map[trace.failure->device.index()].valid());

  // The id frames are inverse bijections and completed originals are absent.
  ASSERT_EQ(static_cast<int>(residual.to_original.size()),
            residual.assay.operation_count());
  for (std::size_t r = 0; r < residual.to_original.size(); ++r) {
    const OperationId original_id = residual.to_original[r];
    EXPECT_EQ(residual.from_original[original_id.index()],
              OperationId{static_cast<std::int32_t>(r)});
    EXPECT_TRUE(std::none_of(trace.completed.begin(), trace.completed.end(),
                             [&](OperationId done) { return done == original_id; }));
  }
  for (const OperationId done : trace.completed) {
    EXPECT_FALSE(residual.from_original[done.index()].valid());
  }

  // Parent edges survive the remap exactly when the parent is outstanding.
  for (const model::Operation& op : residual.assay.operations()) {
    const model::Operation& original =
        f.assay.operation(residual.to_original[op.id().index()]);
    std::set<OperationId> expected;
    for (const OperationId parent : original.parents()) {
      if (residual.from_original[parent.index()].valid()) {
        expected.insert(residual.from_original[parent.index()]);
      }
    }
    const std::set<OperationId> actual(op.parents().begin(), op.parents().end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(BuildResidual, PinsInFlightOpsWithElapsedTimeCredit) {
  const Fixture f;
  const sim::RunTrace trace = f.break_at(30_min);
  const ResidualAssay residual = build_residual(f.assay, f.report.result, trace);

  ASSERT_EQ(residual.pinned.size(), trace.in_flight.size());
  for (const sim::InFlightOperation& running : trace.in_flight) {
    const OperationId residual_id = residual.from_original[running.op.index()];
    // Only the remaining realized time is re-planned.
    EXPECT_EQ(residual.assay.operation(residual_id).duration(), running.remaining);
    // The pin targets the surviving id of the device already running it.
    EXPECT_EQ(residual.pinned.at(residual_id), residual.device_map[running.device.index()]);
  }

  // Lost operations re-run in full.
  for (const OperationId gone : trace.lost) {
    const OperationId residual_id = residual.from_original[gone.index()];
    EXPECT_EQ(residual.assay.operation(residual_id).duration(),
              f.assay.operation(gone).duration());
  }
}

TEST(Recover, ProducesACertifiedContinuationHonoringPins) {
  const Fixture f;
  const sim::RunTrace trace = f.break_at(30_min);
  const RecoveryOutcome outcome = recover(f.assay, f.report.result, trace, f.options);

  ASSERT_TRUE(outcome.recovered) << (outcome.diagnostics.empty()
                                         ? "no diagnostics"
                                         : outcome.diagnostics.front().message);
  EXPECT_TRUE(outcome.diagnostics.empty());

  // Every pinned operation stayed on its device; no binding references a
  // device beyond the surviving inventory.
  const std::map<OperationId, DeviceId> binding = outcome.continuation.result.binding();
  for (const auto& [op, device] : outcome.residual.pinned) {
    EXPECT_EQ(binding.at(op), device);
  }
  const int survivors = static_cast<int>(outcome.residual.surviving_devices.size());
  EXPECT_LE(outcome.continuation.result.devices.size(), survivors);
  for (const auto& [op, device] : binding) {
    EXPECT_LT(device.value(), survivors);
  }
}

TEST(Recover, IsDeterministic) {
  const Fixture f;
  const sim::RunTrace trace = f.break_at(30_min);
  const RecoveryOutcome a = recover(f.assay, f.report.result, trace, f.options);
  const RecoveryOutcome b = recover(f.assay, f.report.result, trace, f.options);
  ASSERT_EQ(a.recovered, b.recovered);
  ASSERT_TRUE(a.recovered);
  ASSERT_EQ(a.continuation.result.layers.size(), b.continuation.result.layers.size());
  for (std::size_t li = 0; li < a.continuation.result.layers.size(); ++li) {
    const auto& la = a.continuation.result.layers[li].items;
    const auto& lb = b.continuation.result.layers[li].items;
    ASSERT_EQ(la.size(), lb.size());
    for (std::size_t k = 0; k < la.size(); ++k) {
      EXPECT_EQ(la[k].op, lb[k].op);
      EXPECT_EQ(la[k].device, lb[k].device);
      EXPECT_EQ(la[k].start, lb[k].start);
      EXPECT_EQ(la[k].duration, lb[k].duration);
    }
  }
}

TEST(Recover, UnbrokenTraceReportsE304) {
  const Fixture f;
  sim::RuntimeOptions runtime;
  runtime.attempt_success_probability = 1.0;
  const sim::RunTrace trace = sim::simulate_run(f.report.result, f.assay, runtime);
  ASSERT_TRUE(trace.ok());
  const RecoveryOutcome outcome = recover(f.assay, f.report.result, trace, f.options);
  EXPECT_FALSE(outcome.recovered);
  ASSERT_EQ(outcome.diagnostics.size(), 1u);
  EXPECT_EQ(outcome.diagnostics.front().code, diag::codes::kRecoveryNoFailure);
}

TEST(Recover, UniqueCapableDeviceLostReportsE301) {
  // Two large-ring operations in sequence plus an independent chamber
  // chain: the synthesizer needs one large ring (both A-ops share it) and a
  // chamber. Killing the ring mid-A1 leaves A2 outstanding with no
  // surviving hardware able to run it.
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

  SynthesisOptions options;
  options.max_devices = 4;
  const SynthesisReport report = synthesize(assay, options);

  const std::map<OperationId, DeviceId> binding = report.result.binding();
  sim::RuntimeOptions runtime;
  runtime.attempt_success_probability = 1.0;
  runtime.faults.events.push_back(sim::FaultEvent{
      sim::FaultKind::DeviceFailure, binding.at(a1_id), OperationId{}, 5_min});
  const sim::RunTrace trace = sim::simulate_run(report.result, assay, runtime);
  ASSERT_EQ(trace.outcome, sim::RunOutcome::DeviceFailed);

  const RecoveryOutcome outcome = recover(assay, report.result, trace, options);
  EXPECT_FALSE(outcome.recovered);
  ASSERT_FALSE(outcome.diagnostics.empty());
  for (const diag::Diagnostic& d : outcome.diagnostics) {
    EXPECT_EQ(d.code, diag::codes::kRecoveryUnbindable);
  }
}

TEST(Recover, MoreIndeterminateOpsThanSurvivorsReportsE300) {
  // Three identical parentless indeterminate captures must occupy pairwise
  // distinct devices (E214), so the original chip carries three. After one
  // dies, the residual still holds three indeterminate operations — two
  // pinned in flight plus the lost one — but only two devices survive and
  // the chip cannot grow: recovery is infeasible.
  model::Assay assay{"three-captures"};
  for (int k = 0; k < 3; ++k) {
    model::OperationSpec spec;
    spec.name = "capture-" + std::to_string(k);
    spec.container = model::ContainerKind::Chamber;
    spec.capacity = model::Capacity::Tiny;
    spec.duration = 10_min;
    spec.indeterminate = true;
    (void)assay.add_operation(spec);
  }
  SynthesisOptions options;
  options.max_devices = 4;
  const SynthesisReport report = synthesize(assay, options);
  ASSERT_EQ(report.result.devices.size(), 3);

  const std::map<OperationId, DeviceId> binding = report.result.binding();
  sim::RuntimeOptions runtime;
  runtime.attempt_success_probability = 1.0;
  runtime.faults.events.push_back(sim::FaultEvent{
      sim::FaultKind::DeviceFailure, binding.at(OperationId{0}), OperationId{}, 5_min});
  const sim::RunTrace trace = sim::simulate_run(report.result, assay, runtime);
  ASSERT_EQ(trace.outcome, sim::RunOutcome::DeviceFailed);
  ASSERT_EQ(trace.in_flight.size(), 2u);

  const RecoveryOutcome outcome = recover(assay, report.result, trace, options);
  EXPECT_FALSE(outcome.recovered);
  ASSERT_FALSE(outcome.diagnostics.empty());
  EXPECT_EQ(outcome.diagnostics.front().code, diag::codes::kRecoveryInfeasible);
}

TEST(Recover, SoleDeviceChipReportsStructuredE301) {
  // Regression for the device-budget derivation: when the failed device was
  // the only device on the chip (the extreme only-instance-of-its-class
  // case), the surviving inventory is empty. The budget must come from the
  // survivors — never `max_devices - struck`, which would underflow — and
  // the outcome must be structured E301 diagnostics, not a crash.
  model::Assay assay{"sole-device"};
  model::OperationSpec a;
  a.name = "A";
  a.container = model::ContainerKind::Chamber;
  a.capacity = model::Capacity::Tiny;
  a.duration = 20_min;
  const OperationId a_id = assay.add_operation(a);
  model::OperationSpec b = a;
  b.name = "B";
  b.parents = {a_id};
  (void)assay.add_operation(b);

  SynthesisOptions options;
  options.max_devices = 4;
  const SynthesisReport report = synthesize(assay, options);
  ASSERT_EQ(report.result.devices.size(), 1);

  sim::RuntimeOptions runtime;
  runtime.attempt_success_probability = 1.0;
  runtime.faults.events.push_back(sim::FaultEvent{
      sim::FaultKind::DeviceFailure, DeviceId{0}, OperationId{}, 5_min});
  const sim::RunTrace trace = sim::simulate_run(report.result, assay, runtime);
  ASSERT_EQ(trace.outcome, sim::RunOutcome::DeviceFailed);

  const RecoveryOutcome outcome = recover(assay, report.result, trace, options);
  EXPECT_FALSE(outcome.recovered);
  EXPECT_TRUE(outcome.residual.surviving_devices.empty());
  ASSERT_FALSE(outcome.diagnostics.empty());
  for (const diag::Diagnostic& d : outcome.diagnostics) {
    EXPECT_EQ(d.code, diag::codes::kRecoveryUnbindable);
  }
}

// --- re-entrant multi-fault missions ----------------------------------------

/// Extends `runtime` with one more device failure that is guaranteed to
/// strand work AND leave the mission survivable: run the mission as
/// scripted so far, collect the stitched windows that start strictly after
/// every scripted fault and last at least two minutes, and kill the first
/// candidate's device one minute in whose loss the mission still recovers
/// from (a window can be the last hardware able to run an outstanding
/// operation — a correct E301 freeze, but not the chain this builds).
void add_breaking_fault(const Fixture& f, sim::RuntimeOptions& runtime,
                        const MissionOptions& mission) {
  const MissionOutcome out = run_mission(f.assay, f.report.result, runtime, mission);
  ASSERT_TRUE(out.recovered) << (out.diagnostics.empty()
                                     ? "no diagnostics"
                                     : out.diagnostics.front().message);
  Minutes last{0};
  for (const sim::FaultEvent& event : runtime.faults.events) {
    last = std::max(last, event.at);
  }
  std::vector<const sim::OperationTrace*> windows;
  for (const sim::LayerTrace& layer : out.final_trace.layers) {
    for (const sim::OperationTrace& op : layer.operations) {
      if (op.start > last && op.actual >= 2_min) {
        windows.push_back(&op);
      }
    }
  }
  std::sort(windows.begin(), windows.end(),
            [](const sim::OperationTrace* a, const sim::OperationTrace* b) {
              return a->start < b->start;
            });
  for (const sim::OperationTrace* window : windows) {
    runtime.faults.events.push_back(sim::FaultEvent{sim::FaultKind::DeviceFailure,
                                                    window->device, OperationId{},
                                                    window->start + 1_min});
    const MissionOutcome probe =
        run_mission(f.assay, f.report.result, runtime, mission);
    if (probe.recovered) {
      return;
    }
    runtime.faults.events.pop_back();
  }
  FAIL() << "no survivable breakable window after minute " << last.count();
}

TEST(Mission, SurvivesThreeSeededFaultsEndToEnd) {
  const Fixture f;
  MissionOptions mission;
  mission.synthesis = f.options;
  mission.max_rounds = 5;

  sim::RuntimeOptions runtime;
  runtime.attempt_success_probability = 1.0;
  for (int k = 0; k < 3; ++k) {
    add_breaking_fault(f, runtime, mission);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }

  const MissionOutcome out = run_mission(f.assay, f.report.result, runtime, mission);
  EXPECT_TRUE(out.recovered) << (out.diagnostics.empty()
                                     ? "no diagnostics"
                                     : diag::summary_line(out.diagnostics.front()));
  EXPECT_EQ(out.rounds, 3);
  ASSERT_EQ(out.round_log.size(), 3u);
  EXPECT_TRUE(out.diagnostics.empty());
  EXPECT_GE(out.fault_chain.size(), 3u);

  // Every round along the way certified, break times strictly increase, and
  // the carried credit is the monotone sum of per-round grants.
  Minutes credit_sum{0};
  Minutes previous_break{0};
  for (const MissionRound& round : out.round_log) {
    EXPECT_TRUE(round.recovered);
    EXPECT_FALSE(round.degraded);
    EXPECT_GT(round.break_at, previous_break);
    previous_break = round.break_at;
    EXPECT_GE(round.credit, Minutes{0});
    credit_sum = credit_sum + round.credit;
  }
  EXPECT_EQ(out.credit_carried, credit_sum);
  EXPECT_GT(out.completed_at, out.round_log.back().break_at);

  // The stitched end-to-end trace completes every root operation exactly
  // once — pinned continuations finish, lost work re-ran.
  const std::set<OperationId> done(out.final_trace.completed.begin(),
                                   out.final_trace.completed.end());
  EXPECT_EQ(static_cast<int>(done.size()), f.assay.operation_count());
  EXPECT_EQ(out.final_trace.completed.size(), done.size());
  EXPECT_EQ(out.final_trace.outcome, sim::RunOutcome::Completed);
}

TEST(Mission, ExhaustedRoundsFreezeWithE305AndFaultChain) {
  const Fixture f;
  MissionOptions mission;
  mission.synthesis = f.options;
  mission.max_rounds = 5;

  sim::RuntimeOptions runtime;
  runtime.attempt_success_probability = 1.0;
  for (int k = 0; k < 2; ++k) {
    add_breaking_fault(f, runtime, mission);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }

  MissionOptions capped = mission;
  capped.max_rounds = 1;
  const MissionOutcome out = run_mission(f.assay, f.report.result, runtime, capped);
  EXPECT_FALSE(out.recovered);
  EXPECT_EQ(out.rounds, 1);
  ASSERT_FALSE(out.diagnostics.empty());
  EXPECT_EQ(out.diagnostics.front().code, diag::codes::kRecoveryBudgetExhausted);
  // The full fault chain rides along as notes on the frozen diagnostic.
  ASSERT_GE(out.diagnostics.front().notes.size(), 2u);
  for (const diag::Note& note : out.diagnostics.front().notes) {
    EXPECT_EQ(note.message.rfind("fault chain: ", 0), 0u) << note.message;
  }
  EXPECT_GE(out.fault_chain.size(), 2u);
  ASSERT_EQ(out.round_log.size(), 2u);
  EXPECT_TRUE(out.round_log.front().recovered);
  EXPECT_FALSE(out.round_log.back().recovered);
}

TEST(Mission, FaultChainNotesParseBackToTheirEvents) {
  // An exhausted capture breaks the first replay (three attempts allowed),
  // a device failure breaks its continuation, and one recovery round is
  // allowed: the E305 carries both faults as notes, each one directive of
  // the fault-plan text format.
  const Fixture f;
  MissionOptions mission;
  mission.synthesis = f.options;
  mission.max_rounds = 5;
  sim::RuntimeOptions runtime;
  runtime.attempt_success_probability = 1.0;
  runtime.max_attempts = 3;
  sim::FaultEvent exhaust;
  exhaust.kind = sim::FaultKind::AttemptExhaustion;
  exhaust.op = f.assay.indeterminate_operations().front();
  runtime.faults.events.push_back(exhaust);
  add_breaking_fault(f, runtime, mission);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  MissionOptions capped = mission;
  capped.max_rounds = 1;
  const MissionOutcome out = run_mission(f.assay, f.report.result, runtime, capped);
  ASSERT_FALSE(out.diagnostics.empty());
  const diag::Diagnostic& frozen = out.diagnostics.front();
  EXPECT_EQ(frozen.code, diag::codes::kRecoveryBudgetExhausted);
  ASSERT_EQ(frozen.notes.size(), out.fault_chain.size());
  bool saw_exhaustion = false;
  bool saw_failure = false;
  for (std::size_t k = 0; k < frozen.notes.size(); ++k) {
    const std::string& note = frozen.notes[k].message;
    const std::string prefix = "fault chain: ";
    ASSERT_EQ(note.rfind(prefix, 0), 0u) << note;
    const sim::FaultPlan parsed = sim::parse_fault_plan(note.substr(prefix.size()));
    ASSERT_EQ(parsed.events.size(), 1u) << note;
    const sim::FaultEvent& event = out.fault_chain[k];
    const sim::FaultEvent& back = parsed.events.front();
    EXPECT_EQ(back.kind, event.kind) << note;
    if (event.kind == sim::FaultKind::AttemptExhaustion) {
      // The break minute, which the directive does not carry, rides along
      // as a comment.
      EXPECT_EQ(back.op, event.op) << note;
      EXPECT_NE(note.find("# at " + std::to_string(event.at.count())), std::string::npos)
          << note;
      saw_exhaustion = true;
    } else {
      EXPECT_EQ(back.device, event.device) << note;
      EXPECT_EQ(back.at, event.at) << note;
      saw_failure = true;
    }
  }
  EXPECT_TRUE(saw_exhaustion);
  EXPECT_TRUE(saw_failure);
}

TEST(Mission, TightRoundBudgetDegradesInsteadOfFailing) {
  const Fixture f;
  MissionOptions mission;
  mission.synthesis = f.options;
  mission.max_rounds = 3;
  // A budget that expires before the first synthesis pass even starts: the
  // round blows its budget, and instead of cancelling, the mission re-runs
  // it heuristic-only and flags the degradation.
  mission.round_budget_seconds = 1e-9;

  sim::RuntimeOptions runtime;
  runtime.attempt_success_probability = 1.0;
  const DeviceId victim = f.report.result.layers.front().items.front().device;
  runtime.faults.events.push_back(
      sim::FaultEvent{sim::FaultKind::DeviceFailure, victim, OperationId{}, 30_min});

  const MissionOutcome out = run_mission(f.assay, f.report.result, runtime, mission);
  EXPECT_TRUE(out.recovered) << (out.diagnostics.empty()
                                     ? "no diagnostics"
                                     : out.diagnostics.front().message);
  EXPECT_TRUE(out.degraded);
  ASSERT_EQ(out.round_log.size(), 1u);
  EXPECT_TRUE(out.round_log.front().degraded);
  EXPECT_TRUE(out.round_log.front().recovered);

  // The caller's own deadline is not a round budget: it cancels the
  // mission, and no degraded re-run outlives it.
  const CancellationSource source;
  MissionOptions deadlined = mission;
  deadlined.synthesis.cancel = source.token_with_deadline(1e-9);
  EXPECT_THROW((void)run_mission(f.assay, f.report.result, runtime, deadlined),
               CancelledError);
}

TEST(Mission, PinnedDeviceDeathRestoresFullDuration) {
  const Fixture f;
  const sim::RunTrace first = f.break_at(30_min);
  ASSERT_FALSE(first.ok());
  // A pinned operation whose credit is worth losing: still >= 2 minutes of
  // remaining work when its device dies one minute into the continuation.
  const sim::InFlightOperation* pinned = nullptr;
  for (const sim::InFlightOperation& item : first.in_flight) {
    if (item.remaining >= 2_min && item.elapsed >= 1_min) {
      pinned = &item;
      break;
    }
  }
  ASSERT_NE(pinned, nullptr);

  sim::RuntimeOptions runtime;
  runtime.attempt_success_probability = 1.0;
  const DeviceId victim = f.report.result.layers.front().items.front().device;
  runtime.faults.events.push_back(
      sim::FaultEvent{sim::FaultKind::DeviceFailure, victim, OperationId{}, 30_min});
  runtime.faults.events.push_back(sim::FaultEvent{
      sim::FaultKind::DeviceFailure, pinned->device, OperationId{}, 31_min});

  MissionOptions mission;
  mission.synthesis = f.options;
  mission.max_rounds = 3;
  const MissionOutcome out = run_mission(f.assay, f.report.result, runtime, mission);
  ASSERT_TRUE(out.recovered) << (out.diagnostics.empty()
                                     ? "no diagnostics"
                                     : out.diagnostics.front().message);
  EXPECT_EQ(out.rounds, 2);

  // The credit carried for the pinned op died with its device: its final
  // stitched execution runs the full root duration again.
  const sim::OperationTrace* rerun = nullptr;
  for (const sim::LayerTrace& layer : out.final_trace.layers) {
    for (const sim::OperationTrace& op : layer.operations) {
      if (op.op == pinned->op) {
        rerun = &op;  // keep the last occurrence
      }
    }
  }
  ASSERT_NE(rerun, nullptr);
  EXPECT_EQ(rerun->actual, f.assay.operation(pinned->op).duration());
  EXPECT_GT(rerun->start, 31_min);
}

}  // namespace
}  // namespace cohls::core
