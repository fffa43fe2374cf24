#include "support/recovery_reference.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "core/degrade.hpp"
#include "model/compatibility.hpp"
#include "schedule/validate.hpp"
#include "util/check.hpp"

namespace cohls::oracles {

namespace {

diag::Diagnostic make_diagnostic(const char* code, std::string message,
                                 std::string fixit = "") {
  diag::Diagnostic diagnostic;
  diagnostic.code = code;
  diagnostic.severity = diag::Severity::Error;
  diagnostic.message = std::move(message);
  diagnostic.fixit = std::move(fixit);
  return diagnostic;
}

void attach_fault_chain(std::vector<diag::Diagnostic>& diagnostics,
                        const std::vector<sim::FaultEvent>& chain) {
  if (diagnostics.empty()) {
    return;
  }
  for (const sim::FaultEvent& event : chain) {
    diagnostics.front().notes.push_back(core::fault_chain_note(event));
  }
}

}  // namespace

ResidualAssayReference build_residual_reference(const model::Assay& assay,
                                                const schedule::SynthesisResult& original,
                                                const sim::RunTrace& trace,
                                                const core::RecoveryCarry& carry,
                                                const std::set<DeviceId>& also_failed) {
  ResidualAssayReference residual;
  residual.assay = model::Assay{assay.name() + " (recovery)", assay.registry()};

  // The surviving chip: every original device except the one that broke the
  // replay and any device struck alongside it (a failure whose time already
  // passed without stranding work is still dead hardware).
  const DeviceId failed =
      trace.failure && trace.failure->outcome == sim::RunOutcome::DeviceFailed
          ? trace.failure->device
          : DeviceId{};
  for (const model::Device& device : original.devices.devices()) {
    if (device.id == failed || also_failed.count(device.id) > 0) {
      continue;
    }
    residual.device_map.emplace(
        device.id, DeviceId{static_cast<std::int32_t>(residual.surviving_devices.size())});
    residual.surviving_devices.push_back(device.config);
  }

  const std::set<OperationId> completed(trace.completed.begin(), trace.completed.end());
  const std::set<OperationId> lost(trace.lost.begin(), trace.lost.end());
  std::map<OperationId, const sim::InFlightOperation*> in_flight;
  for (const sim::InFlightOperation& item : trace.in_flight) {
    in_flight.emplace(item.op, &item);
  }

  // Outstanding operations in ascending original-id order — parents were
  // added before children in the original, so the same holds here.
  for (const model::Operation& op : assay.operations()) {
    if (completed.count(op.id()) > 0) {
      continue;
    }
    model::OperationSpec spec;
    spec.name = op.name();
    spec.container = op.container();
    spec.capacity = op.capacity();
    spec.accessories = op.accessories();
    spec.duration = op.duration();
    spec.indeterminate = op.indeterminate();
    for (const OperationId parent : op.parents()) {
      if (completed.count(parent) > 0) {
        continue;  // the parent's product is already on the chip
      }
      spec.parents.push_back(residual.from_original.at(parent));
    }

    const auto running = in_flight.find(op.id());
    const auto carried = carry.find(op.id());
    DeviceId pin_device{};  // invalid = no pin
    if (lost.count(op.id()) > 0) {
      // Work lost for good (stranded on the dead device, or an exhausted
      // capture): re-run in full. When an earlier round had already credited
      // part of this op, "full" is the carried root duration, not the
      // residual one.
      if (carried != carry.end()) {
        spec.duration = carried->second.full_duration;
      }
    } else if (running != in_flight.end() &&
               also_failed.count(running->second->device) == 0) {
      // Elapsed-time credit: only the remaining realized time is re-planned
      // (for an indeterminate operation this is the remaining minimum — the
      // cyberphysical check still decides completion).
      spec.duration = running->second->remaining;
      pin_device = running->second->device;
    } else if (running != in_flight.end()) {
      // In flight on a device struck by a simultaneous or silent failure:
      // the replay saw a survivor, the chip did not. The fluid is lost with
      // the hardware; re-run in full.
      if (carried != carry.end()) {
        spec.duration = carried->second.full_duration;
      }
    } else if (carried != carry.end()) {
      // Pinned in an earlier round and not re-started yet: the fluid still
      // sits mid-execution on the pinned device. While that device lives the
      // op keeps its reduced duration and its pin; once it is gone, the
      // credit is lost and the op re-runs at its root duration.
      const DeviceId held = carried->second.device;
      if (held != failed && also_failed.count(held) == 0) {
        pin_device = held;
      } else {
        spec.duration = carried->second.full_duration;
      }
    }

    const OperationId residual_id = residual.assay.add_operation(std::move(spec));
    residual.to_original.emplace(residual_id, op.id());
    residual.from_original.emplace(op.id(), residual_id);
    if (pin_device.valid()) {
      const auto survivor = residual.device_map.find(pin_device);
      COHLS_EXPECT(survivor != residual.device_map.end(),
                   "in-flight operation bound to a failed device");
      residual.pinned.emplace(residual_id, survivor->second);
    }
  }
  return residual;
}

RecoveryOutcomeReference recover_reference(const model::Assay& assay,
                                           const schedule::SynthesisResult& original,
                                           const sim::RunTrace& trace,
                                           const core::SynthesisOptions& options,
                                           const core::RecoveryCarry& carry,
                                           const std::set<DeviceId>& also_failed) {
  RecoveryOutcomeReference outcome;
  if (!trace.failure.has_value()) {
    outcome.diagnostics.push_back(make_diagnostic(
        diag::codes::kRecoveryNoFailure,
        "run trace reports no failure: there is nothing to recover",
        "call recover() only when simulate_run returns a broken trace"));
    return outcome;
  }

  outcome.residual = build_residual_reference(assay, original, trace, carry, also_failed);
  const ResidualAssayReference& residual = outcome.residual;

  // Pre-flight: on a fabricated chip no new device can appear, so every
  // outstanding operation must fit some surviving device (E301) and every
  // pin target must still be able to run its operation (E303).
  for (const model::Operation& op : residual.assay.operations()) {
    const OperationId original_id = residual.to_original.at(op.id());
    const auto pin = residual.pinned.find(op.id());
    if (pin != residual.pinned.end()) {
      if (!model::is_compatible(op, residual.surviving_devices[pin->second.index()])) {
        std::ostringstream message;
        message << "in-flight operation " << original_id << " (" << op.name()
                << ") is pinned to surviving device " << pin->second
                << ", which cannot execute it";
        outcome.diagnostics.push_back(
            make_diagnostic(diag::codes::kRecoveryPinViolation, message.str()));
      }
      continue;
    }
    const bool bindable =
        std::any_of(residual.surviving_devices.begin(), residual.surviving_devices.end(),
                    [&op](const model::DeviceConfig& config) {
                      return model::is_compatible(op, config);
                    });
    if (!bindable) {
      std::ostringstream message;
      message << "operation " << original_id << " (" << op.name()
              << ") cannot execute on any surviving device";
      outcome.diagnostics.push_back(make_diagnostic(
          diag::codes::kRecoveryUnbindable, message.str(),
          "the failed device was the only hardware able to run this operation"));
    }
  }
  if (!outcome.diagnostics.empty()) {
    return outcome;
  }

  // Re-enter the normal flow on the residual assay, constrained to the
  // surviving hardware. The budget is derived from the surviving inventory
  // alone — never from `options.max_devices - <struck devices>`, which would
  // underflow when the failed device was the only instance of its class (or
  // the only device on the chip). An empty surviving inventory still needs
  // the positive budget DeviceInventory requires, but synthesis is never
  // reached then: the pre-flight loop above reported every outstanding
  // operation as E301.
  core::SynthesisOptions recovery_options = options;
  recovery_options.max_devices =
      residual.surviving_devices.empty()
          ? 1
          : static_cast<int>(residual.surviving_devices.size());
  core::PassPolicy policy;
  policy.initial_devices = residual.surviving_devices;
  policy.pinned = residual.pinned;
  policy.allow_new_devices = false;

  try {
    outcome.continuation = core::synthesize(residual.assay, recovery_options, policy);
  } catch (const CancelledError&) {
    throw;
  } catch (const InfeasibleError& error) {
    outcome.diagnostics.push_back(make_diagnostic(
        diag::codes::kRecoveryInfeasible,
        std::string{"no continuation schedule exists on the surviving devices: "} +
            error.what()));
    return outcome;
  }

  // The continuation is only trusted certified: pins honoured, then the
  // full E2xx certifier.
  const schedule::Binding binding =
      outcome.continuation.result.dense_binding(residual.assay);
  for (const auto& [op, device] : residual.pinned) {
    if (binding.device(op) != device) {
      std::ostringstream message;
      message << "in-flight operation " << residual.to_original.at(op)
              << " was re-bound away from its pinned device " << device;
      outcome.diagnostics.push_back(
          make_diagnostic(diag::codes::kRecoveryPinViolation, message.str()));
    }
  }
  const std::vector<diag::Diagnostic> certification = schedule::certify_result(
      outcome.continuation.result, residual.assay, outcome.continuation.transport);
  if (diag::has_errors(certification)) {
    diag::Diagnostic failure = make_diagnostic(
        diag::codes::kRecoveryInvalidContinuation,
        "continuation schedule failed certification (" +
            std::to_string(diag::count(certification, diag::Severity::Error)) +
            " errors)");
    for (const diag::Diagnostic& evidence : certification) {
      failure.notes.push_back(diag::Note{diag::summary_line(evidence)});
    }
    outcome.diagnostics.push_back(std::move(failure));
  }
  outcome.recovered = outcome.diagnostics.empty();
  return outcome;
}

core::MissionOutcome run_mission_reference(const model::Assay& assay,
                                           const schedule::SynthesisResult& original,
                                           const sim::RuntimeOptions& runtime,
                                           const core::MissionOptions& mission) {
  core::MissionOutcome outcome;

  // Mission state, threaded across rounds. `current_*` hold the round's
  // dense frame; the maps translate between it and the root frame. All
  // timing flows through the caller token's deadline plumbing — the loop
  // itself never reads a clock, so identical inputs stitch identical
  // outputs byte for byte.
  model::Assay current_assay = assay;
  schedule::SynthesisResult current_result = original;
  std::map<OperationId, OperationId> op_to_root;
  std::map<OperationId, OperationId> root_to_op;
  std::map<DeviceId, DeviceId> dev_to_root;
  std::map<DeviceId, DeviceId> root_to_dev;
  for (const model::Operation& op : assay.operations()) {
    op_to_root.emplace(op.id(), op.id());
    root_to_op.emplace(op.id(), op.id());
  }
  for (const model::Device& device : original.devices.devices()) {
    dev_to_root.emplace(device.id, device.id);
    root_to_dev.emplace(device.id, device.id);
  }
  std::set<DeviceId> dead;                  // root ids struck so far
  std::set<OperationId> consumed_exhausts;  // root ids of exhaustions absorbed
  Minutes clock_offset{0};
  core::RecoveryCarry carry;

  // Mirrors the fleet's sampling-horizon rule: scripted degradations or
  // transport delays make the realized end unbounded, so hazard clipping is
  // disabled for the whole mission in that case.
  constexpr Minutes kNoHorizon{std::numeric_limits<std::int64_t>::max()};
  bool unbounded_horizon = false;
  for (const sim::FaultEvent& event : runtime.faults.events) {
    if (event.kind == sim::FaultKind::Degradation ||
        event.kind == sim::FaultKind::TransportDelay) {
      unbounded_horizon = true;
    }
  }

  sim::Replayer replayer;
  sim::RuntimeOptions round_runtime = runtime;
  sim::FaultPlan root_plan = runtime.faults;  // scripted prefix + hazard samples
  const std::size_t scripted = runtime.faults.events.size();
  int next_layer = 0;

  for (;;) {
    mission.synthesis.cancel.check("recovery mission");
    const sim::CompiledSchedule compiled =
        sim::compile_schedule(current_result, current_assay);

    // Re-sample hazards against the ROOT inventory with the same
    // (seed, run) counter streams the fleet used: every draw reproduces
    // bit-identically, and the horizon extended to the continuation's
    // worst case (on the mission clock) admits exactly the failures the
    // root sampling clipped.
    if (mission.hazard != nullptr && !mission.hazard->empty()) {
      root_plan.events.resize(scripted);
      const Minutes horizon =
          unbounded_horizon ? kNoHorizon
                            : clock_offset + compiled.worst_case_end(runtime.max_attempts);
      mission.hazard->sample_into(root_plan, original.devices, mission.hazard_seed,
                                  mission.hazard_run, horizon);
    }

    // Re-anchor the root-frame plan to this round's clock and ids. Device
    // failures already in the past cannot break the replay but the hardware
    // is still gone: they are collected and struck at the next recovery.
    round_runtime.faults.events.clear();
    std::vector<sim::FaultEvent> past_failures;  // root frame
    for (const sim::FaultEvent& event : root_plan.events) {
      sim::FaultEvent local = event;
      switch (event.kind) {
        case sim::FaultKind::DeviceFailure: {
          if (dead.count(event.device) > 0) {
            continue;
          }
          const auto mapped = root_to_dev.find(event.device);
          if (mapped == root_to_dev.end()) {
            continue;
          }
          if (event.at <= clock_offset) {
            past_failures.push_back(event);
            continue;
          }
          local.device = mapped->second;
          local.at = event.at - clock_offset;
          break;
        }
        case sim::FaultKind::AttemptExhaustion: {
          if (consumed_exhausts.count(event.op) > 0) {
            continue;  // the failing capture was re-run by a recovery round
          }
          const auto mapped = root_to_op.find(event.op);
          if (mapped == root_to_op.end()) {
            continue;  // the operation already completed
          }
          local.op = mapped->second;
          break;
        }
        case sim::FaultKind::Degradation:
        case sim::FaultKind::TransportDelay: {
          if (local.device.valid()) {
            const auto mapped = root_to_dev.find(event.device);
            if (mapped == root_to_dev.end()) {
              continue;
            }
            local.device = mapped->second;
          }
          local.at = event.at > clock_offset ? event.at - clock_offset : Minutes{0};
          break;
        }
      }
      round_runtime.faults.events.push_back(local);
    }

    const sim::RunTrace trace = replayer.run(compiled, round_runtime);

    // Stitch this round into the end-to-end trace: root ids, mission clock,
    // layer ids renumbered sequentially.
    for (const sim::LayerTrace& layer : trace.layers) {
      sim::LayerTrace stitched;
      stitched.layer = LayerId{next_layer++};
      stitched.start = layer.start + clock_offset;
      stitched.end = layer.end + clock_offset;
      stitched.operations.reserve(layer.operations.size());
      for (const sim::OperationTrace& op : layer.operations) {
        sim::OperationTrace mapped = op;
        mapped.op = op_to_root.at(op.op);
        mapped.device = dev_to_root.at(op.device);
        mapped.start = op.start + clock_offset;
        stitched.operations.push_back(mapped);
      }
      outcome.final_trace.layers.push_back(std::move(stitched));
    }
    for (const OperationId op : trace.completed) {
      outcome.final_trace.completed.push_back(op_to_root.at(op));
    }
    outcome.final_trace.planned_fixed =
        outcome.final_trace.planned_fixed + trace.planned_fixed;
    outcome.final_trace.completed_at = clock_offset + trace.completed_at;
    outcome.final_trace.outcome = trace.outcome;

    if (trace.ok()) {
      outcome.recovered = true;
      outcome.completed_at = clock_offset + trace.completed_at;
      outcome.final_trace.failure.reset();
      outcome.final_trace.in_flight.clear();
      outcome.final_trace.lost.clear();
      return outcome;
    }

    const sim::RunFailure& failure = *trace.failure;
    const Minutes break_at = clock_offset + failure.at;

    // Devices struck alongside the break: silent past failures and failures
    // scheduled up to the break minute on other devices (the simultaneous
    // tie). Both are physically gone.
    std::set<DeviceId> also_failed;  // current ids
    std::vector<sim::FaultEvent> struck;
    for (const sim::FaultEvent& event : past_failures) {
      const auto mapped = root_to_dev.find(event.device);
      if (mapped != root_to_dev.end() && also_failed.insert(mapped->second).second) {
        struck.push_back(event);
      }
    }
    for (const sim::FaultEvent& event : round_runtime.faults.events) {
      if (event.kind != sim::FaultKind::DeviceFailure || event.at > failure.at) {
        continue;
      }
      if (failure.outcome == sim::RunOutcome::DeviceFailed &&
          event.device == failure.device) {
        continue;
      }
      if (also_failed.insert(event.device).second) {
        sim::FaultEvent root_event = event;
        root_event.device = dev_to_root.at(event.device);
        root_event.at = event.at + clock_offset;
        struck.push_back(root_event);
      }
    }

    sim::FaultEvent break_event;
    break_event.kind = failure.outcome == sim::RunOutcome::DeviceFailed
                           ? sim::FaultKind::DeviceFailure
                           : sim::FaultKind::AttemptExhaustion;
    if (failure.device.valid()) {
      break_event.device = dev_to_root.at(failure.device);
    }
    if (failure.op.valid()) {
      break_event.op = op_to_root.at(failure.op);
    }
    break_event.at = break_at;
    outcome.fault_chain.push_back(break_event);
    for (const sim::FaultEvent& event : struck) {
      outcome.fault_chain.push_back(event);
    }

    // Map the final trace's failure/in-flight/lost into the root frame in
    // case this turns out to be the last round.
    outcome.final_trace.failure = failure;
    outcome.final_trace.failure->at = break_at;
    if (failure.device.valid()) {
      outcome.final_trace.failure->device = break_event.device;
    }
    if (failure.op.valid()) {
      outcome.final_trace.failure->op = break_event.op;
    }
    outcome.final_trace.in_flight.clear();
    for (const sim::InFlightOperation& item : trace.in_flight) {
      sim::InFlightOperation mapped = item;
      mapped.op = op_to_root.at(item.op);
      mapped.device = dev_to_root.at(item.device);
      mapped.started = item.started + clock_offset;
      outcome.final_trace.in_flight.push_back(mapped);
    }
    outcome.final_trace.lost.clear();
    for (const OperationId op : trace.lost) {
      outcome.final_trace.lost.push_back(op_to_root.at(op));
    }

    core::MissionRound entry;
    entry.break_at = break_at;
    entry.outcome = failure.outcome;
    if (failure.outcome == sim::RunOutcome::DeviceFailed) {
      entry.failed_device = dev_to_root.at(failure.device);
    }

    if (outcome.rounds >= mission.max_rounds) {
      std::ostringstream message;
      message << "mission recovery budget exhausted: fault "
              << (outcome.fault_chain.size()) << " at minute " << break_at.count()
              << " arrived after the allowed " << mission.max_rounds
              << " recovery round(s)";
      diag::Diagnostic frozen =
          make_diagnostic(diag::codes::kRecoveryBudgetExhausted, message.str(),
                          "raise --recover-rounds to survive longer fault chains");
      outcome.diagnostics.push_back(std::move(frozen));
      attach_fault_chain(outcome.diagnostics, outcome.fault_chain);
      outcome.round_log.push_back(entry);
      return outcome;
    }

    // Recover a certified continuation under the round budget. A round that
    // outlives it re-runs heuristic-only and is flagged degraded; the
    // caller's own token cancels the mission.
    RecoveryOutcomeReference rec = core::run_or_degrade(
        mission.synthesis, mission.round_budget_seconds, entry.degraded,
        [&](const core::SynthesisOptions& step) {
          return recover_reference(current_assay, current_result, trace, step, carry, also_failed);
        });
    outcome.degraded = outcome.degraded || entry.degraded;
    entry.recovered = rec.recovered;
    entry.pinned_ops = static_cast<int>(rec.residual.pinned.size());

    // Elapsed-time credit granted this round: work already done by ops that
    // stay pinned on true survivors. Cumulative, hence monotone.
    Minutes credit{0};
    for (const sim::InFlightOperation& item : trace.in_flight) {
      if (also_failed.count(item.device) == 0) {
        credit = credit + item.elapsed;
      }
    }
    entry.credit = credit;
    outcome.credit_carried = outcome.credit_carried + credit;
    outcome.round_log.push_back(entry);

    if (!rec.recovered) {
      outcome.diagnostics = std::move(rec.diagnostics);
      attach_fault_chain(outcome.diagnostics, outcome.fault_chain);
      return outcome;
    }
    ++outcome.rounds;

    // Fold the struck hardware into the root-frame dead set.
    if (failure.outcome == sim::RunOutcome::DeviceFailed) {
      dead.insert(dev_to_root.at(failure.device));
    } else if (failure.op.valid()) {
      consumed_exhausts.insert(op_to_root.at(failure.op));
    }
    for (const DeviceId device : also_failed) {
      dead.insert(dev_to_root.at(device));
    }

    // Compose the id maps through the residual's dense remapping, and carry
    // the continuation's pins with their root full durations (the fallback
    // when a pinned device later dies and the credit is lost).
    std::map<OperationId, OperationId> next_op_to_root;
    std::map<OperationId, OperationId> next_root_to_op;
    for (const auto& [residual_id, current_id] : rec.residual.to_original) {
      const OperationId root = op_to_root.at(current_id);
      next_op_to_root.emplace(residual_id, root);
      next_root_to_op.emplace(root, residual_id);
    }
    std::map<DeviceId, DeviceId> next_dev_to_root;
    std::map<DeviceId, DeviceId> next_root_to_dev;
    for (const auto& [current_id, residual_id] : rec.residual.device_map) {
      const DeviceId root = dev_to_root.at(current_id);
      next_dev_to_root.emplace(residual_id, root);
      next_root_to_dev.emplace(root, residual_id);
    }
    core::RecoveryCarry next_carry;
    for (const auto& [residual_id, device] : rec.residual.pinned) {
      const OperationId root = next_op_to_root.at(residual_id);
      next_carry.emplace(residual_id,
                         core::CarriedPin{device, assay.operation(root).duration()});
    }

    op_to_root = std::move(next_op_to_root);
    root_to_op = std::move(next_root_to_op);
    dev_to_root = std::move(next_dev_to_root);
    root_to_dev = std::move(next_root_to_dev);
    carry = std::move(next_carry);
    clock_offset = break_at;
    current_assay = std::move(rec.residual.assay);
    current_result = std::move(rec.continuation.result);
  }
}

}  // namespace cohls::oracles
