// Event-driven replay on the sim::EventWheel calendar queue. The schedule is
// compiled once (compile_schedule) and each run posts operation-start,
// completion, attempt-exhaustion and device-failure events which drain in
// (time, type, key, seq) order; the first break event truncates the run
// without realizing the remaining layers or rescanning any window list. The
// output is bit-identical to the original three-pass implementation, which
// the tests keep as a differential oracle (the reference replay in
// tests/support):
//
//  - RNG draws happen at layer-realization time in schedule order, so the
//    draw sequence for every computed layer matches the reference; layers
//    skipped after a break would only have consumed *further* draws, which
//    cannot affect the truncated trace.
//  - A device failure at minute T breaks the run iff some window on the
//    device still finishes after T. Windows of unrealized layers all do
//    (they start at or after the drain horizon, hence after T), which the
//    realized-count-vs-static-load comparison answers in O(1); realized
//    windows are answered by one scan of the window list, performed at most
//    once per run because the first break truncates it. This replaces
//    per-event pending-count bookkeeping, so a summary replay posts only
//    the events that can break a run (failures and exhaustions).
//  - Same-instant events drain completions first (releasing devices before a
//    failure looks for stranded work), then device failures by device id,
//    then exhaustions by operation id — exactly the reference's Break::beats
//    tie-break — then starts (a window starting at T is not stranded by a
//    failure at T).
#include "sim/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace cohls::sim {

namespace {

Minutes degraded(Minutes base, double factor) {
  if (factor <= 1.0) {
    return base;
  }
  return Minutes{static_cast<std::int64_t>(
      std::ceil(static_cast<double>(base.count()) * factor))};
}

/// Product of the active degradations for work starting at `start` on
/// `device`, in plan order (floating-point products are order-sensitive, and
/// the split preserves the plan's relative event order).
double degradation_factor(const std::vector<FaultEvent>& degrades, DeviceId device,
                          Minutes start) {
  double factor = 1.0;
  for (const FaultEvent& event : degrades) {
    if (event.device == device && event.at <= start) {
      factor *= event.factor;
    }
  }
  return factor;
}

Minutes transport_delay(const std::vector<FaultEvent>& transports, Minutes at) {
  Minutes delay{0};
  for (const FaultEvent& event : transports) {
    if (event.at <= at) {
      delay += event.delay;
    }
  }
  return delay;
}

bool exhausts(const std::vector<OperationId>& exhausted, OperationId op) {
  return std::find(exhausted.begin(), exhausted.end(), op) != exhausted.end();
}

}  // namespace

std::string_view to_string(RunOutcome outcome) {
  switch (outcome) {
    case RunOutcome::Completed:
      return "completed";
    case RunOutcome::AttemptsExhausted:
      return "attempts-exhausted";
    case RunOutcome::DeviceFailed:
      return "device-failed";
  }
  return "unknown";
}

CompiledSchedule compile_schedule(const schedule::SynthesisResult& result,
                                  const model::Assay& assay) {
  CompiledSchedule compiled;
  compiled.layers.reserve(result.layers.size());
  std::size_t total = 0;
  for (const schedule::LayerSchedule& layer : result.layers) {
    total += layer.items.size();
  }
  compiled.items.reserve(total);

  for (const schedule::LayerSchedule& layer : result.layers) {
    CompiledSchedule::Layer compiled_layer;
    compiled_layer.id = layer.layer;
    compiled_layer.first = compiled.items.size();
    compiled_layer.count = layer.items.size();
    compiled_layer.makespan = layer.makespan();
    for (const schedule::ScheduledOperation& item : layer.items) {
      const model::Operation& op = assay.operation(item.op);
      CompiledSchedule::Item compiled_item;
      compiled_item.op = item.op;
      compiled_item.device = item.device;
      compiled_item.start = item.start;
      compiled_item.duration = op.duration();
      compiled_item.indeterminate = op.indeterminate();
      compiled_item.has_transport = item.transport > Minutes{0};
      COHLS_EXPECT(item.device.valid(), "scheduled operation without a device");
      compiled.device_limit = std::max(compiled.device_limit, item.device.value() + 1);
      compiled.items.push_back(compiled_item);
    }
    compiled.planned_fixed += compiled_layer.makespan;
    compiled.layers.push_back(compiled_layer);
  }

  compiled.device_load.assign(static_cast<std::size_t>(compiled.device_limit), 0);
  for (const CompiledSchedule::Item& item : compiled.items) {
    ++compiled.device_load[static_cast<std::size_t>(item.device.value())];
  }
  return compiled;
}

Minutes CompiledSchedule::worst_case_end(int max_attempts) const {
  COHLS_EXPECT(max_attempts >= 1, "need at least one attempt");
  Minutes end{0};
  for (const Layer& layer : layers) {
    Minutes span{0};
    for (std::size_t idx = layer.first; idx < layer.first + layer.count; ++idx) {
      const Item& item = items[idx];
      const std::int64_t attempts = item.indeterminate ? max_attempts : 1;
      span = std::max(span, item.start + attempts * item.duration);
    }
    end += span;
  }
  return end;
}

ReplaySummary Replayer::replay(const CompiledSchedule& compiled,
                               const RuntimeOptions& options, RunTrace* trace) {
  COHLS_EXPECT(options.attempt_success_probability > 0.0 &&
                   options.attempt_success_probability <= 1.0,
               "attempt success probability must be in (0, 1]");
  COHLS_EXPECT(options.max_attempts >= 1, "need at least one attempt");
  Rng rng{options.seed};

  const int layer_count = static_cast<int>(compiled.layers.size());

  // Hazard sweeps post plans holding nothing but device failures; those are
  // consumed straight from the options. Mixed plans are split by kind once
  // per run so the hot loops touch only the events that can affect them, in
  // plan order.
  degrade_events_.clear();
  transport_events_.clear();
  failure_events_.clear();
  exhausted_ops_.clear();
  const std::vector<FaultEvent>* failures = &options.faults.events;
  for (const FaultEvent& event : options.faults.events) {
    if (event.kind != FaultKind::DeviceFailure) {
      failures = &failure_events_;
      break;
    }
  }
  if (failures == &failure_events_) {
    for (const FaultEvent& event : options.faults.events) {
      switch (event.kind) {
        case FaultKind::Degradation:
          degrade_events_.push_back(event);
          break;
        case FaultKind::TransportDelay:
          transport_events_.push_back(event);
          break;
        case FaultKind::DeviceFailure:
          failure_events_.push_back(event);
          break;
        case FaultKind::AttemptExhaustion:
          exhausted_ops_.push_back(event.op);
          break;
      }
    }
  }

  windows_.clear();
  windows_.reserve(compiled.items.size());
  layer_begin_.assign(static_cast<std::size_t>(layer_count), Minutes{0});
  layer_finish_.assign(static_cast<std::size_t>(layer_count), Minutes{0});
  device_realized_.assign(static_cast<std::size_t>(compiled.device_limit), 0);

  ReplaySummary summary;
  summary.planned_fixed = compiled.planned_fixed;

  wheel_.reset(0);
  // Failures can only matter on devices the schedule actually uses; a
  // failure of an unused device can never be "affected" and is dropped here.
  for (std::size_t fi = 0; fi < failures->size(); ++fi) {
    const FaultEvent& event = (*failures)[fi];
    const int d = event.device.value();
    if (d < 0 || d >= compiled.device_limit || compiled.device_load[static_cast<std::size_t>(d)] == 0) {
      continue;
    }
    wheel_.post(Event{std::max<std::int64_t>(event.at.count(), 0),
                      EventType::DeviceFailure, d, static_cast<std::int32_t>(fi), 0});
  }
  // A summary-only replay posts the minimal event set — device failures and
  // attempt exhaustions, the only events that can break a run. Starts and
  // completions steer nothing a summary reports; a traced replay still
  // posts the full stream so the drained timeline is complete.
  const bool minimal_events = trace == nullptr;

  std::optional<BreakPoint> broke;
  Minutes clock{0};
  for (int li = 0; li < layer_count && !broke; ++li) {
    const CompiledSchedule::Layer& layer = compiled.layers[static_cast<std::size_t>(li)];
    layer_begin_[static_cast<std::size_t>(li)] = clock;
    Minutes layer_span{0};
    for (std::size_t idx = layer.first; idx < layer.first + layer.count; ++idx) {
      const CompiledSchedule::Item& item = compiled.items[idx];
      Window w;
      w.op = item.op;
      w.device = item.device;
      w.layer_index = li;
      w.start = clock + item.start;
      if (item.indeterminate) {
        if (exhausts(exhausted_ops_, item.op)) {
          w.attempts = options.max_attempts;
          w.exhausted = true;
        } else {
          // Retry until the cyberphysical check passes; the draws happen
          // here, in schedule order, to match the reference bit for bit.
          bool succeeded = rng.bernoulli(options.attempt_success_probability);
          while (!succeeded && w.attempts < options.max_attempts) {
            ++w.attempts;
            succeeded = rng.bernoulli(options.attempt_success_probability);
          }
          w.exhausted = !succeeded;
        }
      }
      const Minutes base = static_cast<std::int64_t>(w.attempts) * item.duration;
      w.actual = degraded(base, degradation_factor(degrade_events_, w.device, w.start));
      const Minutes transport_tail =
          item.has_transport ? transport_delay(transport_events_, w.completion())
                             : Minutes{0};
      layer_span = std::max(layer_span, item.start + w.actual + transport_tail);

      const std::int32_t window_index = static_cast<std::int32_t>(windows_.size());
      windows_.push_back(w);
      ++device_realized_[static_cast<std::size_t>(w.device.value())];
      if (!minimal_events) {
        wheel_.post(Event{w.start.count(), EventType::Start, window_index, window_index, 0});
        wheel_.post(Event{w.completion().count(), EventType::Completion, window_index,
                          window_index, 0});
      }
      if (w.exhausted) {
        // The controller alarms when the attempt cap trips: a break
        // candidate keyed by operation id (the reference's exhaustion
        // tie-break), losing to any same-minute device failure.
        wheel_.post(Event{w.completion().count(), EventType::Exhaustion,
                          w.op.value(), window_index, 0});
      }
    }
    clock += layer_span;
    layer_finish_[static_cast<std::size_t>(li)] = clock;

    // Drain this layer's horizon. Events exactly on a non-final boundary are
    // deferred to the next round: a boundary break belongs to the layer
    // about to run (the reference's layer_at uses `at < finish`), and the
    // next layer's starts at that same minute must be posted first.
    const std::int64_t horizon =
        li + 1 < layer_count ? clock.count() - 1 : clock.count();
    while (std::optional<Event> event = wheel_.next(horizon)) {
      ++summary.events;
      switch (event->type) {
        case EventType::Completion:
        case EventType::Start:
          break;  // neither alters a replay; posted for the trace stream
        case EventType::DeviceFailure: {
          const FaultEvent& fault = (*failures)[static_cast<std::size_t>(event->payload)];
          const std::size_t d = static_cast<std::size_t>(fault.device.value());
          // The failure breaks the run iff some window on the device still
          // finishes after it. Unrealized layers answer in O(1): every
          // window there starts after the drain horizon >= fault.at. The
          // realized half takes one scan, which also picks the stranded
          // operation — the earliest-started window still running (ties:
          // schedule order, like the reference's first-wins scan). At most
          // one failure breaks a run, so the scan happens at most once.
          bool affected = device_realized_[d] < compiled.device_load[d];
          const Window* stranded = nullptr;
          for (const Window& w : windows_) {
            if (w.device != fault.device || w.completion() <= fault.at) {
              continue;
            }
            affected = true;
            if (w.start < fault.at &&
                (stranded == nullptr || w.start < stranded->start)) {
              stranded = &w;
            }
          }
          if (!affected) {
            break;  // no unfinished work bound to the device: harmless
          }
          BreakPoint bp;
          bp.at = fault.at;
          bp.outcome = RunOutcome::DeviceFailed;
          // Binary search over the realized layer boundaries: first layer
          // finishing strictly after the break owns it.
          const auto it =
              std::upper_bound(layer_finish_.begin(),
                               layer_finish_.begin() + (li + 1), fault.at);
          bp.layer_index =
              it != layer_finish_.begin() + (li + 1)
                  ? static_cast<int>(it - layer_finish_.begin())
                  : (layer_count > 0 ? layer_count - 1 : 0);
          bp.device = fault.device;
          bp.op = stranded != nullptr ? stranded->op : OperationId{};
          broke = bp;
          break;
        }
        case EventType::Exhaustion: {
          const Window& w = windows_[static_cast<std::size_t>(event->payload)];
          BreakPoint bp;
          bp.at = w.completion();
          bp.outcome = RunOutcome::AttemptsExhausted;
          bp.layer_index = w.layer_index;
          bp.device = DeviceId{};
          bp.op = w.op;
          broke = bp;
          break;
        }
      }
      if (broke) {
        break;
      }
    }
  }

  const Minutes end_time = broke ? broke->at : clock;
  summary.completed_at = end_time;
  if (broke) {
    summary.outcome = broke->outcome;
    summary.break_layer = broke->layer_index;
    summary.failed_device = broke->device;
    summary.failed_op = broke->op;
  }

  if (trace == nullptr) {
    return summary;
  }

  // Trace assembly over the computed prefix only: every window of an
  // unrealized layer starts at or after the break, so the reference's full
  // scans would skip it anyway.
  trace->planned_fixed = compiled.planned_fixed;
  trace->completed_at = end_time;
  const int last_layer = broke ? broke->layer_index : layer_count - 1;
  for (int li = 0; li <= last_layer && li < layer_count; ++li) {
    const CompiledSchedule::Layer& layer = compiled.layers[static_cast<std::size_t>(li)];
    LayerTrace layer_trace;
    layer_trace.layer = layer.id;
    layer_trace.start = layer_begin_[static_cast<std::size_t>(li)];
    layer_trace.end = std::min(layer_finish_[static_cast<std::size_t>(li)], end_time);
    for (std::size_t idx = layer.first;
         idx < layer.first + layer.count && idx < windows_.size(); ++idx) {
      const Window& w = windows_[idx];
      if (w.start >= end_time) {
        continue;  // never started before the break
      }
      layer_trace.operations.push_back(
          OperationTrace{w.op, w.device, w.start, w.actual, w.attempts});
    }
    trace->layers.push_back(std::move(layer_trace));
  }

  for (const Window& w : windows_) {
    if (w.exhausted) {
      // An exhausted check never produced a usable result, no matter when
      // the run broke; its work is void.
      if (w.start < end_time) {
        trace->lost.push_back(w.op);
      }
      continue;
    }
    if (w.completion() <= end_time) {
      trace->completed.push_back(w.op);
    } else if (w.start < end_time) {
      if (broke && broke->outcome == RunOutcome::DeviceFailed &&
          w.device == broke->device) {
        trace->lost.push_back(w.op);  // stranded on the dead device
      } else {
        trace->in_flight.push_back(InFlightOperation{
            w.op, w.device, w.start, end_time - w.start, w.completion() - end_time});
      }
    }
  }

  if (broke) {
    trace->outcome = broke->outcome;
    RunFailure failure;
    failure.outcome = broke->outcome;
    failure.layer = broke->layer_index < layer_count
                        ? compiled.layers[static_cast<std::size_t>(broke->layer_index)].id
                        : LayerId{};
    failure.device = broke->device;
    failure.op = broke->op;
    failure.at = broke->at;
    std::ostringstream detail;
    if (broke->outcome == RunOutcome::DeviceFailed) {
      detail << "device " << broke->device << " failed at minute " << broke->at.count()
             << " in layer " << failure.layer;
      if (broke->op.valid()) {
        detail << " stranding operation " << broke->op;
      }
    } else {
      detail << "operation " << broke->op << " exhausted " << options.max_attempts
             << " attempts at minute " << broke->at.count() << " in layer "
             << failure.layer;
    }
    failure.detail = detail.str();
    trace->failure = failure;
  }
  return summary;
}

RunTrace Replayer::run(const CompiledSchedule& compiled, const RuntimeOptions& options,
                       ReplaySummary* summary) {
  RunTrace trace;
  const ReplaySummary digest = replay(compiled, options, &trace);
  if (summary != nullptr) {
    *summary = digest;
  }
  return trace;
}

ReplaySummary Replayer::run_summary(const CompiledSchedule& compiled,
                                    const RuntimeOptions& options) {
  return replay(compiled, options, nullptr);
}

RunTrace simulate_run(const schedule::SynthesisResult& result, const model::Assay& assay,
                      const RuntimeOptions& options) {
  const CompiledSchedule compiled = compile_schedule(result, assay);
  Replayer replayer;
  return replayer.run(compiled, options);
}

}  // namespace cohls::sim
