// The original three-pass replay: realize every window, scan the full
// window list for the earliest break, then assemble the trace. Kept verbatim
// as the differential-testing oracle for the break-scan replay in
// sim/runtime.cpp and as the baseline of bench_sim — every behavioural detail
// here (RNG draw order, tie-breaks, boundary ownership) is the contract the
// layer-by-layer replay must reproduce bit-identically.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/runtime_reference.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cohls::oracles {

using sim::FaultEvent;
using sim::FaultKind;
using sim::FaultPlan;
using sim::InFlightOperation;
using sim::LayerTrace;
using sim::OperationTrace;
using sim::RunFailure;
using sim::RunOutcome;
using sim::RunTrace;
using sim::RuntimeOptions;

namespace {

/// One operation's realized execution window, before fault truncation.
struct Window {
  OperationId op;
  DeviceId device;
  int layer_index = 0;
  Minutes start{0};
  Minutes actual{0};
  int attempts = 1;
  /// The cyberphysical check never passed (scripted, or the random attempt
  /// cap was hit). The window's end is where the controller alarms.
  bool exhausted = false;

  [[nodiscard]] Minutes completion() const { return start + actual; }
};

/// A candidate break point; the earliest one wins (ties: device failures
/// before exhaustions, then lower device/op id — fully deterministic).
struct Break {
  Minutes at{0};
  RunOutcome outcome = RunOutcome::DeviceFailed;
  int layer_index = 0;
  DeviceId device;
  OperationId op;

  [[nodiscard]] bool beats(const Break& other) const {
    if (at != other.at) {
      return at < other.at;
    }
    if (outcome != other.outcome) {
      return outcome == RunOutcome::DeviceFailed;
    }
    if (device != other.device) {
      return device < other.device;
    }
    return op < other.op;
  }
};

Minutes degraded(Minutes base, double factor) {
  if (factor <= 1.0) {
    return base;
  }
  return Minutes{static_cast<std::int64_t>(
      std::ceil(static_cast<double>(base.count()) * factor))};
}

}  // namespace

RunTrace simulate_run_reference(const schedule::SynthesisResult& result,
                                const model::Assay& assay,
                                const RuntimeOptions& options) {
  COHLS_EXPECT(options.attempt_success_probability > 0.0 &&
                   options.attempt_success_probability <= 1.0,
               "attempt success probability must be in (0, 1]");
  COHLS_EXPECT(options.max_attempts >= 1, "need at least one attempt");
  Rng rng{options.seed};
  const FaultPlan& faults = options.faults;

  // Pass 1: realized execution windows, layer by layer, as if nothing dies.
  // Degradation inflates durations; scripted exhaustion caps attempts;
  // transport congestion stretches the layer span of operations with
  // outgoing transfers.
  const int layer_count = static_cast<int>(result.layers.size());
  std::vector<Window> windows;
  std::vector<Minutes> layer_begin(layer_count, Minutes{0});
  std::vector<Minutes> layer_finish(layer_count, Minutes{0});

  RunTrace trace;
  Minutes clock{0};
  for (int li = 0; li < layer_count; ++li) {
    const schedule::LayerSchedule& layer = result.layers[li];
    layer_begin[li] = clock;
    Minutes layer_span{0};
    for (const schedule::ScheduledOperation& item : layer.items) {
      const model::Operation& op = assay.operation(item.op);
      Window w;
      w.op = item.op;
      w.device = item.device;
      w.layer_index = li;
      w.start = clock + item.start;
      if (op.indeterminate()) {
        if (faults.exhausts(item.op)) {
          w.attempts = options.max_attempts;
          w.exhausted = true;
        } else {
          // Retry until the cyberphysical check passes; each attempt repeats
          // the operation's minimum duration. Running out of attempts is a
          // failure, never a fabricated success.
          bool succeeded = rng.bernoulli(options.attempt_success_probability);
          while (!succeeded && w.attempts < options.max_attempts) {
            ++w.attempts;
            succeeded = rng.bernoulli(options.attempt_success_probability);
          }
          w.exhausted = !succeeded;
        }
      }
      const Minutes base = static_cast<std::int64_t>(w.attempts) * op.duration();
      w.actual = degraded(base, faults.degradation_factor(w.device, w.start));
      const Minutes transport_tail =
          item.transport > Minutes{0} ? faults.transport_delay(w.completion())
                                      : Minutes{0};
      layer_span = std::max(layer_span, item.start + w.actual + transport_tail);
      windows.push_back(w);
    }
    clock += layer_span;
    layer_finish[li] = clock;
    trace.planned_fixed += layer.makespan();
  }

  // Pass 2: earliest break point, if any.
  std::optional<Break> broke;
  const auto offer = [&broke](const Break& candidate) {
    if (!broke || candidate.beats(*broke)) {
      broke = candidate;
    }
  };
  // The layer whose sub-schedule is active at time `at`; a break exactly on
  // a boundary belongs to the layer about to run — the paper's layer-boundary
  // decision point.
  const auto layer_at = [&](Minutes at) {
    for (int li = 0; li < layer_count; ++li) {
      if (at < layer_finish[li]) {
        return li;
      }
    }
    return layer_count > 0 ? layer_count - 1 : 0;
  };

  for (const Window& w : windows) {
    if (w.exhausted) {
      offer(Break{w.completion(), RunOutcome::AttemptsExhausted, w.layer_index,
                  DeviceId{}, w.op});
    }
  }
  for (const FaultEvent& event : faults.events) {
    if (event.kind != FaultKind::DeviceFailure) {
      continue;
    }
    // The failure matters only when unfinished work is bound to the device.
    const Window* stranded = nullptr;
    bool affected = false;
    for (const Window& w : windows) {
      if (w.device != event.device || w.completion() <= event.at) {
        continue;
      }
      affected = true;
      if (w.start < event.at && (stranded == nullptr || w.start < stranded->start)) {
        stranded = &w;
      }
    }
    if (!affected) {
      continue;
    }
    offer(Break{event.at, RunOutcome::DeviceFailed, layer_at(event.at), event.device,
                stranded != nullptr ? stranded->op : OperationId{}});
  }

  // Pass 3: assemble the trace, truncated at the break when one fired.
  const Minutes end_time = broke ? broke->at : clock;
  const int last_layer = broke ? broke->layer_index : layer_count - 1;
  for (int li = 0; li <= last_layer && li < layer_count; ++li) {
    LayerTrace layer_trace;
    layer_trace.layer = result.layers[li].layer;
    layer_trace.start = layer_begin[li];
    layer_trace.end = std::min(layer_finish[li], end_time);
    for (const Window& w : windows) {
      if (w.layer_index != li || w.start >= end_time) {
        continue;  // never started before the break
      }
      layer_trace.operations.push_back(
          OperationTrace{w.op, w.device, w.start, w.actual, w.attempts});
    }
    trace.layers.push_back(std::move(layer_trace));
  }
  trace.completed_at = end_time;

  for (const Window& w : windows) {
    if (w.exhausted) {
      // An exhausted check never produced a usable result, no matter when
      // the run broke; its work is void.
      if (w.start < end_time) {
        trace.lost.push_back(w.op);
      }
      continue;
    }
    if (w.completion() <= end_time) {
      trace.completed.push_back(w.op);
    } else if (w.start < end_time) {
      if (broke && broke->outcome == RunOutcome::DeviceFailed &&
          w.device == broke->device) {
        trace.lost.push_back(w.op);  // stranded on the dead device
      } else {
        trace.in_flight.push_back(InFlightOperation{
            w.op, w.device, w.start, end_time - w.start, w.completion() - end_time});
      }
    }
  }

  if (broke) {
    trace.outcome = broke->outcome;
    RunFailure failure;
    failure.outcome = broke->outcome;
    failure.layer = broke->layer_index < layer_count
                        ? result.layers[broke->layer_index].layer
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
    trace.failure = failure;
  }
  return trace;
}

}  // namespace cohls::oracles
