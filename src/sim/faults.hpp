// Deterministic cyberphysical fault plans. A FaultPlan is a seeded,
// replayable script of hardware misbehaviour the runtime simulator injects
// into a synthesized schedule: devices that die mid-assay (stuck sieve
// valves, dead heating pads), accessory degradation that inflates execution
// times, indeterminate operations whose cyberphysical check never passes
// (attempt exhaustion), and congested transport channels. Plans are plain
// text, one directive per line:
//
//   # comments and blank lines are ignored
//   device-fail <device-id> at <minute>        # device dies at assay minute
//   degrade <device-id> by <factor> [from <minute>]
//                                              # durations on the device are
//                                              # inflated by <factor> (>= 1)
//   exhaust <op-id>                            # the indeterminate operation
//                                              # never passes its check
//   transport-delay <minutes> [from <minute>]  # every outgoing transfer is
//                                              # slowed by <minutes>
//
// Lines, comments and numbers follow util/lexer.hpp: ids are int32, minutes
// int64 and factors finite reals.
//
// The same plan replayed against the same schedule and seed produces a
// bit-identical RunTrace — fault experiments are reproducible by
// construction.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/ids.hpp"
#include "util/time.hpp"

namespace cohls::sim {

enum class FaultKind {
  DeviceFailure,      ///< the device stops executing at `at`
  Degradation,        ///< durations on the device inflate by `factor` from `at`
  AttemptExhaustion,  ///< the indeterminate op `op` never succeeds
  TransportDelay,     ///< outgoing transfers gain `delay` minutes from `at`
};

[[nodiscard]] std::string_view to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::DeviceFailure;
  /// Target device (DeviceFailure, Degradation); invalid otherwise.
  DeviceId device{};
  /// Target operation (AttemptExhaustion); invalid otherwise.
  OperationId op{};
  /// Activation time on the realized assay clock (0 = active from start).
  Minutes at{0};
  /// Duration inflation (Degradation); must be >= 1.
  double factor = 1.0;
  /// Extra transfer time (TransportDelay).
  Minutes delay{0};

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Raised by parse_fault_plan on a malformed directive. Carries the
/// offending 1-based line so CLIs can point at it.
class FaultPlanError : public std::runtime_error {
 public:
  FaultPlanError(const std::string& message, int line)
      : std::runtime_error(message), line_(line) {}

  [[nodiscard]] int line() const { return line_; }

 private:
  int line_ = 0;
};

/// An ordered script of fault events. Helpers answer the questions the
/// simulator asks while replaying a schedule.
struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }

  /// Earliest failure time of `device`, if the plan fails it at all.
  [[nodiscard]] std::optional<Minutes> device_failure_at(DeviceId device) const;

  /// Combined duration-inflation factor for work starting at `start` on
  /// `device` (product of all active degradations; 1.0 = healthy).
  [[nodiscard]] double degradation_factor(DeviceId device, Minutes start) const;

  /// True when the plan exhausts the indeterminate operation `op`.
  [[nodiscard]] bool exhausts(OperationId op) const;

  /// Extra transport minutes for a transfer happening at `at`.
  [[nodiscard]] Minutes transport_delay(Minutes at) const;
};

/// Parses the fault-plan text format documented above. Throws
/// FaultPlanError on malformed directives.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& text);

/// Renders a plan back to the text format; parsing it gives back the same
/// events, factors bit for bit.
[[nodiscard]] std::string to_text(const FaultPlan& plan);

}  // namespace cohls::sim
