// Cyberphysical runtime simulation of a hybrid schedule. The synthesizer
// plans fixed sub-schedules whose indeterminate tails are resolved at run
// time: a capture is checked (e.g. by a fluorescence image [12]) and re-run
// until it succeeds — [11] reports ~53% single-cell success per attempt.
// This simulator replays the layered schedule against sampled attempt
// counts — and, optionally, against a deterministic FaultPlan of hardware
// misbehaviour — and reports the realized timeline. On a happy-path run it
// demonstrates that the pre-generated schedule needs no re-synthesis: only
// the layer boundaries move. On a faulted run it reports exactly *where*
// the plan broke (the failing layer, the failed device, which operations
// completed and which were in flight), which is the input the recovery
// re-synthesizer (core/recovery.hpp) needs to build the residual assay.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/assay.hpp"
#include "schedule/types.hpp"
#include "sim/faults.hpp"

namespace cohls::sim {

struct RuntimeOptions {
  /// Per-attempt success probability of an indeterminate operation.
  double attempt_success_probability = 0.53;
  /// Hard cap on retries. Reaching it does NOT fabricate a success: the run
  /// breaks with RunOutcome::AttemptsExhausted, exactly as a real
  /// controller would alarm instead of pretending the capture worked.
  int max_attempts = 1000;
  std::uint64_t seed = 1;
  /// Deterministic fault script replayed against the schedule (empty =
  /// happy path).
  FaultPlan faults;
};

struct OperationTrace {
  OperationId op;
  DeviceId device;
  Minutes start;   ///< absolute assay-clock start
  Minutes actual;  ///< realized duration (attempts * minimum for indeterminate)
  int attempts = 1;
};

struct LayerTrace {
  LayerId layer;
  Minutes start;  ///< absolute start of this sub-schedule
  Minutes end;    ///< when every operation (incl. overruns) completed
  std::vector<OperationTrace> operations;
};

/// How the replay ended.
enum class RunOutcome {
  Completed,          ///< every operation finished
  AttemptsExhausted,  ///< an indeterminate check never passed within the cap
  DeviceFailed,       ///< a device died with unfinished work bound to it
};

[[nodiscard]] std::string_view to_string(RunOutcome outcome);

/// Where a broken run broke. `layer` is the layer whose sub-schedule was
/// active at the break; `at` is the absolute break time on the realized
/// clock.
struct RunFailure {
  RunOutcome outcome = RunOutcome::DeviceFailed;
  LayerId layer;
  /// The dead device (DeviceFailed) or invalid.
  DeviceId device;
  /// The operation that exhausted its attempts, or the earliest operation
  /// stranded on the dead device; invalid when the failure stranded no
  /// started operation.
  OperationId op;
  Minutes at{0};
  std::string detail;
};

/// An operation that was running when the run broke, on a still-healthy
/// device. Recovery pins it to its binding and credits the elapsed time.
struct InFlightOperation {
  OperationId op;
  DeviceId device;
  Minutes started{0};    ///< absolute realized start
  Minutes elapsed{0};    ///< work already done at the break
  Minutes remaining{0};  ///< realized time still needed (>= 1)
};

struct RunTrace {
  std::vector<LayerTrace> layers;
  Minutes completed_at{0};
  /// The fixed part the synthesizer promised; the difference to
  /// `completed_at` is exactly the indeterminate overrun.
  Minutes planned_fixed{0};

  RunOutcome outcome = RunOutcome::Completed;
  /// Set iff outcome != Completed.
  std::optional<RunFailure> failure;
  /// Operations that finished before the run ended (every operation on a
  /// completed run).
  std::vector<OperationId> completed;
  /// Operations running at the break on surviving devices (empty on a
  /// completed run).
  std::vector<InFlightOperation> in_flight;
  /// Operations that had started but whose work is lost: stranded on the
  /// dead device, or the exhausted operation itself. They must re-run in
  /// full.
  std::vector<OperationId> lost;

  [[nodiscard]] Minutes overrun() const { return completed_at - planned_fixed; }
  [[nodiscard]] bool ok() const { return outcome == RunOutcome::Completed; }
};

/// Replays `result` with sampled indeterminate durations and the options'
/// fault plan. Deterministic: identical inputs (schedule, assay, options)
/// produce bit-identical traces.
[[nodiscard]] RunTrace simulate_run(const schedule::SynthesisResult& result,
                                    const model::Assay& assay,
                                    const RuntimeOptions& options = {});

/// A synthesized schedule pre-resolved for replay: layer-major items with
/// cached durations and indeterminate flags, per-layer makespans, and static
/// per-device work counts. Compiling once amortizes every assay/schedule
/// lookup across the thousands of replays of a fleet sweep.
struct CompiledSchedule {
  struct Item {
    OperationId op;
    DeviceId device;
    Minutes start{0};     ///< layer-local planned start
    Minutes duration{0};  ///< fixed duration or indeterminate minimum
    bool indeterminate = false;
    bool has_transport = false;  ///< outgoing transport slot > 0
  };
  struct Layer {
    LayerId id;
    std::size_t first = 0;  ///< index of the layer's first item
    std::size_t count = 0;
    Minutes makespan{0};
  };

  std::vector<Item> items;  ///< layer-major, schedule order
  std::vector<Layer> layers;
  Minutes planned_fixed{0};  ///< sum of layer makespans
  int device_limit = 0;      ///< 1 + largest bound device id
  /// Static number of scheduled items per device id; a device failure can
  /// only break a run while its pending count is positive.
  std::vector<int> device_load;

  /// Latest minute any replay of this schedule can still have unfinished
  /// work, assuming no degradation or transport-delay faults: every
  /// indeterminate item at its attempt cap. A device failure sampled at or
  /// after this bound can never strand anything, so fleet hazard sampling
  /// clips there instead of posting provably inert events.
  [[nodiscard]] Minutes worst_case_end(int max_attempts) const;
};

[[nodiscard]] CompiledSchedule compile_schedule(const schedule::SynthesisResult& result,
                                                const model::Assay& assay);

/// The replay result without the trace: enough for Monte-Carlo reductions
/// (outcome counts, MTTF, completion times) at a fraction of the cost of
/// assembling a RunTrace.
struct ReplaySummary {
  RunOutcome outcome = RunOutcome::Completed;
  Minutes completed_at{0};  ///< realized end (the break time on broken runs)
  Minutes planned_fixed{0};
  int break_layer = -1;  ///< layer index active at the break; -1 when completed
  DeviceId failed_device;
  OperationId failed_op;
  /// Break candidates this replay examined: the due device failures walked
  /// up to the break, plus the exhaustion when one broke the run. A traced
  /// and a summary replay of the same inputs count the same; zero for a
  /// fault-free run.
  std::uint64_t events = 0;

  [[nodiscard]] bool ok() const { return outcome == RunOutcome::Completed; }
  [[nodiscard]] Minutes overrun() const { return completed_at - planned_fixed; }
};

/// Break-scan counters, cumulative across every run of one Replayer.
struct ReplayStats {
  /// Break candidates offered to the scan: device failures on devices the
  /// schedule uses, plus every exhausted window realized.
  std::uint64_t posted = 0;
  /// Always 0; kept only while the end-to-end benchmark still reads it.
  std::uint64_t cascaded = 0;
};

/// Layer-by-layer replay engine. Each layer's windows are realized in
/// schedule order; then the failures due by the layer's drain horizon are
/// sorted and walked, together with the earliest exhausted window, and the
/// first break truncates the run. One Replayer owns all scratch state, reused
/// across runs so a steady-state fleet replay performs no allocation; it is
/// cheap to construct but NOT thread-safe — use one per worker. Results are
/// bit-identical to simulate_run{,_reference} for the same inputs.
class Replayer {
 public:
  /// Full replay with trace assembly (equivalent to simulate_run). When
  /// `summary` is non-null it also receives the trace-free digest.
  [[nodiscard]] RunTrace run(const CompiledSchedule& compiled,
                             const RuntimeOptions& options,
                             ReplaySummary* summary = nullptr);

  /// Trace-free replay for fleet reductions: a break truncates the run
  /// without materializing the remaining windows.
  [[nodiscard]] ReplaySummary run_summary(const CompiledSchedule& compiled,
                                          const RuntimeOptions& options);

  /// Cumulative break-scan statistics across every run of this Replayer.
  [[nodiscard]] const ReplayStats& wheel_stats() const { return stats_; }

 private:
  /// One realized execution window (same quantity the reference's pass 1
  /// materializes, but created lazily layer by layer).
  struct Window {
    OperationId op;
    DeviceId device;
    int layer_index = 0;
    Minutes start{0};
    Minutes actual{0};
    int attempts = 1;
    bool exhausted = false;

    [[nodiscard]] Minutes completion() const { return start + actual; }
  };
  struct BreakPoint {
    Minutes at{0};
    RunOutcome outcome = RunOutcome::DeviceFailed;
    int layer_index = 0;
    DeviceId device;
    OperationId op;
  };

  /// A device failure on a used device: its minute clamped at 0, the device
  /// id and its index into the options' fault plan. Sorted by all three
  /// when due, so same-minute failures break in device-id, then plan order.
  struct PendingFailure {
    std::int64_t minute = 0;
    std::int32_t device = 0;
    std::uint32_t index = 0;
  };

  [[nodiscard]] ReplaySummary replay(const CompiledSchedule& compiled,
                                     const RuntimeOptions& options, RunTrace* trace);

  ReplayStats stats_;
  std::vector<Window> windows_;
  std::vector<Minutes> layer_begin_;
  std::vector<Minutes> layer_finish_;
  /// Windows realized so far per device id. A failure at time t "affects"
  /// its device iff some window there still finishes after t; windows of
  /// unrealized layers all do (they start after the drain horizon), so the
  /// count answers the unrealized half and one scan of `windows_` answers
  /// the realized half exactly.
  std::vector<int> device_realized_;
  /// This run's failures; each drain sorts and walks the due ones after
  /// the prefix earlier drains walked.
  std::vector<PendingFailure> failures_;
  /// The run's other faults split by kind, in plan order.
  std::vector<FaultEvent> degrade_events_;
  std::vector<FaultEvent> transport_events_;
  std::vector<OperationId> exhausted_ops_;
};

}  // namespace cohls::sim
