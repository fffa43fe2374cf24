// Degraded-mode recovery re-synthesis. When a cyberphysical run breaks
// mid-assay (sim::RunTrace with a RunFailure), the chip is already
// fabricated and partially executed: completed operations hold their
// products, in-flight operations sit mid-execution on healthy devices, and
// a failed device (if any) is gone for good. Recovery re-enters the
// existing layering + progressive re-synthesis flow on the *residual*
// assay — the outstanding work only — under run-time constraints: no new
// devices (the chip cannot grow), the failed device struck from the
// inventory, and in-flight operations pinned to the device already running
// them with credit for the time they have already spent.
//
// The contract is certified-or-diagnosed: recover() either returns a
// continuation schedule that passes the full E2xx certifier, or a
// structured COHLS-E3xx diagnostic explaining why the fault cannot be
// scheduled around. It never fabricates a continuation.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "core/options.hpp"
#include "core/progressive_resynthesis.hpp"
#include "diag/diagnostic.hpp"
#include "sim/hazard.hpp"
#include "sim/runtime.hpp"

namespace cohls::core {

/// A pin carried across recovery rounds. When a continuation breaks before a
/// previously in-flight operation has re-started, its fluid still sits
/// mid-execution on the pinned device: the operation keeps the pin and its
/// reduced (remaining) duration. If that device later dies, the credit is
/// physically lost and the operation must re-run at `full_duration` — its
/// duration in the ROOT assay, not the already-credited residual one.
struct CarriedPin {
  DeviceId device;         ///< current-schedule device id holding the fluid
  Minutes full_duration{0};  ///< root duration restored when the credit is lost
};

/// Keyed by *current-round* operation id (the assay recover() is called on).
using RecoveryCarry = std::map<OperationId, CarriedPin>;

/// The outstanding work of a broken run, re-expressed as a standalone assay
/// with dense operation ids (ascending original order, so parents precede
/// children by construction). The id translations are dense frames: one
/// entry per id of the frame they are indexed by, an invalid id where the
/// other frame has no counterpart.
struct ResidualAssay {
  model::Assay assay{"residual"};
  /// Indexed by residual id: the original id.
  std::vector<OperationId> to_original;
  /// Indexed by original id: the residual id, invalid for completed
  /// originals.
  std::vector<OperationId> from_original;
  /// In-flight residual operations, pinned to the surviving device (by
  /// *surviving* id) already running them. Their residual duration is the
  /// realized time still needed — elapsed work is credited, not repeated.
  /// Only pins are held, so a map stays (PassPolicy::pinned takes it).
  std::map<OperationId, DeviceId> pinned;
  /// The surviving chip: configs in surviving-id order (0, 1, ...).
  std::vector<model::DeviceConfig> surviving_devices;
  /// Indexed by original device id: the surviving id, invalid for failed
  /// devices.
  std::vector<DeviceId> device_map;
};

struct RecoveryOutcome {
  /// True iff `continuation` exists and passed the certifier.
  bool recovered = false;
  /// The certified continuation schedule over the residual assay. Its
  /// device ids are surviving ids (see ResidualAssay::device_map); layer 0
  /// resumes exactly at the break point.
  SynthesisReport continuation;
  ResidualAssay residual;
  /// Empty iff recovered. Otherwise COHLS-E3xx (plus any certifier E2xx
  /// evidence attached under an E302).
  std::vector<diag::Diagnostic> diagnostics;
};

/// Builds the residual assay of a broken run: completed operations are
/// dropped (and their parent edges with them), in-flight operations keep
/// only their remaining realized duration and a device pin, lost operations
/// (stranded on the dead device, or exhausted) re-run in full.
///
/// Re-entrant extensions (the mission loop threads these across rounds):
/// `carry` holds pins from a previous round that have not re-started yet —
/// the op keeps its pin and reduced duration while its device lives, and
/// falls back to the carried full (root) duration when it does not.
/// `also_failed` names devices (current ids) struck in addition to the
/// trace's breaking device: failures whose time already passed without
/// breaking the replay (nothing finished after them) still mean the
/// hardware is gone, so rebinding onto them would fabricate a continuation.
/// An op in flight on an also_failed device is treated as lost.
[[nodiscard]] ResidualAssay build_residual(const model::Assay& assay,
                                           const schedule::SynthesisResult& original,
                                           const sim::RunTrace& trace,
                                           const RecoveryCarry& carry = {},
                                           const std::set<DeviceId>& also_failed = {});

/// Re-synthesizes the residual assay on the surviving chip. `options` is
/// the original synthesis configuration; recovery overrides the device
/// budget (fixed to the surviving inventory) and forbids new devices.
/// Throws CancelledError when options.cancel fires; every other failure is
/// reported as a diagnostic, never an exception. `carry`/`also_failed` as
/// in build_residual.
[[nodiscard]] RecoveryOutcome recover(const model::Assay& assay,
                                      const schedule::SynthesisResult& original,
                                      const sim::RunTrace& trace,
                                      const SynthesisOptions& options = {},
                                      const RecoveryCarry& carry = {},
                                      const std::set<DeviceId>& also_failed = {});

/// The note an E3xx diagnostic carries for one fault of a mission's chain:
/// "fault chain: " and the event as one directive of the fault-plan text
/// format, which sim::parse_fault_plan reads back. An exhaustion's break
/// minute, which that format does not carry, follows as a "# at <minute>"
/// comment.
[[nodiscard]] diag::Note fault_chain_note(const sim::FaultEvent& event);

// ---------------------------------------------------------------------------
// Re-entrant multi-fault recovery missions
// ---------------------------------------------------------------------------

struct MissionOptions {
  /// Synthesis configuration for every recovery round. `synthesis.cancel`
  /// is the caller's (job) token: an explicit stop or its deadline always
  /// propagates as CancelledError.
  SynthesisOptions synthesis{};
  /// Recovery rounds allowed before the mission freezes with E305 — i.e.
  /// the number of faults the mission may survive. 1 reproduces the
  /// single-fault behaviour of recover().
  int max_rounds = 3;
  /// Per-round wall budget in seconds (0 = none), laid over the caller
  /// token by core::run_or_degrade: a round that outlives it re-runs
  /// heuristic-only (ILP off) and marks the mission `degraded` instead of
  /// failing it. All mission timing flows through this deadline plumbing;
  /// the loop itself never reads a clock, keeping stitched outputs
  /// byte-deterministic.
  double round_budget_seconds = 0.0;
  /// Optional hazard model re-sampled each round against the ROOT inventory
  /// with the same (seed, run) counter streams — identical draws, extended
  /// horizon `clock_offset + continuation worst_case_end` — so continuation
  /// replays admit exactly the failures the fleet's root sampling clipped.
  const sim::HazardModel* hazard = nullptr;
  std::uint64_t hazard_seed = 1;
  std::uint64_t hazard_run = 0;
};

/// One replay→recover round of a mission.
struct MissionRound {
  Minutes break_at{0};  ///< mission (root) clock of the break
  sim::RunOutcome outcome = sim::RunOutcome::DeviceFailed;
  DeviceId failed_device;  ///< root id; invalid for attempt exhaustion
  int pinned_ops = 0;      ///< in-flight ops carried into the continuation
  Minutes credit{0};       ///< elapsed-time credit granted this round
  bool degraded = false;   ///< outlived the round budget; re-run heuristic-only
  bool recovered = false;  ///< the round produced a certified continuation
};

/// Composite outcome of an iterated replay→recover→re-certify mission.
struct MissionOutcome {
  /// True iff the final continuation replayed to completion and every
  /// recovery round along the way was certified ("recovered after k
  /// faults", k = rounds).
  bool recovered = false;
  bool degraded = false;  ///< any round was degraded
  int rounds = 0;         ///< recovery rounds performed (faults survived)
  Minutes completed_at{0};    ///< mission-clock end when recovered
  Minutes credit_carried{0};  ///< cumulative elapsed-time credit (monotone)
  std::vector<MissionRound> round_log;
  /// Every fault the mission absorbed, on the root clock with root ids
  /// (breaking faults and silently-struck past failures alike).
  std::vector<sim::FaultEvent> fault_chain;
  /// Stitched end-to-end trace: layers of every round appended with root
  /// operation/device ids and mission-clock times (layer ids renumbered
  /// sequentially); `completed` accumulates across rounds; failure/
  /// in-flight/lost reflect the final round.
  sim::RunTrace final_trace;
  /// Empty iff recovered; E3xx otherwise, with the fault chain in notes.
  std::vector<diag::Diagnostic> diagnostics;
};

/// Runs the re-entrant mission loop: replay the schedule under `runtime`
/// (scripted faults on the root clock, plus optional per-round hazard
/// re-sampling), and on each break recover a certified continuation —
/// threading surviving inventory, elapsed-time credit and carried pins —
/// until the replay completes, recovery fails (frozen E3xx), or
/// `max_rounds` is exhausted (E305). Throws CancelledError when the caller's
/// token fires (an explicit stop or its deadline).
[[nodiscard]] MissionOutcome run_mission(const model::Assay& assay,
                                         const schedule::SynthesisResult& original,
                                         const sim::RuntimeOptions& runtime,
                                         const MissionOptions& mission = {});

}  // namespace cohls::core
