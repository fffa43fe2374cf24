// Test-only recovery reference: the map-based build_residual, recover and
// run_mission that core/recovery replaced with dense per-id frames. Every
// id translation here is a std::map or std::set lookup, and the mission
// loop copies the caller's assay and schedule before its first round. The
// dense implementation must produce the same residual assays (its id
// vectors read back as these maps) and the same mission outcomes, field
// for field; `ResidualReference.*` and `MissionReference.*` hold it to that.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "core/recovery.hpp"

namespace cohls::oracles {

/// core::ResidualAssay with its id translations as maps.
struct ResidualAssayReference {
  model::Assay assay{"residual"};
  /// residual id -> original id.
  std::map<OperationId, OperationId> to_original;
  /// original id -> residual id (completed originals are absent).
  std::map<OperationId, OperationId> from_original;
  std::map<OperationId, DeviceId> pinned;
  std::vector<model::DeviceConfig> surviving_devices;
  /// original device id -> surviving device id (failed devices are absent).
  std::map<DeviceId, DeviceId> device_map;
};

struct RecoveryOutcomeReference {
  bool recovered = false;
  core::SynthesisReport continuation;
  ResidualAssayReference residual;
  std::vector<diag::Diagnostic> diagnostics;
};

[[nodiscard]] ResidualAssayReference build_residual_reference(
    const model::Assay& assay, const schedule::SynthesisResult& original,
    const sim::RunTrace& trace, const core::RecoveryCarry& carry = {},
    const std::set<DeviceId>& also_failed = {});

[[nodiscard]] RecoveryOutcomeReference recover_reference(
    const model::Assay& assay, const schedule::SynthesisResult& original,
    const sim::RunTrace& trace, const core::SynthesisOptions& options = {},
    const core::RecoveryCarry& carry = {}, const std::set<DeviceId>& also_failed = {});

[[nodiscard]] core::MissionOutcome run_mission_reference(
    const model::Assay& assay, const schedule::SynthesisResult& original,
    const sim::RuntimeOptions& runtime, const core::MissionOptions& mission = {});

}  // namespace cohls::oracles
