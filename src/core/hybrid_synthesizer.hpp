// One full synthesis pass over a layered assay (the inner loop of
// Sec. 3.2). Layers are synthesized in order; the device set D grows
// monotonically (D_i = D_{i-1} ∪ D'_i); devices known to be integrated by
// later layers (from the previous re-synthesis iteration) are offered as
// zero-cost hints.
#pragma once

#include <functional>

#include "core/layer_synthesizer.hpp"
#include "core/layering.hpp"
#include "core/options.hpp"
#include "schedule/types.hpp"

namespace cohls::core {

/// A device the previous iteration's pass integrated, usable as a hint.
struct KnownDevice {
  model::DeviceConfig config;
  /// Layer (index into the plan) whose synthesis created it.
  int created_in_layer = 0;
};

/// Customization hooks shared with the conventional baseline and the
/// degraded-mode recovery re-synthesizer.
struct PassPolicy {
  /// Binding predicate override (empty = component-oriented rule).
  std::function<bool(const model::Operation&, const model::DeviceConfig&)> binds;
  /// New-device configuration override (empty = cheapest compatible).
  std::function<model::DeviceConfig(const model::Operation&)> new_config;
  /// Fixed-time-slot quantization (0 = continuous start times).
  Minutes slot_size{0};
  /// Devices already on the chip before the pass (recovery: the surviving
  /// inventory of a mid-run chip). They are instantiated, in order, into
  /// every pass's fresh inventory with an invalid creation layer (sunk
  /// cost, like user-provided hardware); their DeviceIds are their indexes
  /// here.
  std::vector<model::DeviceConfig> initial_devices;
  /// Operations that must bind to a specific initial device (recovery pins
  /// in-flight operations to the device already running them).
  std::map<OperationId, DeviceId> pinned;
  /// When false, no layer may instantiate devices beyond initial_devices —
  /// a fabricated chip cannot grow at run time.
  bool allow_new_devices = true;
};

/// Runs one pass. `known_devices` may be empty (first iteration). In later
/// iterations, layer L_i sees the configs created by layers *after* i as
/// hints (D \ D'_i inheritance). When `path_count` is given, it receives
/// the result's path count (result.path_count(assay)), read off the path
/// matrix the pass keeps anyway.
[[nodiscard]] schedule::SynthesisResult run_pass(
    const model::Assay& assay, const LayerPlan& plan,
    const schedule::TransportPlan& transport, const SynthesisOptions& options,
    const std::vector<KnownDevice>& known_devices = {}, const PassPolicy& policy = {},
    int* path_count = nullptr);

}  // namespace cohls::core
