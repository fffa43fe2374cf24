// Critical-path list scheduler with objective-aware binding. This is the
// scalable engine behind LayerSynthesizer: it builds a feasible sub-schedule
// for one layer, re-using inherited devices first (Sec. 3.2's inheritance
// rule) and instantiating minimally-configured new devices only when that
// scores better under the paper's objective. It also serves, with exact
// signature matching, as the engine of the modified conventional baseline.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "model/compatibility.hpp"
#include "model/cost_model.hpp"
#include "schedule/transport_plan.hpp"
#include "schedule/types.hpp"

namespace cohls::schedule {

/// A device configuration some *other* layer is known to integrate (from
/// the previous re-synthesis iteration). Binding to a hint instantiates the
/// device here but charges no integration cost — the chip pays for it once
/// regardless of which layer triggers the integration (Fig. 6).
struct DeviceHint {
  model::DeviceConfig config;
  /// Caller-defined key reported back when the hint is consumed.
  int key = 0;
};

/// Everything the scheduler needs to place one layer's operations.
struct LayerRequest {
  LayerId layer;
  /// Operations allocated to this layer. One listed more than once is
  /// placed once; indeterminate ones are placed in first-listed order.
  std::vector<OperationId> ops;
  /// Binding of operations in earlier layers (for transport and paths);
  /// empty in the first layer.
  Binding prior_binding;
  /// Devices this layer may re-use without integration cost.
  std::vector<DeviceId> usable_devices;
  /// Configurations of devices a later layer will integrate anyway.
  std::vector<DeviceHint> hints;
  /// Paths already committed by earlier layers (new ones cost C_p).
  PathMatrix existing_paths;
  /// Operations that must execute on a specific usable device (recovery
  /// re-synthesis pins in-flight operations to the device already running
  /// them). Pinned devices must appear in `usable_devices`; scheduling a
  /// pinned operation considers no other binding.
  std::map<OperationId, DeviceId> pinned;
  /// May the scheduler instantiate new devices?
  bool allow_new_devices = true;
  /// Fixed-time-slot scheduling: when positive, every start time is rounded
  /// up to a multiple of this slot length. Zero = continuous start times
  /// (the component-oriented default). The conventional baseline quantizes,
  /// reproducing the "fixed-time-slot scheduling methods" the paper's
  /// introduction calls insufficient.
  Minutes slot_size{0};
  /// Binding predicate; defaults to the component-oriented rule
  /// (model::is_compatible). The conventional baseline swaps in exact
  /// signature matching here.
  std::function<bool(const model::Operation&, const model::DeviceConfig&)> binds;
  /// Configuration chooser for new devices; defaults to the cheapest
  /// compatible configuration.
  std::function<model::DeviceConfig(const model::Operation&)> new_config;
};

struct LayerResult {
  LayerSchedule schedule;
  /// Keys of the hints this layer consumed (instantiated locally).
  std::vector<int> consumed_hints;
};

/// Schedules one layer. New devices are appended to `inventory` (tagged with
/// the request's layer id). Throws InfeasibleError when an operation cannot
/// be placed on any device and the inventory is exhausted.
[[nodiscard]] LayerResult schedule_layer(const LayerRequest& request,
                                         const model::Assay& assay,
                                         const TransportPlan& transport,
                                         const model::CostModel& costs,
                                         model::DeviceInventory& inventory);

}  // namespace cohls::schedule
