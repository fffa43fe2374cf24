// Result types of the synthesis flow: per-layer sub-schedules (the hybrid
// scheduling output of Sec. 3), bindings, and the assembled SynthesisResult
// whose totals correspond to the paper's Table 2 columns (Exe.Time, #D.,
// #P.).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "model/assay.hpp"
#include "model/device.hpp"
#include "util/symbolic_duration.hpp"

namespace cohls::schedule {

/// One operation placed on the layer's local clock (0 = layer start).
struct ScheduledOperation {
  OperationId op;
  DeviceId device;
  Minutes start{0};
  /// Fixed duration, or the declared minimum for indeterminate operations.
  Minutes duration{0};
  /// Transportation time charged after completion when the consuming
  /// operation sits on a different device.
  Minutes transport{0};

  [[nodiscard]] Minutes end() const { return start + duration; }
  /// End of device occupation, including the outgoing transport slot.
  [[nodiscard]] Minutes release() const { return start + duration + transport; }
};

/// The sub-schedule of one layer.
struct LayerSchedule {
  LayerId layer;
  std::vector<ScheduledOperation> items;

  /// Layer makespan: completion of the last operation (fixed part; the
  /// overrun of indeterminate operations is symbolic).
  [[nodiscard]] Minutes makespan() const;
  [[nodiscard]] bool has_indeterminate(const model::Assay& assay) const;
  [[nodiscard]] const ScheduledOperation* find(OperationId op) const;
};

/// An unordered device pair connected by a flow-channel path.
using DevicePath = std::pair<DeviceId, DeviceId>;

[[nodiscard]] DevicePath make_path(DeviceId a, DeviceId b);

/// Complete synthesis output for one assay.
struct SynthesisResult {
  std::vector<LayerSchedule> layers;
  model::DeviceInventory devices{1};

  /// Device executing each operation (union over layers).
  [[nodiscard]] std::map<OperationId, DeviceId> binding() const;

  /// binding() as a flat array indexed by operation id, sized to the assay;
  /// std::nullopt marks an operation no layer schedules. Throws
  /// PreconditionError when an item's operation lies outside the assay.
  [[nodiscard]] std::vector<std::optional<DeviceId>> dense_binding(
      const model::Assay& assay) const;

  /// Distinct inter-device paths implied by parent->child transfers, both
  /// within and across layers (sum_p).
  [[nodiscard]] std::set<DevicePath> paths(const model::Assay& assay) const;
  [[nodiscard]] int path_count(const model::Assay& assay) const;

  /// Devices actually used by at least one operation.
  [[nodiscard]] int used_device_count() const;

  /// Total assay execution time in the paper's notation: the sum of layer
  /// makespans plus one symbol per layer ending in indeterminate operations.
  [[nodiscard]] SymbolicDuration total_time(const model::Assay& assay) const;
};

}  // namespace cohls::schedule
