#include "schedule/types.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cohls::schedule {

Minutes LayerSchedule::makespan() const {
  Minutes latest{0};
  for (const ScheduledOperation& item : items) {
    latest = std::max(latest, item.end());
  }
  return latest;
}

bool LayerSchedule::has_indeterminate(const model::Assay& assay) const {
  return std::any_of(items.begin(), items.end(), [&](const ScheduledOperation& item) {
    return assay.operation(item.op).indeterminate();
  });
}

const ScheduledOperation* LayerSchedule::find(OperationId op) const {
  for (const ScheduledOperation& item : items) {
    if (item.op == op) {
      return &item;
    }
  }
  return nullptr;
}

DevicePath make_path(DeviceId a, DeviceId b) {
  return a < b ? DevicePath{a, b} : DevicePath{b, a};
}

std::map<OperationId, DeviceId> SynthesisResult::binding() const {
  std::map<OperationId, DeviceId> map;
  for (const LayerSchedule& layer : layers) {
    for (const ScheduledOperation& item : layer.items) {
      map[item.op] = item.device;
    }
  }
  return map;
}

std::vector<std::optional<DeviceId>> SynthesisResult::dense_binding(
    const model::Assay& assay) const {
  std::vector<std::optional<DeviceId>> device_of(
      static_cast<std::size_t>(assay.operation_count()));
  for (const LayerSchedule& layer : layers) {
    for (const ScheduledOperation& item : layer.items) {
      COHLS_EXPECT(item.op.valid() && item.op.value() < assay.operation_count(),
                   "unknown operation id");
      device_of[item.op.index()] = item.device;
    }
  }
  return device_of;
}

namespace {

/// The distinct paths of `result`, sorted ascending.
std::vector<DevicePath> sorted_paths(const SynthesisResult& result,
                                     const model::Assay& assay) {
  const std::vector<std::optional<DeviceId>> device_of = result.dense_binding(assay);
  std::vector<DevicePath> paths;
  for (const model::Operation& op : assay.operations()) {
    const std::optional<DeviceId> device = device_of[op.id().index()];
    if (!device) {
      continue;
    }
    for (const OperationId child : assay.children(op.id())) {
      const std::optional<DeviceId> other = device_of[child.index()];
      if (other && *other != *device) {
        paths.push_back(make_path(*device, *other));
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  return paths;
}

}  // namespace

std::set<DevicePath> SynthesisResult::paths(const model::Assay& assay) const {
  const std::vector<DevicePath> sorted = sorted_paths(*this, assay);
  return {sorted.begin(), sorted.end()};
}

int SynthesisResult::path_count(const model::Assay& assay) const {
  return static_cast<int>(sorted_paths(*this, assay).size());
}

int SynthesisResult::used_device_count() const {
  std::vector<DeviceId> used;
  for (const LayerSchedule& layer : layers) {
    for (const ScheduledOperation& item : layer.items) {
      used.push_back(item.device);
    }
  }
  std::sort(used.begin(), used.end());
  return static_cast<int>(std::unique(used.begin(), used.end()) - used.begin());
}

SymbolicDuration SynthesisResult::total_time(const model::Assay& assay) const {
  SymbolicDuration total;
  int layer_number = 0;
  for (const LayerSchedule& layer : layers) {
    ++layer_number;
    total.add_fixed(layer.makespan());
    if (layer.has_indeterminate(assay)) {
      total.add_symbol(layer_number);
    }
  }
  return total;
}

}  // namespace cohls::schedule
