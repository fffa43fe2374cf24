#include "schedule/types.hpp"

#include <algorithm>
#include <bit>

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

void Binding::bind(OperationId op, DeviceId device) {
  COHLS_EXPECT(op.valid(), "binding an invalid operation id");
  if (op.index() >= devices_.size()) {
    devices_.resize(op.index() + 1);
  }
  devices_[op.index()] = device;
}

void PathMatrix::insert(DeviceId a, DeviceId b) {
  COHLS_EXPECT(a.valid() && b.valid() && a != b, "a path joins two distinct devices");
  reserve(std::max(a.index(), b.index()) + 1);
  bits_[a.index() * words_ + b.index() / 64] |= std::uint64_t{1} << (b.index() % 64);
  bits_[b.index() * words_ + a.index() / 64] |= std::uint64_t{1} << (a.index() % 64);
}

void PathMatrix::reserve(std::size_t devices) {
  if (devices <= dim_) {
    return;
  }
  const std::size_t words = (devices + 63) / 64;
  std::vector<std::uint64_t> bits(devices * words, 0);
  for (std::size_t row = 0; row < dim_; ++row) {
    std::copy_n(bits_.begin() + static_cast<std::ptrdiff_t>(row * words_), words_,
                bits.begin() + static_cast<std::ptrdiff_t>(row * words));
  }
  bits_ = std::move(bits);
  words_ = words;
  dim_ = devices;
}

int PathMatrix::count() const {
  int bits = 0;
  for (const std::uint64_t word : bits_) {
    bits += std::popcount(word);
  }
  return bits / 2;
}

std::vector<DevicePath> PathMatrix::list() const {
  std::vector<DevicePath> paths;
  for_each([&paths](const DevicePath& path) { paths.push_back(path); });
  return paths;
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

Binding SynthesisResult::dense_binding(const model::Assay& assay) const {
  Binding device_of(assay.operation_count());
  for (const LayerSchedule& layer : layers) {
    for (const ScheduledOperation& item : layer.items) {
      COHLS_EXPECT(item.op.valid() && item.op.value() < assay.operation_count(),
                   "unknown operation id");
      device_of.bind(item.op, item.device);
    }
  }
  return device_of;
}

PathMatrix SynthesisResult::paths(const model::Assay& assay) const {
  const Binding device_of = dense_binding(assay);
  PathMatrix paths;
  paths.reserve(static_cast<std::size_t>(devices.size()));
  for (int e = 0; e < assay.edge_count(); ++e) {
    const DeviceId a = device_of.device(assay.edge_parent(EdgeId{e}));
    const DeviceId b = device_of.device(assay.edge_child(EdgeId{e}));
    if (a.valid() && b.valid() && a != b) {
      paths.insert(a, b);
    }
  }
  return paths;
}

int SynthesisResult::path_count(const model::Assay& assay) const {
  return paths(assay).count();
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
