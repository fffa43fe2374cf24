// Result types of the synthesis flow: per-layer sub-schedules (the hybrid
// scheduling output of Sec. 3), bindings, and the assembled SynthesisResult
// whose totals correspond to the paper's Table 2 columns (Exe.Time, #D.,
// #P.).
#pragma once

#include <bit>
#include <cstdint>
#include <map>
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

/// The device of each operation, indexed by operation id; an invalid id
/// marks an operation no device runs. Default-constructed, it binds nothing
/// and holds no storage.
class Binding {
 public:
  Binding() = default;
  /// Room for operations 0..operations-1, all unbound.
  explicit Binding(int operations) : devices_(static_cast<std::size_t>(operations)) {}

  /// `op`'s device; invalid when `op` is unbound or outside the binding
  /// (an invalid id's index() is past any size).
  [[nodiscard]] DeviceId device(OperationId op) const {
    return op.index() < devices_.size() ? devices_[op.index()] : DeviceId{};
  }
  /// Binds `op` to `device`, growing the binding to reach `op`.
  void bind(OperationId op, DeviceId device);
  /// Operations the binding has room for (0 while it holds no storage).
  [[nodiscard]] int size() const { return static_cast<int>(devices_.size()); }

 private:
  std::vector<DeviceId> devices_;
};

/// A set of device paths as a symmetric bit matrix over device ids.
/// Default-constructed, it holds no path and no storage.
class PathMatrix {
 public:
  /// False when either id is invalid or beyond the matrix.
  [[nodiscard]] bool contains(DeviceId a, DeviceId b) const {
    return a.index() < dim_ && b.index() < dim_ &&
           (bits_[a.index() * words_ + b.index() / 64] >> (b.index() % 64) & 1) != 0;
  }
  /// Adds the path between two distinct devices, growing the matrix to
  /// reach both.
  void insert(DeviceId a, DeviceId b);
  /// Grows the matrix to every id below `devices`; the set is unchanged.
  void reserve(std::size_t devices);

  /// Calls `visit(path)` for every path, in ascending order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (std::size_t a = 0; a < dim_; ++a) {
      for (std::size_t w = (a + 1) / 64; w < words_; ++w) {
        std::uint64_t word = bits_[a * words_ + w];
        if (w == (a + 1) / 64) {
          word &= ~std::uint64_t{0} << ((a + 1) % 64);  // columns above the diagonal
        }
        for (; word != 0; word &= word - 1) {
          const std::size_t b = w * 64 + static_cast<std::size_t>(std::countr_zero(word));
          visit(DevicePath{DeviceId{static_cast<std::int32_t>(a)},
                           DeviceId{static_cast<std::int32_t>(b)}});
        }
      }
    }
  }
  /// Every path, ascending.
  [[nodiscard]] std::vector<DevicePath> list() const;
  /// The number of paths.
  [[nodiscard]] int count() const;

 private:
  /// Rows (and columns) in the matrix, and 64-bit words per row.
  std::size_t dim_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

/// Complete synthesis output for one assay.
struct SynthesisResult {
  std::vector<LayerSchedule> layers;
  model::DeviceInventory devices{1};

  /// Device executing each operation (union over layers).
  [[nodiscard]] std::map<OperationId, DeviceId> binding() const;

  /// binding() as a dense Binding sized to the assay; an operation no layer
  /// schedules is unbound. Throws PreconditionError when an item's
  /// operation lies outside the assay.
  [[nodiscard]] Binding dense_binding(const model::Assay& assay) const;

  /// Distinct inter-device paths implied by parent->child transfers, both
  /// within and across layers (sum_p).
  [[nodiscard]] PathMatrix paths(const model::Assay& assay) const;
  [[nodiscard]] int path_count(const model::Assay& assay) const;

  /// Devices actually used by at least one operation.
  [[nodiscard]] int used_device_count() const;

  /// Total assay execution time in the paper's notation: the sum of layer
  /// makespans plus one symbol per layer ending in indeterminate operations.
  [[nodiscard]] SymbolicDuration total_time(const model::Assay& assay) const;
};

}  // namespace cohls::schedule
