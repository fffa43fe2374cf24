// Strong ID types. Operations, dependency edges, devices and layers are all
// indexed by small integers; wrapping them in distinct types prevents
// accidentally using an operation index where a device index is expected.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>

namespace cohls {

/// A strongly-typed non-negative index. `Tag` distinguishes unrelated id
/// spaces at compile time; ids are ordered and hashable so they can key
/// standard containers.
template <typename Tag>
class Id {
 public:
  constexpr Id() = default;
  constexpr explicit Id(std::int32_t value) : value_(value) {}

  [[nodiscard]] constexpr std::int32_t value() const { return value_; }
  [[nodiscard]] constexpr std::size_t index() const {
    return static_cast<std::size_t>(value_);
  }
  [[nodiscard]] constexpr bool valid() const { return value_ >= 0; }

  friend constexpr auto operator<=>(Id, Id) = default;

  friend std::ostream& operator<<(std::ostream& out, Id id) {
    return out << id.value_;
  }

 private:
  std::int32_t value_ = -1;
};

struct OperationTag {};
struct EdgeTag {};
struct DeviceTag {};
struct LayerTag {};

using OperationId = Id<OperationTag>;
/// A dependency edge of an Assay (see Assay::edge_parent).
using EdgeId = Id<EdgeTag>;
using DeviceId = Id<DeviceTag>;
using LayerId = Id<LayerTag>;

}  // namespace cohls

template <typename Tag>
struct std::hash<cohls::Id<Tag>> {
  std::size_t operator()(cohls::Id<Tag> id) const noexcept {
    return std::hash<std::int32_t>{}(id.value());
  }
};
