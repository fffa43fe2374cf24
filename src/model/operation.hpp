// Component-oriented operation definition (Sec. 2.2): an operation is
// described by (a) the container (with capacity) and accessories it needs,
// (b) an execution duration — exact, or indeterminate with a minimum — and
// (c) its dependencies (parent operations whose outputs it consumes).
#pragma once

#include <cstdint>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "model/components.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace cohls::model {

/// Mutable description used to add an operation to an Assay.
struct OperationSpec {
  std::string name;

  /// Required container kind; unset means "either a ring or a chamber of
  /// corresponding size" (Sec. 2.2).
  std::optional<ContainerKind> container;

  /// Required container capacity; unset means any capacity fits.
  std::optional<Capacity> capacity;

  /// Accessories the executing device must include.
  AccessorySet accessories;

  /// Exact execution duration — or the *minimum* duration when
  /// `indeterminate` is set (the actual duration is only known at run time).
  Minutes duration{0};

  /// True for operations like single-cell capture whose completion is
  /// decided by a cyberphysical check, not by the clock.
  bool indeterminate = false;

  /// Parent operations; must already exist in the assay (this forces the
  /// dependency graph to be acyclic by construction). Assay::add_operation
  /// moves them into the assay's edge arrays.
  std::vector<OperationId> parents;
};

/// Immutable operation record stored inside an Assay. Its parents live in
/// the assay's edge arrays: parents() and parent_edges() view them and stay
/// valid as long as the assay they were read from.
class Operation {
 public:
  /// A stand-alone operation; `spec.parents` must be empty, since
  /// dependencies exist only inside an Assay (see Assay::add_operation).
  Operation(OperationId id, OperationSpec spec);

  [[nodiscard]] OperationId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::optional<ContainerKind>& container() const { return container_; }
  [[nodiscard]] const std::optional<Capacity>& capacity() const { return capacity_; }
  [[nodiscard]] AccessorySet accessories() const { return accessories_; }
  [[nodiscard]] Minutes duration() const { return duration_; }
  [[nodiscard]] bool indeterminate() const { return indeterminate_; }
  /// Parent operations, in the order the spec listed them.
  [[nodiscard]] std::span<const OperationId> parents() const { return parents_; }
  /// The edges from those parents, in the same order.
  [[nodiscard]] auto parent_edges() const {
    const auto last = first_edge_ + static_cast<std::int32_t>(parents_.size());
    return std::views::iota(first_edge_, last) |
           std::views::transform([](std::int32_t edge) { return EdgeId{edge}; });
  }

 private:
  friend class Assay;

  // The spec's fields but its parents, which live in the assay.
  std::string name_;
  std::span<const OperationId> parents_;
  Minutes duration_{0};
  OperationId id_;
  std::int32_t first_edge_ = 0;
  AccessorySet accessories_;
  std::optional<ContainerKind> container_;
  std::optional<Capacity> capacity_;
  bool indeterminate_ = false;
};

}  // namespace cohls::model
