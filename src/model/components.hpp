// The component-oriented vocabulary of Sec. 2: containers (chamber, ring)
// with four capacities, and accessories (pump, heating pad, optical system,
// sieve valve, cell trap). Accessory kinds are an open set — the paper's
// central claim is that the concept "can easily be extended and thus adapted
// to continuous biological innovations" — so beyond the five built-ins,
// users may register further kinds in an AccessoryRegistry.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace cohls::model {

/// Container kind: a chamber is a valve-delimited flow-channel segment; a
/// ring is a chamber closed end-to-end (enables circulation mixing).
enum class ContainerKind : std::uint8_t {
  Ring,
  Chamber,
};

[[nodiscard]] std::string_view to_string(ContainerKind kind);

/// Container capacity classes, ordered by volume.
enum class Capacity : std::uint8_t {
  Tiny,
  Small,
  Medium,
  Large,
};

constexpr std::array<Capacity, 4> kAllCapacities{Capacity::Tiny, Capacity::Small,
                                                 Capacity::Medium, Capacity::Large};

[[nodiscard]] std::string_view to_string(Capacity capacity);

/// Constraint (3): a ring's capacity varies among large, medium and small.
/// Constraint (4): a chamber's capacity varies among medium, small and tiny.
[[nodiscard]] constexpr bool capacity_allowed(ContainerKind kind, Capacity capacity) {
  switch (kind) {
    case ContainerKind::Ring:
      return capacity != Capacity::Tiny;
    case ContainerKind::Chamber:
      return capacity != Capacity::Large;
  }
  return false;
}

/// Index of a registered accessory kind within an AccessoryRegistry.
using AccessoryId = int;

/// The five accessory kinds reviewed in Sec. 2.1.2, pre-registered in every
/// AccessoryRegistry with these fixed ids.
struct BuiltinAccessory {
  static constexpr AccessoryId kPump = 0;
  static constexpr AccessoryId kHeatingPad = 1;
  static constexpr AccessoryId kOpticalSystem = 2;
  static constexpr AccessoryId kSieveValve = 3;
  static constexpr AccessoryId kCellTrap = 4;
  static constexpr int kCount = 5;
};

/// Names of the built-in accessories, indexed by their ids.
inline constexpr std::array<std::string_view, BuiltinAccessory::kCount> kBuiltinAccessoryNames{
    "pump", "heating pad", "optical system", "sieve valve", "cell trap"};

class AccessorySet;
class AccessoryCostTable;

/// Open registry of accessory kinds: name + chip processing cost (the `Pr_z`
/// constants of constraint (19)). The five built-ins are always present.
///
/// Thread safety: registration and lookup are guarded by a shared mutex, so
/// a registry may be read concurrently from many synthesis workers (the
/// batch engine does) and extended at runtime without external locking.
/// Registered kinds are never removed and ids never change, so an id
/// obtained from one thread stays valid on all others.
class AccessoryRegistry {
 public:
  /// Creates a registry holding exactly the built-in accessories, with the
  /// default processing costs of the bundled CostModel.
  AccessoryRegistry();

  AccessoryRegistry(const AccessoryRegistry& other);
  AccessoryRegistry(AccessoryRegistry&& other) noexcept;
  AccessoryRegistry& operator=(const AccessoryRegistry& other);
  AccessoryRegistry& operator=(AccessoryRegistry&& other) noexcept;

  /// Registers a new accessory kind (e.g. a droplet sorter) and returns its
  /// id. Names must be unique and non-empty.
  AccessoryId register_accessory(std::string name, double processing_cost);

  [[nodiscard]] int count() const;
  /// Returns a copy: the registry may grow concurrently, and handing out a
  /// reference into a reallocating vector would race with registration.
  [[nodiscard]] std::string name(AccessoryId id) const;
  /// Copy of every registered kind's name, by id, taken under one lock.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] double processing_cost(AccessoryId id) const;
  /// Sum of processing_cost over the ids in `set`, added in ascending id
  /// order under a single lock.
  [[nodiscard]] double total_processing_cost(AccessorySet set) const;
  /// Copy of every registered kind's processing cost, taken under one lock,
  /// for loops that price many accessory sets without locking per set.
  [[nodiscard]] AccessoryCostTable cost_table() const;

  /// Looks a kind up by name; returns -1 when unknown.
  [[nodiscard]] AccessoryId find(std::string_view name) const;

  /// Maximum number of accessory kinds an AccessorySet can hold.
  static constexpr int kMaxAccessories = 32;

 private:
  mutable util::SharedMutex mutex_;
  std::vector<std::string> names_ COHLS_GUARDED_BY(mutex_);
  std::vector<double> costs_ COHLS_GUARDED_BY(mutex_);
};

/// A set of accessory kinds, by id. Small and value-semantic; supports the
/// subset test that underlies the binding rule ("the device includes the
/// accessories required by the operation").
class AccessorySet {
 public:
  constexpr AccessorySet() = default;

  /// Convenience construction from a list of ids.
  AccessorySet(std::initializer_list<AccessoryId> ids);

  void insert(AccessoryId id);
  void erase(AccessoryId id);
  [[nodiscard]] bool contains(AccessoryId id) const;
  [[nodiscard]] bool is_subset_of(AccessorySet other) const {
    return (bits_ & ~other.bits_) == 0;
  }
  [[nodiscard]] int count() const;
  [[nodiscard]] bool empty() const { return bits_ == 0; }
  /// Bit `id` is set iff accessory `id` is in the set.
  [[nodiscard]] std::uint32_t bits() const { return bits_; }

  [[nodiscard]] AccessorySet united_with(AccessorySet other) const {
    AccessorySet result;
    result.bits_ = bits_ | other.bits_;
    return result;
  }

  /// Walks the ids in the set in ascending order, lowest set bit first.
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = AccessoryId;
    using difference_type = std::ptrdiff_t;
    using pointer = const AccessoryId*;
    using reference = AccessoryId;

    constexpr iterator() = default;
    [[nodiscard]] AccessoryId operator*() const { return std::countr_zero(bits_); }
    iterator& operator++() {
      bits_ &= bits_ - 1;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++*this;
      return before;
    }
    friend constexpr bool operator==(iterator, iterator) = default;

   private:
    friend class AccessorySet;
    constexpr explicit iterator(std::uint32_t bits) : bits_(bits) {}

    std::uint32_t bits_ = 0;
  };

  [[nodiscard]] iterator begin() const { return iterator(bits_); }
  [[nodiscard]] iterator end() const { return iterator(); }

  friend constexpr bool operator==(AccessorySet, AccessorySet) = default;

 private:
  std::uint32_t bits_ = 0;
};

/// The processing costs of an AccessoryRegistry's kinds at one instant
/// (AccessoryRegistry::cost_table). Kinds are never removed and their costs
/// never change, so the copy stays exact while the registry only grows.
class AccessoryCostTable {
 public:
  /// Same sum, bit for bit, as AccessoryRegistry::total_processing_cost;
  /// takes no lock.
  [[nodiscard]] double total(AccessorySet set) const;

 private:
  friend class AccessoryRegistry;

  std::array<double, AccessoryRegistry::kMaxAccessories> costs_{};
  std::size_t count_ = 0;
};

/// Renders "{pump, sieve valve}" for diagnostics.
[[nodiscard]] std::string to_string(AccessorySet set, const AccessoryRegistry& registry);

}  // namespace cohls::model
