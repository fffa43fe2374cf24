#include "model/components.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

namespace cohls::model {

std::string_view to_string(ContainerKind kind) {
  switch (kind) {
    case ContainerKind::Ring: return "ring";
    case ContainerKind::Chamber: return "chamber";
  }
  return "?";
}

std::string_view to_string(Capacity capacity) {
  switch (capacity) {
    case Capacity::Tiny: return "tiny";
    case Capacity::Small: return "small";
    case Capacity::Medium: return "medium";
    case Capacity::Large: return "large";
  }
  return "?";
}

AccessoryRegistry::AccessoryRegistry() {
  // Built-in processing costs; see CostModel for the rationale of the
  // relative magnitudes.
  names_.assign(kBuiltinAccessoryNames.begin(), kBuiltinAccessoryNames.end());
  costs_ = {3.0, 2.5, 4.0, 1.5, 1.0};
}

AccessoryRegistry::AccessoryRegistry(const AccessoryRegistry& other) {
  util::ReaderLock lock(other.mutex_);
  names_ = other.names_;
  costs_ = other.costs_;
}

AccessoryRegistry::AccessoryRegistry(AccessoryRegistry&& other) noexcept {
  util::WriterLock lock(other.mutex_);
  names_ = std::move(other.names_);
  costs_ = std::move(other.costs_);
}

AccessoryRegistry& AccessoryRegistry::operator=(const AccessoryRegistry& other) {
  if (this == &other) {
    return *this;
  }
  std::vector<std::string> names;
  std::vector<double> costs;
  {
    util::ReaderLock lock(other.mutex_);
    names = other.names_;
    costs = other.costs_;
  }
  util::WriterLock lock(mutex_);
  names_ = std::move(names);
  costs_ = std::move(costs);
  return *this;
}

// Thread-safety analysis is off here: the analysis cannot model
// address-ordered acquisition of two dynamically chosen instances of the
// same capability. Sound because the order is total (by address), so two
// concurrent cross-assignments cannot deadlock, and both mutexes are held
// for every member access below.
AccessoryRegistry& AccessoryRegistry::operator=(AccessoryRegistry&& other) noexcept
    COHLS_NO_THREAD_SAFETY_ANALYSIS {
  if (this == &other) {
    return *this;
  }
  util::SharedMutex& first = this < &other ? mutex_ : other.mutex_;
  util::SharedMutex& second = this < &other ? other.mutex_ : mutex_;
  first.lock();
  second.lock();
  names_ = std::move(other.names_);
  costs_ = std::move(other.costs_);
  second.unlock();
  first.unlock();
  return *this;
}

AccessoryId AccessoryRegistry::register_accessory(std::string name, double processing_cost) {
  COHLS_EXPECT(!name.empty(), "accessory name must be non-empty");
  COHLS_EXPECT(processing_cost >= 0.0, "processing cost must be non-negative");
  util::WriterLock lock(mutex_);
  for (const std::string& existing : names_) {
    COHLS_EXPECT(existing != name, "accessory name already registered");
  }
  COHLS_EXPECT(static_cast<int>(names_.size()) < kMaxAccessories,
               "accessory registry is full");
  names_.push_back(std::move(name));
  costs_.push_back(processing_cost);
  return static_cast<AccessoryId>(names_.size()) - 1;
}

int AccessoryRegistry::count() const {
  util::ReaderLock lock(mutex_);
  return static_cast<int>(names_.size());
}

std::string AccessoryRegistry::name(AccessoryId id) const {
  util::ReaderLock lock(mutex_);
  COHLS_EXPECT(id >= 0 && id < static_cast<int>(names_.size()), "unknown accessory id");
  return names_[static_cast<std::size_t>(id)];
}

std::vector<std::string> AccessoryRegistry::names() const {
  util::ReaderLock lock(mutex_);
  return names_;
}

double AccessoryRegistry::processing_cost(AccessoryId id) const {
  util::ReaderLock lock(mutex_);
  COHLS_EXPECT(id >= 0 && id < static_cast<int>(costs_.size()), "unknown accessory id");
  return costs_[static_cast<std::size_t>(id)];
}

namespace {

/// Sum of costs[id] over the ids in `set`, in ascending id order.
double sum_costs(const double* costs, std::size_t count, AccessorySet set) {
  double total = 0.0;
  for (std::uint32_t bits = set.bits(); bits != 0; bits &= bits - 1) {
    const auto id = static_cast<std::size_t>(std::countr_zero(bits));
    COHLS_EXPECT(id < count, "unknown accessory id");
    total += costs[id];
  }
  return total;
}

}  // namespace

double AccessoryRegistry::total_processing_cost(AccessorySet set) const {
  util::ReaderLock lock(mutex_);
  return sum_costs(costs_.data(), costs_.size(), set);
}

AccessoryCostTable AccessoryRegistry::cost_table() const {
  util::ReaderLock lock(mutex_);
  AccessoryCostTable table;
  std::copy(costs_.begin(), costs_.end(), table.costs_.begin());
  table.count_ = costs_.size();
  return table;
}

double AccessoryCostTable::total(AccessorySet set) const {
  return sum_costs(costs_.data(), count_, set);
}

AccessoryId AccessoryRegistry::find(std::string_view name) const {
  util::ReaderLock lock(mutex_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<AccessoryId>(i);
    }
  }
  return -1;
}

AccessorySet::AccessorySet(std::initializer_list<AccessoryId> ids) {
  for (const AccessoryId id : ids) {
    insert(id);
  }
}

void AccessorySet::insert(AccessoryId id) {
  COHLS_EXPECT(id >= 0 && id < AccessoryRegistry::kMaxAccessories,
               "accessory id out of range");
  bits_ |= (std::uint32_t{1} << id);
}

void AccessorySet::erase(AccessoryId id) {
  COHLS_EXPECT(id >= 0 && id < AccessoryRegistry::kMaxAccessories,
               "accessory id out of range");
  bits_ &= ~(std::uint32_t{1} << id);
}

bool AccessorySet::contains(AccessoryId id) const {
  COHLS_EXPECT(id >= 0 && id < AccessoryRegistry::kMaxAccessories,
               "accessory id out of range");
  return (bits_ & (std::uint32_t{1} << id)) != 0;
}

int AccessorySet::count() const { return std::popcount(bits_); }

std::string to_string(AccessorySet set, const AccessoryRegistry& registry) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const AccessoryId id : set) {
    if (!first) {
      out << ", ";
    }
    first = false;
    out << (id < registry.count() ? registry.name(id) : "?");
  }
  out << '}';
  return out.str();
}

}  // namespace cohls::model
