#include "model/assay.hpp"

#include <algorithm>
#include <bit>

namespace cohls::model {

Assay::Assay(std::string name, AccessoryRegistry registry)
    : name_(std::move(name)),
      registry_(std::move(registry)),
      accessory_count_(registry_.count()) {
  COHLS_EXPECT(!name_.empty(), "assay name must be non-empty");
}

void Assay::reserve(std::size_t operations) {
  operations_.reserve(operations);
  children_.reserve(operations);
}

OperationId Assay::add_operation(OperationSpec spec) {
  const OperationId id{operation_count()};
  for (const OperationId parent : spec.parents) {
    COHLS_EXPECT(parent.valid() && parent.value() < id.value(),
                 "parent operations must be added before their children");
  }
  COHLS_EXPECT(static_cast<int>(std::bit_width(spec.accessories.bits())) <= accessory_count_,
               "operation requires an accessory kind that is not registered");
  const Operation& op = operations_.emplace_back(id, std::move(spec));
  children_.emplace_back();
  for (const OperationId parent : op.parents()) {
    children_[parent.index()].push_back(id);
  }
  return id;
}

const Operation& Assay::operation(OperationId id) const {
  COHLS_EXPECT(id.valid() && id.value() < operation_count(), "unknown operation id");
  return operations_[id.index()];
}

const std::vector<OperationId>& Assay::children(OperationId id) const {
  COHLS_EXPECT(id.valid() && id.value() < operation_count(), "unknown operation id");
  return children_[id.index()];
}

std::vector<OperationId> Assay::indeterminate_operations() const {
  std::vector<OperationId> out;
  for (const Operation& op : operations_) {
    if (op.indeterminate()) {
      out.push_back(op.id());
    }
  }
  return out;
}

int Assay::indeterminate_count() const {
  return static_cast<int>(std::count_if(operations_.begin(), operations_.end(),
                                        [](const Operation& op) { return op.indeterminate(); }));
}

}  // namespace cohls::model
