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

Assay::Assay(const Assay& other)
    : name_(other.name_),
      registry_(other.registry_),
      accessory_count_(other.accessory_count_),
      operations_(other.operations_),
      child_ends_(other.child_ends_),
      edge_parent_(other.edge_parent_),
      edge_links_(other.edge_links_) {
  rebind_parents();
}

Assay& Assay::operator=(const Assay& other) {
  if (this != &other) {
    *this = Assay(other);
  }
  return *this;
}

void Assay::reserve(std::size_t operations, std::size_t edges) {
  operations_.reserve(operations);
  child_ends_.reserve(operations);
  edge_parent_.reserve(edges);
  edge_links_.reserve(edges);
  rebind_parents();
}

OperationId Assay::add_operation(OperationSpec spec) {
  const std::vector<OperationId> parents = std::move(spec.parents);
  spec.parents.clear();
  return add_operation(std::move(spec), parents);
}

OperationId Assay::add_operation(OperationSpec spec, std::span<const OperationId> parents) {
  const OperationId id{operation_count()};
  for (const OperationId parent : parents) {
    COHLS_EXPECT(parent.valid() && parent.value() < id.value(),
                 "parent operations must be added before their children");
  }
  COHLS_EXPECT(static_cast<int>(std::bit_width(spec.accessories.bits())) <= accessory_count_,
               "operation requires an accessory kind that is not registered");
  Operation& op = operations_.emplace_back(id, std::move(spec));
  child_ends_.emplace_back();

  const OperationId* before = edge_parent_.data();
  op.first_edge_ = edge_count();
  for (const OperationId parent : parents) {
    const auto edge = static_cast<std::int32_t>(edge_parent_.size());
    edge_parent_.push_back(parent);
    edge_links_.push_back(EdgeLink{id, -1});
    ChildEnds& ends = child_ends_[parent.index()];
    (ends.last < 0 ? ends.first : edge_links_[static_cast<std::size_t>(ends.last)].next) =
        edge;
    ends.last = edge;
  }
  op.parents_ = {edge_parent_.data() + op.first_edge_, parents.size()};
  if (edge_parent_.data() != before) {
    rebind_parents();
  }
  return id;
}

const Operation& Assay::operation(OperationId id) const {
  COHLS_EXPECT(id.valid() && id.value() < operation_count(), "unknown operation id");
  return operations_[id.index()];
}

std::int32_t Assay::first_child_edge(OperationId id) const {
  COHLS_EXPECT(id.valid() && id.value() < operation_count(), "unknown operation id");
  return child_ends_[id.index()].first;
}

void Assay::rebind_parents() {
  for (Operation& op : operations_) {
    op.parents_ = {edge_parent_.data() + op.first_edge_, op.parents_.size()};
  }
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
