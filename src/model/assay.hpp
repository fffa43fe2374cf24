// An assay is the unit of synthesis: a DAG of component-oriented
// operations, together with the accessory registry its accessory ids refer
// to. Parents must exist before their children are added, which makes the
// dependency graph acyclic by construction.
#pragma once

#include <string>
#include <vector>

#include "model/operation.hpp"

namespace cohls::model {

class Assay {
 public:
  explicit Assay(std::string name, AccessoryRegistry registry = AccessoryRegistry{});

  /// Makes room for `operations` operations, so that adding them moves no
  /// operation and no adjacency list.
  void reserve(std::size_t operations);

  /// Adds an operation; every parent in the spec must already be in the
  /// assay. Returns the new operation's id.
  OperationId add_operation(OperationSpec spec);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const AccessoryRegistry& registry() const { return registry_; }

  [[nodiscard]] int operation_count() const { return static_cast<int>(operations_.size()); }
  [[nodiscard]] const Operation& operation(OperationId id) const;
  [[nodiscard]] const std::vector<Operation>& operations() const { return operations_; }

  /// Children of `id`: operations that consume its outputs, in the order
  /// they were added (once per parent entry naming `id`). The reference
  /// stays valid until the next add_operation.
  [[nodiscard]] const std::vector<OperationId>& children(OperationId id) const;

  [[nodiscard]] std::vector<OperationId> indeterminate_operations() const;
  [[nodiscard]] int indeterminate_count() const;

 private:
  std::string name_;
  AccessoryRegistry registry_;
  /// registry_.count(): the registry is fixed once the assay holds it.
  int accessory_count_ = 0;
  std::vector<Operation> operations_;
  std::vector<std::vector<OperationId>> children_;
};

}  // namespace cohls::model
