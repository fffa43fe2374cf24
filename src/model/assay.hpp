// An assay is the unit of synthesis: a DAG of component-oriented
// operations, together with the accessory registry its accessory ids refer
// to. Parents must exist before their children are added, which makes the
// dependency graph acyclic by construction.
//
// The graph is stored flat. Every parent entry of every operation is one
// dependency edge with a dense EdgeId, numbered operation after operation in
// parent-list order, so an operation's parent edges are contiguous. Each
// operation's child edges form a linked list through the same edge arrays,
// in the order they were added. Adding an operation appends to these arrays
// and allocates nothing per operation; reading never mutates, so one const
// Assay may be read by several threads at once.
#pragma once

#include <cstdint>
#include <iterator>
#include <ranges>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "model/operation.hpp"

namespace cohls::model {

/// Where an edge leads, and the next edge from the same parent (-1 after
/// the last): one link of a parent's child list.
struct EdgeLink {
  OperationId child;
  std::int32_t next = -1;
};

/// One operation's child list, in the order the children were added: a
/// walk along the assay's edge links yielding each edge (`Children` false)
/// or its child operation (`Children` true).
template <bool Children>
class ChildWalk : public std::ranges::view_interface<ChildWalk<Children>> {
 public:
  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using value_type = std::conditional_t<Children, OperationId, EdgeId>;
    using difference_type = std::ptrdiff_t;
    iterator() = default;
    iterator(const EdgeLink* links, std::int32_t edge) : links_(links), edge_(edge) {}
    value_type operator*() const {
      if constexpr (Children) {
        return links_[edge_].child;
      } else {
        return EdgeId{edge_};
      }
    }
    iterator& operator++() {
      edge_ = links_[edge_].next;
      return *this;
    }
    iterator operator++(int) {
      const iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const iterator& a, const iterator& b) { return a.edge_ == b.edge_; }

   private:
    const EdgeLink* links_ = nullptr;
    std::int32_t edge_ = -1;
  };

  ChildWalk() = default;
  ChildWalk(const EdgeLink* links, std::int32_t first) : links_(links), first_(first) {}
  [[nodiscard]] iterator begin() const { return {links_, first_}; }
  [[nodiscard]] iterator end() const { return {links_, -1}; }

 private:
  const EdgeLink* links_ = nullptr;
  std::int32_t first_ = -1;
};

using ChildEdges = ChildWalk<false>;
using ChildList = ChildWalk<true>;

class Assay {
 public:
  explicit Assay(std::string name, AccessoryRegistry registry = AccessoryRegistry{});
  Assay(const Assay& other);
  Assay& operator=(const Assay& other);
  Assay(Assay&&) noexcept = default;
  Assay& operator=(Assay&&) noexcept = default;

  /// Makes room for `operations` operations with `edges` parent entries in
  /// all, so that adding them reallocates nothing.
  void reserve(std::size_t operations, std::size_t edges);

  /// Adds an operation; every parent in the spec must already be in the
  /// assay. Returns the new operation's id.
  OperationId add_operation(OperationSpec spec);
  /// The same with the parents given apart (`spec.parents` must be empty).
  OperationId add_operation(OperationSpec spec, std::span<const OperationId> parents);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const AccessoryRegistry& registry() const { return registry_; }

  [[nodiscard]] int operation_count() const { return static_cast<int>(operations_.size()); }
  [[nodiscard]] const Operation& operation(OperationId id) const;
  [[nodiscard]] const std::vector<Operation>& operations() const { return operations_; }

  /// Dependency edges: one per parent entry, ids 0..edge_count()-1.
  [[nodiscard]] int edge_count() const { return static_cast<int>(edge_parent_.size()); }
  [[nodiscard]] OperationId edge_parent(EdgeId edge) const {
    COHLS_EXPECT(edge.valid() && edge.value() < edge_count(), "unknown edge id");
    return edge_parent_[edge.index()];
  }
  [[nodiscard]] OperationId edge_child(EdgeId edge) const {
    COHLS_EXPECT(edge.valid() && edge.value() < edge_count(), "unknown edge id");
    return edge_links_[edge.index()].child;
  }

  /// The edges from `id` to its children, in the order the children were
  /// added. The view stays valid until the next add_operation.
  [[nodiscard]] ChildEdges child_edges(OperationId id) const {
    return {edge_links_.data(), first_child_edge(id)};
  }
  /// Children of `id`: operations that consume its outputs, in the same
  /// order (once per parent entry naming `id`).
  [[nodiscard]] ChildList children(OperationId id) const {
    return {edge_links_.data(), first_child_edge(id)};
  }

  [[nodiscard]] std::vector<OperationId> indeterminate_operations() const;
  [[nodiscard]] int indeterminate_count() const;

 private:
  /// Per operation: its first and last child edges, -1 while it has none.
  struct ChildEnds {
    std::int32_t first = -1;
    std::int32_t last = -1;
  };

  [[nodiscard]] std::int32_t first_child_edge(OperationId id) const;
  /// Points every operation's parents() at edge_parent_ again (after it
  /// moved: a reallocation or a copy).
  void rebind_parents();

  std::string name_;
  AccessoryRegistry registry_;
  /// registry_.count(): the registry is fixed once the assay holds it.
  int accessory_count_ = 0;
  std::vector<Operation> operations_;
  std::vector<ChildEnds> child_ends_;
  /// Edge e runs from edge_parent_[e] to edge_links_[e].child.
  std::vector<OperationId> edge_parent_;
  std::vector<EdgeLink> edge_links_;
};

}  // namespace cohls::model
