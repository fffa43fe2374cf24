// Layering for hybrid-scheduling (Sec. 3.1, Algorithm 1). An assay with
// indeterminate operations is split into sequential layers; every layer
// (except possibly the last) ends with up to `t` indeterminate operations,
// so cyberphysical termination control is only needed at layer boundaries.
//
// Phase 1 — dependency-based allocation: a modified maximum-independent-set
// sweep keeps every indeterminate operation with no indeterminate ancestor
// and pushes its descendants to later layers.
// Phase 2 — resource-based allocation: while a layer holds more than `t`
// indeterminate operations, evict the one whose removal is cheapest, where
// the cost is a minimum cut over the operation's ancestor cone (crossing
// edges = intermediates that must be stored), tie-broken by the number of
// ancestor operations dragged along (Fig. 5). A candidate whose eviction
// would take every indeterminate operation out of the layer is passed over;
// if all would, the cheapest leaves alone.
//
// Cost: one eligibility sweep per layer, one min-cut per eviction
// candidate per layer, and no allocation per cut (DESIGN.md, Algorithm 1).
#pragma once

#include <vector>

#include "model/assay.hpp"
#include "util/rng.hpp"

namespace cohls::core {

/// The layer partition produced by Algorithm 1.
class LayerPlan {
 public:
  explicit LayerPlan(std::vector<std::vector<OperationId>> layers);

  [[nodiscard]] int layer_count() const { return static_cast<int>(layers_.size()); }
  [[nodiscard]] const std::vector<OperationId>& layer(int index) const;
  [[nodiscard]] const std::vector<std::vector<OperationId>>& layers() const {
    return layers_;
  }

  /// Layer index of an operation; -1 if the plan does not contain it.
  [[nodiscard]] int layer_of(OperationId op) const;

 private:
  std::vector<std::vector<OperationId>> layers_;
  std::vector<int> layer_of_;
};

struct LayeringOptions {
  /// The threshold `t`: maximum number of indeterminate operations per
  /// layer (they all need parallel devices at the layer's end).
  int indeterminate_threshold = 10;
  /// Seed for the random choice among eligible indeterminate operations.
  std::uint64_t seed = 1;
};

/// Runs Algorithm 1 on the assay.
[[nodiscard]] LayerPlan layer_assay(const model::Assay& assay,
                                    const LayeringOptions& options = {});

/// Checks the Algorithm-1 invariants; returns violation descriptions
/// (empty == valid):
///  - every operation appears in exactly one layer;
///  - parents never sit in later layers than their children;
///  - an indeterminate operation's descendants sit in strictly later layers;
///  - at most `t` indeterminate operations per layer;
///  - every layer except the last contains at least one indeterminate
///    operation whenever the assay has any left to place.
[[nodiscard]] std::vector<std::string> validate_layering(const LayerPlan& plan,
                                                         const model::Assay& assay,
                                                         int indeterminate_threshold);

/// Cost of evicting indeterminate operation `op` from the set `layer_ops`
/// (Fig. 5): the min-cut storage usage and the operations that move. This
/// is exposed for tests and the Fig. 5 reproduction bench. `layer_ops` must
/// hold every operation on a path between two of its operations, as every
/// layer of Algorithm 1 does: the cone is found without leaving the layer.
struct EvictionCost {
  std::int64_t storage = 0;               ///< crossing edges of the min cut
  std::vector<OperationId> moved;         ///< ops leaving the layer (incl. `op`)
};

[[nodiscard]] EvictionCost eviction_cost(const model::Assay& assay,
                                         const std::vector<OperationId>& layer_ops,
                                         OperationId op);

/// Reagent storage demanded at each layer boundary: element `i` counts the
/// dependency edges whose producer sits in layers 0..i and whose consumer
/// sits later — each such intermediate must be held in storage while the
/// boundary's cyberphysical decisions run. (This is the same storage notion
/// the eviction min-cut minimizes, measured on the final plan.) Size is
/// layer_count() - 1; empty for single-layer plans.
[[nodiscard]] std::vector<int> boundary_storage(const LayerPlan& plan,
                                                const model::Assay& assay);

}  // namespace cohls::core
